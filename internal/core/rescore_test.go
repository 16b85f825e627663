package core

import (
	"strings"
	"testing"

	"repro/internal/fdr"
)

func TestRescorerValidation(t *testing.T) {
	ds := testDataset(t)
	p := testParams()
	engine, _, err := BuildExact(p, ds.Library)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewRescorer(engine, ds.Library, -0.1); err == nil {
		t.Error("negative alpha accepted")
	}
	if _, err := NewRescorer(engine, ds.Library, 1.5); err == nil {
		t.Error("alpha > 1 accepted")
	}
	// Mismatched library slice must be rejected.
	if _, err := NewRescorer(engine, ds.Library[:1], 0.5); err == nil {
		t.Error("truncated library accepted")
	}
	// Several partitions have no single build order to realign to.
	split, _, err := NewPartitionedEngine(p, splitSet(t, engine.Library(), 3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewRescorer(split, ds.Library, 0.5); err == nil || !strings.Contains(err.Error(), "3 partitions") {
		t.Errorf("3-partition engine: err = %v, want a rejection naming the partition count", err)
	}
}

// TestRescorerBitLayoutInvariant is the regression for the rescorer
// encoding queries on its own and skipping the library's bit-layout
// permutation: under the entropy layout it scored unpermuted queries
// against permuted references. The layout must not move a single PSM.
func TestRescorerBitLayoutInvariant(t *testing.T) {
	ds := testDataset(t)
	run := func(layout string) []fdr.PSM {
		p := testParams()
		p.BitLayout = layout
		engine, _, err := BuildExact(p, ds.Library)
		if err != nil {
			t.Fatal(err)
		}
		if layout == BitLayoutEntropy && len(engine.Library().DimPerm) == 0 {
			t.Fatal("entropy layout produced no permutation; the test would prove nothing")
		}
		r, err := NewRescorer(engine, ds.Library, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		psms, err := r.SearchAll(ds.Queries)
		if err != nil {
			t.Fatal(err)
		}
		return psms
	}
	natural, entropy := run(BitLayoutNatural), run(BitLayoutEntropy)
	if len(natural) == 0 || len(natural) != len(entropy) {
		t.Fatalf("PSM counts: natural %d, entropy %d", len(natural), len(entropy))
	}
	for i := range natural {
		if natural[i] != entropy[i] {
			t.Errorf("PSM %d: natural %+v, entropy %+v", i, natural[i], entropy[i])
		}
	}
}

func TestRescorerAlphaZeroMatchesEngineAssignments(t *testing.T) {
	ds := testDataset(t)
	p := testParams()
	engine, _, err := BuildExact(p, ds.Library)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRescorer(engine, ds.Library, 0)
	if err != nil {
		t.Fatal(err)
	}
	base, err := engine.SearchAll(ds.Queries)
	if err != nil {
		t.Fatal(err)
	}
	rescored, err := r.SearchAll(ds.Queries)
	if err != nil {
		t.Fatal(err)
	}
	if len(base) != len(rescored) {
		t.Fatalf("PSM counts differ: %d vs %d", len(base), len(rescored))
	}
	for i := range base {
		if base[i].Peptide != rescored[i].Peptide {
			t.Errorf("query %s: alpha=0 changed assignment %q -> %q",
				base[i].QueryID, base[i].Peptide, rescored[i].Peptide)
		}
	}
}

func TestRescorerImprovesOrMaintainsAccuracy(t *testing.T) {
	ds := testDataset(t)
	p := testParams()
	engine, _, err := BuildExact(p, ds.Library)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRescorer(engine, ds.Library, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	correctOf := func(psms []struct {
		qid, pep string
	}) int {
		c := 0
		for _, p := range psms {
			if ds.Truth[p.qid].Peptide == p.pep {
				c++
			}
		}
		return c
	}
	basePSMs, err := engine.SearchAll(ds.Queries)
	if err != nil {
		t.Fatal(err)
	}
	resPSMs, err := r.SearchAll(ds.Queries)
	if err != nil {
		t.Fatal(err)
	}
	var base, res []struct{ qid, pep string }
	for _, p := range basePSMs {
		base = append(base, struct{ qid, pep string }{p.QueryID, p.Peptide})
	}
	for _, p := range resPSMs {
		res = append(res, struct{ qid, pep string }{p.QueryID, p.Peptide})
	}
	cb, cr := correctOf(base), correctOf(res)
	if cr < cb-2 {
		t.Errorf("rescoring hurt accuracy: %d -> %d correct", cb, cr)
	}
	fdrRes, err := r.Run(ds.Queries)
	if err != nil {
		t.Fatal(err)
	}
	if len(fdrRes.Accepted) == 0 {
		t.Error("rescored pipeline accepted nothing")
	}
}
