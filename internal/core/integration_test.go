package core

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"repro/internal/fdr"
	"repro/internal/spectrum"
)

// TestMGFPipelineEndToEnd drives the full user workflow: generate a
// dataset, serialize library and queries through MGF, read them back,
// search, and verify identifications against ground truth — the
// omsgen | omsearch path exercised in-process.
func TestMGFPipelineEndToEnd(t *testing.T) {
	ds := testDataset(t)

	var libBuf, qBuf bytes.Buffer
	if err := spectrum.WriteMGF(&libBuf, ds.Library); err != nil {
		t.Fatal(err)
	}
	if err := spectrum.WriteMGF(&qBuf, ds.Queries); err != nil {
		t.Fatal(err)
	}
	library, err := spectrum.ReadMGF(&libBuf)
	if err != nil {
		t.Fatal(err)
	}
	queries, err := spectrum.ReadMGF(&qBuf)
	if err != nil {
		t.Fatal(err)
	}
	if len(library) != len(ds.Library) || len(queries) != len(ds.Queries) {
		t.Fatalf("MGF round trip lost spectra: %d/%d lib, %d/%d queries",
			len(library), len(ds.Library), len(queries), len(ds.Queries))
	}

	p := testParams()
	engine, _, err := BuildExact(p, library)
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.Run(queries)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Accepted) == 0 {
		t.Fatal("no identifications through the MGF pipeline")
	}
	correct := 0
	for _, psm := range res.Accepted {
		if ds.Truth[psm.QueryID].Peptide == psm.Peptide {
			correct++
		}
	}
	if correct*2 < len(res.Accepted) {
		t.Errorf("only %d/%d identifications correct after MGF round trip",
			correct, len(res.Accepted))
	}
}

// TestMGFPipelineMatchesInMemory verifies that serializing through MGF
// does not change search results versus the in-memory path.
func TestMGFPipelineMatchesInMemory(t *testing.T) {
	ds := testDataset(t)
	p := testParams()

	direct, _, err := BuildExact(p, ds.Library)
	if err != nil {
		t.Fatal(err)
	}
	directPSMs, err := direct.SearchAll(ds.Queries)
	if err != nil {
		t.Fatal(err)
	}

	var libBuf, qBuf bytes.Buffer
	if err := spectrum.WriteMGF(&libBuf, ds.Library); err != nil {
		t.Fatal(err)
	}
	if err := spectrum.WriteMGF(&qBuf, ds.Queries); err != nil {
		t.Fatal(err)
	}
	library, _ := spectrum.ReadMGF(&libBuf)
	queries, _ := spectrum.ReadMGF(&qBuf)
	viaMGF, _, err := BuildExact(p, library)
	if err != nil {
		t.Fatal(err)
	}
	mgfPSMs, err := viaMGF.SearchAll(queries)
	if err != nil {
		t.Fatal(err)
	}

	if len(directPSMs) != len(mgfPSMs) {
		t.Fatalf("PSM count differs: %d direct vs %d via MGF", len(directPSMs), len(mgfPSMs))
	}
	// MGF stores m/z at 5 decimals, which can move a borderline peak
	// across a bin edge; identical peptide assignments are required
	// for the overwhelming majority.
	same := 0
	for i := range directPSMs {
		if directPSMs[i].Peptide == mgfPSMs[i].Peptide {
			same++
		}
	}
	if same < len(directPSMs)*9/10 {
		t.Errorf("only %d/%d assignments match across serialization", same, len(directPSMs))
	}
}

// TestBatchPathShardSizes checks that engine results are invariant to
// the shard size.
func TestBatchPathShardSizes(t *testing.T) {
	ds := testDataset(t)
	p := testParams()
	base, _, err := BuildExact(p, ds.Library)
	if err != nil {
		t.Fatal(err)
	}
	want, err := base.SearchAll(ds.Queries)
	if err != nil {
		t.Fatal(err)
	}
	for _, shardSize := range []int{1, 7, 64} {
		ps := p
		ps.ShardSize = shardSize
		engine, _, err := BuildExact(ps, ds.Library)
		if err != nil {
			t.Fatal(err)
		}
		got, err := engine.SearchAll(ds.Queries)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("shard %d: %d PSMs vs %d", shardSize, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("shard %d PSM %d differs: %+v vs %+v", shardSize, i, got[i], want[i])
			}
		}
	}
}

// TestNoisySearchAllMatchesSearchOne pins the noisy backend's list path
// to its per-query path: on twin engines built with one seed, SearchAll
// over the query list and a loop of batches of one must return the
// same PSMs at any GOMAXPROCS — the query flips and the score noise
// each draw their seeded streams in query order, however the work is
// spread. The library is encoded on every CPU and flipped in build
// order, so every leg must also return the GOMAXPROCS=1 leg's PSMs.
func TestNoisySearchAllMatchesSearchOne(t *testing.T) {
	ds := testDataset(t)
	p := testParams()
	spec := NoiseSpec{EncodeBER: 0.02, RefStorageBER: 0.01, SearchSigma: 10, Seed: 9}
	// Over 512 queries, so a fan-out has work to spread.
	queries := slices.Repeat(ds.Queries, 512/len(ds.Queries)+1)
	var oneCPU []fdr.PSM
	for _, procs := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			list, err := BuildNoisy(p, ds.Library, spec)
			if err != nil {
				t.Fatal(err)
			}
			loop, err := BuildNoisy(p, ds.Library, spec)
			if err != nil {
				t.Fatal(err)
			}
			got, err := list.SearchAll(queries)
			if err != nil {
				t.Fatal(err)
			}
			var want []fdr.PSM
			for _, q := range queries {
				psm, ok, err := searchOne(loop, q)
				if err != nil {
					t.Fatal(err)
				}
				if ok {
					want = append(want, psm)
				}
			}
			if len(want) == 0 || !slices.Equal(got, want) {
				t.Fatalf("SearchAll returned %d PSMs, the loop of batches of one %d, and they differ", len(got), len(want))
			}
			if oneCPU == nil {
				oneCPU = got
			} else if !slices.Equal(got, oneCPU) {
				t.Fatalf("%d PSMs differ from the GOMAXPROCS=1 leg's %d", len(got), len(oneCPU))
			}
		})
	}
}

// TestFDRMonotoneInAlpha: looser FDR levels accept supersets.
func TestFDRMonotoneInAlpha(t *testing.T) {
	ds := testDataset(t)
	p := testParams()
	engine, _, err := BuildExact(p, ds.Library)
	if err != nil {
		t.Fatal(err)
	}
	psms, err := engine.SearchAll(ds.Queries)
	if err != nil {
		t.Fatal(err)
	}
	prev := -1
	for _, alpha := range []float64{0.001, 0.01, 0.05, 0.2} {
		res, err := fdr.Filter(psms, alpha)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Accepted) < prev {
			t.Fatalf("acceptances shrank as alpha loosened: %d -> %d",
				prev, len(res.Accepted))
		}
		prev = len(res.Accepted)
	}
}
