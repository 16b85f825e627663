package annsolo

import (
	"math"
	"testing"

	"repro/internal/msdata"
	"repro/internal/spectrum"
)

func testDataset(t *testing.T) *msdata.Dataset {
	t.Helper()
	ds, err := msdata.Generate(msdata.IPRG2012(0.001))
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func testParams() Params {
	p := DefaultParams()
	p.Preprocess.MinPeaks = 3
	return p
}

func TestNewEngineEmptyLibrary(t *testing.T) {
	if _, err := NewEngine(testParams(), nil); err == nil {
		t.Error("empty library accepted")
	}
}

func TestEndToEndIdentifications(t *testing.T) {
	ds := testDataset(t)
	eng, err := NewEngine(testParams(), ds.Library)
	if err != nil {
		t.Fatal(err)
	}
	if len(eng.entries) == 0 {
		t.Fatal("no references indexed")
	}
	res, err := eng.Run(ds.Queries)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Accepted) == 0 {
		t.Fatal("no identifications on easy synthetic data")
	}
	correct, wrong := 0, 0
	for _, psm := range res.Accepted {
		gt := ds.Truth[psm.QueryID]
		if gt.Peptide == psm.Peptide {
			correct++
		} else {
			wrong++
		}
	}
	if correct < wrong*3 {
		t.Errorf("mostly wrong: %d correct / %d wrong", correct, wrong)
	}
}

func TestCascadeFindsModifiedPeptides(t *testing.T) {
	ds := testDataset(t)
	eng, err := NewEngine(testParams(), ds.Library)
	if err != nil {
		t.Fatal(err)
	}
	psms, err := eng.SearchAll(ds.Queries)
	if err != nil {
		t.Fatal(err)
	}
	modCorrect := 0
	for _, psm := range psms {
		gt := ds.Truth[psm.QueryID]
		if gt.Modified && gt.Peptide == psm.Peptide {
			modCorrect++
			if math.Abs(psm.MassShift-gt.MassShift) > 1.0 {
				t.Errorf("mass shift %v vs truth %v", psm.MassShift, gt.MassShift)
			}
		}
	}
	if modCorrect == 0 {
		t.Error("open stage matched no modified peptides")
	}
}

func TestStageOneShortCircuitsExactMatches(t *testing.T) {
	ds := testDataset(t)
	eng, err := NewEngine(testParams(), ds.Library)
	if err != nil {
		t.Fatal(err)
	}
	// Use a clean library spectrum itself as query: stage one must
	// match it with a near-perfect cosine.
	q := ds.Library[0].Clone()
	q.ID = "selfquery"
	q.Peptide = ""
	psm, ok, err := eng.SearchOne(q)
	if err != nil || !ok {
		t.Fatalf("self query failed: ok=%v err=%v", ok, err)
	}
	if psm.Peptide != ds.Library[0].Peptide {
		t.Errorf("self query matched %q", psm.Peptide)
	}
	if psm.Score < 0.95 {
		t.Errorf("self cosine = %v", psm.Score)
	}
	if math.Abs(psm.MassShift) > 0.01 {
		t.Errorf("self mass shift = %v", psm.MassShift)
	}
}

func TestUnsearchableQueries(t *testing.T) {
	ds := testDataset(t)
	eng, err := NewEngine(testParams(), ds.Library)
	if err != nil {
		t.Fatal(err)
	}
	_, ok, err := eng.SearchOne(&spectrum.Spectrum{
		ID: "sparse", PrecursorMZ: 600, Charge: 2,
		Peaks: []spectrum.Peak{{MZ: 300, Intensity: 1}},
	})
	if err != nil || ok {
		t.Errorf("sparse query: ok=%v err=%v", ok, err)
	}
	_, ok, err = eng.SearchOne(&spectrum.Spectrum{
		ID: "heavy", PrecursorMZ: 99999, Charge: 2,
		Peaks: []spectrum.Peak{
			{MZ: 200, Intensity: 10}, {MZ: 300, Intensity: 20},
			{MZ: 400, Intensity: 30}, {MZ: 500, Intensity: 40},
		},
	})
	if err != nil || ok {
		t.Errorf("out-of-window query: ok=%v err=%v", ok, err)
	}
}

func TestANNShortlistBounded(t *testing.T) {
	ds := testDataset(t)
	p := testParams()
	p.MaxCandidates = 16
	eng, err := NewEngine(p, ds.Library)
	if err != nil {
		t.Fatal(err)
	}
	// All eligible entries for a mid-mass query.
	q := ds.Queries[0]
	pre, err := p.Preprocess.Preprocess(q)
	if err != nil {
		t.Skip("query rejected by preprocessing")
	}
	qv := p.Binner.Vectorize(pre).Normalized()
	mass := q.PrecursorMass()
	eligible := eng.massRange(mass-p.OpenWindow.Upper, mass-p.OpenWindow.Lower)
	if len(eligible) <= p.MaxCandidates {
		t.Skip("not enough eligible entries to exercise the bound")
	}
	got := eng.annCandidates(qv, mass, eligible)
	if len(got) > p.MaxCandidates {
		t.Errorf("shortlist = %d, cap %d", len(got), p.MaxCandidates)
	}
}

// TestANNShortlistPadsMassNearest is the regression for the padding
// order bug: an undersized shortlist used to be padded in
// ascending-mass order from the window's light end, not with the
// promised mass-nearest eligible entries.
func TestANNShortlistPadsMassNearest(t *testing.T) {
	p := testParams()
	p.MaxCandidates = 3
	// Library entries share no bins with the query (distinct m/z
	// regions), so the shared-bin ranking is empty and the whole
	// shortlist comes from padding. Masses straddle the query mass.
	mkSpec := func(id string, precursorMZ float64, base float64) *spectrum.Spectrum {
		return &spectrum.Spectrum{
			ID: id, PrecursorMZ: precursorMZ, Charge: 1, Peptide: id,
			Peaks: []spectrum.Peak{
				{MZ: base, Intensity: 10}, {MZ: base + 3, Intensity: 20},
				{MZ: base + 6, Intensity: 30}, {MZ: base + 9, Intensity: 40},
			},
		}
	}
	lib := []*spectrum.Spectrum{
		mkSpec("far-light", 900, 200),
		mkSpec("near-light", 990, 240),
		mkSpec("nearest", 1001, 280),
		mkSpec("near-heavy", 1012, 320),
		mkSpec("far-heavy", 1100, 360),
	}
	eng, err := NewEngine(p, lib)
	if err != nil {
		t.Fatal(err)
	}
	q := mkSpec("query", 1000, 600)
	pre, err := p.Preprocess.Preprocess(q)
	if err != nil {
		t.Fatal(err)
	}
	qv := p.Binner.Vectorize(pre).Normalized()
	mass := q.PrecursorMass()
	eligible := eng.massRange(mass-p.OpenWindow.Upper, mass-p.OpenWindow.Lower)
	if len(eligible) != len(lib) {
		t.Fatalf("eligible = %d entries, want all %d", len(eligible), len(lib))
	}
	got := eng.annCandidates(qv, mass, eligible)
	if len(got) != p.MaxCandidates {
		t.Fatalf("shortlist = %v, want %d entries", got, p.MaxCandidates)
	}
	want := map[string]bool{"nearest": true, "near-light": true, "near-heavy": true}
	for _, i := range got {
		id := eng.entries[i].id
		if !want[id] {
			t.Errorf("shortlist contains %s; want the three mass-nearest entries", id)
		}
	}
}

func TestFDRBoundHolds(t *testing.T) {
	ds := testDataset(t)
	eng, err := NewEngine(testParams(), ds.Library)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(ds.Queries)
	if err != nil {
		t.Fatal(err)
	}
	if res.TargetCount > 0 {
		fdrObserved := float64(res.DecoyCount) / float64(res.TargetCount)
		if fdrObserved > 0.01+1e-12 {
			t.Errorf("FDR = %v > 0.01", fdrObserved)
		}
	}
}
