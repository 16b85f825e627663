package core

import (
	"testing"

	"repro/internal/hdc"
	"repro/internal/spectrum"
	"repro/internal/units"
)

func TestDefaultParamsConsistency(t *testing.T) {
	p := DefaultParams()
	if p.Accel.NumBins != p.Binner.NumBins() {
		t.Errorf("accel bins %d != binner bins %d", p.Accel.NumBins, p.Binner.NumBins())
	}
	if !p.Open {
		t.Error("default should be open search")
	}
	if p.FDRAlpha != 0.01 {
		t.Errorf("default FDR = %v", p.FDRAlpha)
	}
	if p.Window.Lower != -150 || p.Window.Upper != 500 {
		t.Errorf("default window: %+v", p.Window)
	}
}

func TestEngineTopKClamp(t *testing.T) {
	ds := testDataset(t)
	p := testParams()
	p.TopK = 0 // must clamp to 1
	engine, _, err := BuildExact(p, ds.Library)
	if err != nil {
		t.Fatal(err)
	}
	psm, ok, err := searchOne(engine, ds.Queries[0])
	if err != nil {
		t.Fatal(err)
	}
	if ok && psm.Peptide == "" {
		t.Error("empty PSM returned")
	}
}

func TestCandidateRangeEmptyWindow(t *testing.T) {
	lib := &Library{
		Entries: []LibraryEntry{{Mass: 1000}},
		HVs:     make([]hdc.BinaryHV, 1),
	}
	lib.SortByMass()
	// Inverted/degenerate window around a far-off mass.
	if lo, hi := lib.CandidateRange(5000, units.OpenWindow(-1, 1)); lo < hi {
		t.Errorf("expected no candidates, got [%d, %d)", lo, hi)
	}
}

func TestCandidateRangeBoundaryInclusive(t *testing.T) {
	lib := &Library{
		Entries: []LibraryEntry{{Mass: 1000}, {Mass: 1150}, {Mass: 1500}},
		HVs:     make([]hdc.BinaryHV, 3),
	}
	lib.SortByMass()
	// Window [-150, +500]: query 1000 accepts refs in [500, 1150].
	if lo, hi := lib.CandidateRange(1000, units.OpenWindow(-150, 500)); lo != 0 || hi != 2 {
		t.Errorf("boundary candidates = [%d, %d), want [0, 2)", lo, hi)
	}
}

func TestStandardWindowNarrow(t *testing.T) {
	ds := testDataset(t)
	p := testParams()
	p.Open = false
	p.StandardTol = units.Da(0.0001) // impossibly narrow
	engine, _, err := BuildExact(p, ds.Library)
	if err != nil {
		t.Fatal(err)
	}
	// The noisy queries should mostly miss at 0.1 mDa tolerance.
	psms, err := engine.SearchAll(ds.Queries)
	if err != nil {
		t.Fatal(err)
	}
	if len(psms) > len(ds.Queries)/2 {
		t.Errorf("%d/%d queries matched at 0.1 mDa tolerance", len(psms), len(ds.Queries))
	}
}

func TestBuildNoisyZeroSpecEqualsExactAssignments(t *testing.T) {
	ds := testDataset(t)
	p := testParams()
	exact, _, err := BuildExact(p, ds.Library)
	if err != nil {
		t.Fatal(err)
	}
	noisy, err := BuildNoisy(p, ds.Library, NoiseSpec{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := exact.SearchAll(ds.Queries)
	if err != nil {
		t.Fatal(err)
	}
	b, err := noisy.SearchAll(ds.Queries)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Peptide != b[i].Peptide {
			t.Errorf("query %s: zero-noise backend diverged", a[i].QueryID)
		}
	}
}

// TestSingleEntryLibraryEngine pins the degenerate 1-entry library end
// to end: build, candidate selection, search and k far larger than the
// candidate range must all behave, not panic or mis-size results.
func TestSingleEntryLibraryEngine(t *testing.T) {
	ds := testDataset(t)
	p := testParams()
	p.TopK = 7 // far above the 1-entry candidate range
	engine, _, err := BuildExact(p, ds.Library[:1])
	if err != nil {
		t.Fatal(err)
	}
	lib := engine.Library()
	if lib.Len() != 1 || lib.SourcePos(0) != 0 {
		t.Fatalf("len=%d srcPos(0)=%d", lib.Len(), lib.SourcePos(0))
	}
	if lo, hi := lib.CandidateRange(lib.Entries[0].Mass, p.Window); hi-lo != 1 {
		t.Fatalf("candidate range [%d,%d) over 1-entry library", lo, hi)
	}
	var matched int
	for _, q := range ds.Queries {
		psm, ok, err := searchOne(engine, q)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			matched++
			if psm.Peptide != lib.Entries[0].Peptide {
				t.Fatalf("matched %q, library holds only %q", psm.Peptide, lib.Entries[0].Peptide)
			}
		}
	}
	if matched == 0 {
		t.Fatal("no query matched the 1-entry library")
	}
	// Batch scoring over the same degenerate library must agree.
	var batchMatched int
	for _, r := range search(engine, prepareAll(t, engine, ds.Queries)) {
		if len(r.Top) > 0 {
			batchMatched++
			if r.PSM.Peptide != lib.Entries[0].Peptide {
				t.Fatalf("batch matched %q", r.PSM.Peptide)
			}
		}
	}
	if batchMatched != matched {
		t.Fatalf("batch matched %d, serial %d", batchMatched, matched)
	}
}

// prepareAll prepares every query that passes preprocessing.
func prepareAll(t *testing.T, engine *Engine, queries []*spectrum.Spectrum) []PreparedQuery {
	t.Helper()
	var out []PreparedQuery
	for _, q := range queries {
		pq, ok, err := engine.Prepare(q)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			out = append(out, pq)
		}
	}
	return out
}

// TestEmptyLibraryRejectedEverywhere pins the 0-entry failure mode at
// each constructor that could otherwise divide by zero or mis-build.
func TestEmptyLibraryRejectedEverywhere(t *testing.T) {
	p := testParams()
	if _, _, err := BuildExact(p, nil); err == nil {
		t.Error("BuildExact accepted an empty library")
	}
	if _, err := hdc.NewShardedSearcher(nil, p.Accel.D, 0); err == nil {
		t.Error("NewShardedSearcher accepted an empty reference set")
	}
	if _, err := RestoreLibrary(nil, nil, nil, 0); err == nil {
		t.Error("RestoreLibrary accepted an empty library")
	}
	if _, _, err := NewExactEngineFromLibrary(p, &Library{}); err == nil {
		t.Error("NewExactEngineFromLibrary accepted an empty library")
	}
}

func TestLibrarySkippedAccounting(t *testing.T) {
	p := testParams()
	spectra := []*spectrum.Spectrum{
		{ID: "ok", PrecursorMZ: 600, Charge: 2, Peptide: "OKPEPK",
			Peaks: []spectrum.Peak{
				{MZ: 200, Intensity: 10}, {MZ: 300, Intensity: 20},
				{MZ: 400, Intensity: 30}, {MZ: 500, Intensity: 40},
			}},
		{ID: "empty", PrecursorMZ: 600, Charge: 2},
		{ID: "sparse", PrecursorMZ: 600, Charge: 2,
			Peaks: []spectrum.Peak{{MZ: 200, Intensity: 1}}},
	}
	enc := exactEncoder(t, p)
	lib, err := BuildLibrary(spectra, p, enc)
	if err != nil {
		t.Fatal(err)
	}
	if lib.Len() != 1 || lib.Skipped != 2 {
		t.Errorf("len=%d skipped=%d", lib.Len(), lib.Skipped)
	}
}
