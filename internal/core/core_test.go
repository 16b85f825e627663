package core

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/fdr"
	"repro/internal/hdc"
	"repro/internal/msdata"
	"repro/internal/spectrum"
	"repro/internal/units"
)

// search is an untraced Search under context.Background(), which never
// stops it, so it never fails.
func search(e *Engine, qs []PreparedQuery) []SearchResult {
	res, err := e.Search(context.Background(), qs, nil)
	if err != nil {
		panic(err)
	}
	return res
}

// searchOne is a batch of one through Prepare and Search: ok is false
// when preprocessing rejects the query, no visible row lies in its
// window or nothing matches.
func searchOne(e *Engine, q *spectrum.Spectrum) (fdr.PSM, bool, error) {
	pq, ok, err := e.Prepare(q)
	if err != nil || !ok {
		return fdr.PSM{}, false, err
	}
	res := search(e, []PreparedQuery{pq})[0]
	return res.PSM, len(res.Top) > 0, nil
}

// topKList is one prepared query's full top-k list in global rows.
func topKList(e *Engine, pq PreparedQuery) []hdc.Match {
	return search(e, []PreparedQuery{pq})[0].Top
}

// testParams returns a small, fast parameter set.
func testParams() Params {
	p := DefaultParams()
	p.Accel.D = 2048
	p.Accel.NumChunks = 128
	p.Accel.Seed = 5
	p.Preprocess.MinPeaks = 3
	return p
}

func testDataset(t *testing.T) *msdata.Dataset {
	t.Helper()
	cfg := msdata.IPRG2012(0.001)
	ds, err := msdata.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestBuildExactEndToEnd(t *testing.T) {
	ds := testDataset(t)
	p := testParams()
	engine, _, err := BuildExact(p, ds.Library)
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.Run(ds.Queries)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Accepted) == 0 {
		t.Fatal("no identifications at 1% FDR on an easy synthetic dataset")
	}
	// Check identification correctness against ground truth: the
	// majority of accepted PSMs should name the true peptide.
	correct, wrong := 0, 0
	for _, psm := range res.Accepted {
		gt := ds.Truth[psm.QueryID]
		if gt.Peptide == "" {
			wrong++ // foreign spectrum identified: an FDR-controlled FP
			continue
		}
		if gt.Peptide == psm.Peptide {
			correct++
		} else {
			wrong++
		}
	}
	if correct < wrong*5 {
		t.Errorf("identifications mostly wrong: %d correct vs %d wrong", correct, wrong)
	}
}

func TestOpenSearchFindsModifiedPeptides(t *testing.T) {
	ds := testDataset(t)
	p := testParams()
	engine, _, err := BuildExact(p, ds.Library)
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.Run(ds.Queries)
	if err != nil {
		t.Fatal(err)
	}
	modFound := 0
	for _, psm := range res.Accepted {
		gt := ds.Truth[psm.QueryID]
		if gt.Modified && gt.Peptide == psm.Peptide {
			modFound++
			// The PSM's observed mass shift should approximate the
			// true modification delta.
			if d := psm.MassShift - gt.MassShift; d > 1.0 || d < -1.0 {
				t.Errorf("query %s: PSM shift %v, true %v", psm.QueryID, psm.MassShift, gt.MassShift)
			}
		}
	}
	if modFound == 0 {
		t.Error("open search identified no modified peptides")
	}
}

func TestStandardSearchMissesModifiedPeptides(t *testing.T) {
	// The paper's motivation: standard (narrow-window) search cannot
	// match modified queries.
	ds := testDataset(t)
	p := testParams()
	p.Open = false
	engine, _, err := BuildExact(p, ds.Library)
	if err != nil {
		t.Fatal(err)
	}
	psms, err := engine.SearchAll(ds.Queries)
	if err != nil {
		t.Fatal(err)
	}
	for _, psm := range psms {
		gt := ds.Truth[psm.QueryID]
		if gt.Modified && gt.Peptide == psm.Peptide {
			t.Errorf("standard search matched modified query %s", psm.QueryID)
		}
	}
	// And open search on the same data finds strictly more matches.
	pOpen := testParams()
	engOpen, _, err := BuildExact(pOpen, ds.Library)
	if err != nil {
		t.Fatal(err)
	}
	openPSMs, err := engOpen.SearchAll(ds.Queries)
	if err != nil {
		t.Fatal(err)
	}
	if len(openPSMs) <= len(psms) {
		t.Errorf("open search PSMs (%d) not more than standard (%d)", len(openPSMs), len(psms))
	}
}

func TestCandidateRangeWindowSemantics(t *testing.T) {
	lib := &Library{
		Entries: []LibraryEntry{
			{ID: "a", Mass: 1000},
			{ID: "b", Mass: 1100},
			{ID: "c", Mass: 1500},
			{ID: "d", Mass: 2000},
		},
		HVs: make([]hdc.BinaryHV, 4),
	}
	lib.SortByMass()
	// Query mass 1510, window [-150, +500]: accept refs with
	// queryMass - refMass in window => refMass in [1010, 1660].
	if lo, hi := lib.CandidateRange(1510, units.OpenWindow(-150, 500)); lo != 1 || hi != 3 {
		t.Errorf("candidates = [%d, %d), want entries b and c", lo, hi)
	}
	// Empty result outside mass range.
	if lo, hi := lib.CandidateRange(50, units.OpenWindow(-1, 1)); lo < hi {
		t.Errorf("far-off query found candidates: [%d, %d)", lo, hi)
	}
}

func TestBuildLibrarySkipsBadSpectra(t *testing.T) {
	p := testParams()
	ids := []*spectrum.Spectrum{
		{ID: "good", PrecursorMZ: 600, Charge: 2, Peptide: "PEPK",
			Peaks: []spectrum.Peak{
				{MZ: 200, Intensity: 10}, {MZ: 300, Intensity: 20},
				{MZ: 400, Intensity: 30}, {MZ: 500, Intensity: 5},
			}},
		{ID: "sparse", PrecursorMZ: 600, Charge: 2,
			Peaks: []spectrum.Peak{{MZ: 200, Intensity: 10}}},
	}
	enc := exactEncoder(t, p)
	lib, err := BuildLibrary(ids, p, enc)
	if err != nil {
		t.Fatal(err)
	}
	if lib.Len() != 1 || lib.Skipped != 1 {
		t.Errorf("len=%d skipped=%d", lib.Len(), lib.Skipped)
	}
}

func exactEncoder(t *testing.T, p Params) Encoder {
	t.Helper()
	engine, enc, err := BuildExact(p, []*spectrum.Spectrum{{
		ID: "seed", PrecursorMZ: 600, Charge: 2, Peptide: "SEEDK",
		Peaks: []spectrum.Peak{
			{MZ: 200, Intensity: 10}, {MZ: 300, Intensity: 20},
			{MZ: 400, Intensity: 30}, {MZ: 500, Intensity: 5},
		}}})
	if err != nil {
		t.Fatal(err)
	}
	_ = engine
	return enc
}

func TestBuildLibraryEmptyFails(t *testing.T) {
	p := testParams()
	if _, _, err := BuildExact(p, nil); err == nil {
		t.Error("empty library accepted")
	}
	enc := exactEncoder(t, p)
	if _, err := BuildLibrary(nil, p, enc); err == nil {
		t.Error("BuildLibrary with no spectra accepted")
	}
	if _, err := BuildLibrary(nil, p, nil); err == nil {
		t.Error("nil encoder accepted")
	}
}

func TestNewEngineValidation(t *testing.T) {
	p := testParams()
	if _, err := NewEngine(p, nil, nil, nil); err == nil {
		t.Error("nil library accepted")
	}
}

// TestNewEngineRejectsDimensionMismatch is the regression for the
// silent score mis-normalization: the engine divided similarities by
// Params.Accel.D without checking it against the library's actual
// hypervector dimension, so a mismatched config skewed every PSM
// score instead of failing loudly.
func TestNewEngineRejectsDimensionMismatch(t *testing.T) {
	ds := testDataset(t)
	p := testParams()
	enc := exactEncoder(t, p)
	lib, err := BuildLibrary(ds.Library, p, enc)
	if err != nil {
		t.Fatal(err)
	}
	searcher, err := hdc.NewShardedSearcher(lib.HVs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewEngine(p, lib, enc, searcher); err != nil {
		t.Fatalf("matched dimensions rejected: %v", err)
	}
	bad := p
	bad.Accel.D = p.Accel.D * 2
	if _, err := NewEngine(bad, lib, enc, searcher); err == nil {
		t.Error("dimension mismatch accepted: scores would be mis-normalized")
	}
}

// TestLibraryMassOrderedWithSourcePermutation checks the mass sort of
// BuildLibrary and the recorded permutation back to build order.
func TestLibraryMassOrderedWithSourcePermutation(t *testing.T) {
	ds := testDataset(t)
	p := testParams()
	enc := exactEncoder(t, p)
	lib, err := BuildLibrary(ds.Library, p, enc)
	if err != nil {
		t.Fatal(err)
	}
	seen := make([]bool, lib.Len())
	for i := range lib.Entries {
		if i > 0 && lib.Entries[i-1].Mass > lib.Entries[i].Mass {
			t.Fatalf("entries not mass-sorted at %d: %v > %v", i, lib.Entries[i-1].Mass, lib.Entries[i].Mass)
		}
		sp := lib.SourcePos(i)
		if sp < 0 || sp >= lib.Len() || seen[sp] {
			t.Fatalf("SourcePos(%d) = %d is not a permutation", i, sp)
		}
		seen[sp] = true
	}
	// The permutation must map each entry back to the kept spectrum it
	// was built from: kept build order is the source-spectra order
	// minus the skipped ones, so IDs must line up.
	kept := make([]string, 0, lib.Len())
	for _, s := range ds.Library {
		if _, err := p.Preprocess.Preprocess(s); err == nil {
			kept = append(kept, s.ID)
		}
	}
	if len(kept) != lib.Len() {
		t.Fatalf("kept %d spectra, library has %d", len(kept), lib.Len())
	}
	for i := range lib.Entries {
		if kept[lib.SourcePos(i)] != lib.Entries[i].ID {
			t.Fatalf("entry %d: ID %s but source position %d holds %s",
				i, lib.Entries[i].ID, lib.SourcePos(i), kept[lib.SourcePos(i)])
		}
	}
}

// TestCandidateRangeMatchesWindow cross-checks the O(1) range
// representation against the window predicate on random windows.
func TestCandidateRangeMatchesWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	lib := &Library{
		Entries: make([]LibraryEntry, 200),
		HVs:     make([]hdc.BinaryHV, 200),
	}
	for i := range lib.Entries {
		lib.Entries[i].Mass = 500 + rng.Float64()*2000
	}
	lib.SortByMass()
	for trial := 0; trial < 200; trial++ {
		mass := 400 + rng.Float64()*2400
		w := units.OpenWindow(-rng.Float64()*200, rng.Float64()*500)
		lo, hi := lib.CandidateRange(mass, w)
		for i, e := range lib.Entries {
			in := i >= lo && i < hi
			within := mass-e.Mass >= w.Lower && mass-e.Mass <= w.Upper
			if in != within {
				t.Fatalf("trial %d: entry %d (mass %v) in-range=%v but window says %v", trial, i, e.Mass, in, within)
			}
		}
	}
}

func TestSearchOneSkipsUnsearchableQueries(t *testing.T) {
	ds := testDataset(t)
	p := testParams()
	engine, _, err := BuildExact(p, ds.Library)
	if err != nil {
		t.Fatal(err)
	}
	// Sparse query: preprocessing rejects.
	_, ok, err := searchOne(engine, &spectrum.Spectrum{
		ID: "sparse", PrecursorMZ: 600, Charge: 2,
		Peaks: []spectrum.Peak{{MZ: 200, Intensity: 1}},
	})
	if err != nil || ok {
		t.Errorf("sparse query: ok=%v err=%v", ok, err)
	}
	// Query far outside any precursor window.
	_, ok, err = searchOne(engine, &spectrum.Spectrum{
		ID: "heavy", PrecursorMZ: 1e5, Charge: 2,
		Peaks: []spectrum.Peak{
			{MZ: 200, Intensity: 10}, {MZ: 300, Intensity: 20},
			{MZ: 400, Intensity: 30}, {MZ: 500, Intensity: 5},
		},
	})
	if err != nil || ok {
		t.Errorf("out-of-window query: ok=%v err=%v", ok, err)
	}
}

func TestBuildNoisyDegradesGracefully(t *testing.T) {
	ds := testDataset(t)
	p := testParams()
	clean, _, err := BuildExact(p, ds.Library)
	if err != nil {
		t.Fatal(err)
	}
	cleanRes, err := clean.Run(ds.Queries)
	if err != nil {
		t.Fatal(err)
	}
	// Mild noise (1% BER): identifications should be close to clean.
	mild, err := BuildNoisy(p, ds.Library, NoiseSpec{
		EncodeBER: 0.01, RefStorageBER: 0.01, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	mildRes, err := mild.Run(ds.Queries)
	if err != nil {
		t.Fatal(err)
	}
	if len(mildRes.Accepted) < len(cleanRes.Accepted)/2 {
		t.Errorf("1%% BER dropped identifications %d -> %d",
			len(cleanRes.Accepted), len(mildRes.Accepted))
	}
	// Catastrophic noise (45% BER): search must collapse.
	harsh, err := BuildNoisy(p, ds.Library, NoiseSpec{
		EncodeBER: 0.45, RefStorageBER: 0.45, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	harshRes, err := harsh.Run(ds.Queries)
	if err != nil {
		t.Fatal(err)
	}
	if len(harshRes.Accepted) >= len(cleanRes.Accepted) {
		t.Errorf("45%% BER did not degrade: %d vs %d",
			len(harshRes.Accepted), len(cleanRes.Accepted))
	}
}

func TestInjectStorageErrorsRate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	lib := &Library{
		Entries: make([]LibraryEntry, 10),
		HVs:     make([]hdc.BinaryHV, 10),
	}
	orig := make([]hdc.BinaryHV, 10)
	for i := range lib.HVs {
		lib.HVs[i] = hdc.RandomBinaryHV(2000, rng)
		orig[i] = lib.HVs[i].Clone()
	}
	lib.SortByMass()
	lib.InjectStorageErrors(0.1, rng)
	var flipped int
	for i := range lib.HVs {
		flipped += hdc.HammingDistance(lib.HVs[i], orig[i])
	}
	rate := float64(flipped) / 20000
	if rate < 0.08 || rate > 0.12 {
		t.Errorf("storage error rate = %v, want ~0.1", rate)
	}
	lib.InjectStorageErrors(0, rng) // no-op must not panic
}

func TestRunProducesValidFDR(t *testing.T) {
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
	res, err := fdr.Filter(psms, p.FDRAlpha)
	if err != nil {
		t.Fatal(err)
	}
	if res.TargetCount > 0 && res.DecoyCount > 0 {
		observed := float64(res.DecoyCount) / float64(res.TargetCount)
		if observed > p.FDRAlpha+1e-9 {
			t.Errorf("FDR bound violated: %v > %v", observed, p.FDRAlpha)
		}
	}
}
