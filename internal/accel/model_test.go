package accel

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/hdc"
	"repro/internal/spectrum"
)

func TestCharacterizeProducesPlausibleModel(t *testing.T) {
	cfg := smallConfig()
	cfg.Elapsed = 2 * time.Hour
	cfg.ADCBits = 6
	model, err := Characterize(cfg, 4, 42)
	if err != nil {
		t.Fatal(err)
	}
	if model.EncodeBER < 0 || model.EncodeBER > 0.5 {
		t.Errorf("encode BER = %v", model.EncodeBER)
	}
	if model.SearchSigma <= 0 || model.SearchSigma > float64(cfg.D) {
		t.Errorf("search sigma = %v", model.SearchSigma)
	}
	if model.String() == "" {
		t.Error("empty String")
	}
}

func TestCharacterizeMoreBitsMoreError(t *testing.T) {
	at := func(bits int) NoisyModel {
		cfg := smallConfig()
		cfg.IDPrecision = bits
		cfg.BitsPerCell = bits
		cfg.ADCBits = 8
		cfg.Elapsed = 2 * time.Hour
		m, err := Characterize(cfg, 4, 7)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	m1, m3 := at(1), at(3)
	if m3.EncodeBER <= m1.EncodeBER {
		t.Errorf("encode BER: 1b=%v 3b=%v", m1.EncodeBER, m3.EncodeBER)
	}
	if m3.SearchSigma <= m1.SearchSigma {
		t.Errorf("search sigma: 1b=%v 3b=%v", m1.SearchSigma, m3.SearchSigma)
	}
}

func TestNoisyEncoderFlipRate(t *testing.T) {
	cfg := smallConfig()
	ids, levels, err := NewEncoderComponents(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ideal, err := hdc.NewEncoder(ids, levels)
	if err != nil {
		t.Fatal(err)
	}
	ne := NewNoisyEncoder(ideal, NoisyModel{EncodeBER: 0.1}, 1)
	rng := rand.New(rand.NewSource(2))
	var flipped, total int
	for trial := 0; trial < 30; trial++ {
		peaks := randomPeaks(rng, 50, cfg.NumBins, cfg.Q)
		noisy, err := ne.Encode(peaks)
		if err != nil {
			t.Fatal(err)
		}
		clean, err := ideal.Encode(peaks)
		if err != nil {
			t.Fatal(err)
		}
		flipped += hdc.HammingDistance(noisy, clean)
		total += cfg.D
	}
	rate := float64(flipped) / float64(total)
	if math.Abs(rate-0.1) > 0.02 {
		t.Errorf("observed flip rate %v, want ~0.1", rate)
	}
}

func TestNoisyEncoderZeroBERIsExact(t *testing.T) {
	cfg := smallConfig()
	ids, levels, _ := NewEncoderComponents(cfg)
	ideal, _ := hdc.NewEncoder(ids, levels)
	ne := NewNoisyEncoder(ideal, NoisyModel{}, 1)
	rng := rand.New(rand.NewSource(3))
	peaks := randomPeaks(rng, 40, cfg.NumBins, cfg.Q)
	a, _ := ne.Encode(peaks)
	b, _ := ideal.Encode(peaks)
	if !a.Equal(b) {
		t.Error("zero-BER noisy encoder diverged from ideal")
	}
	v := spectrum.Vector{Entries: []spectrum.Entry{{Bin: 3, Intensity: 5}}, NumBins: cfg.NumBins}
	if _, err := ne.EncodeVector(v); err != nil {
		t.Error(err)
	}
}

// noisyTopK runs one query over [lo, hi) — a batch of one.
func noisyTopK(ns *NoisySearcher, q hdc.BinaryHV, lo, hi, k int) []hdc.Match {
	return ns.BatchTopKRangeTraced([]hdc.BinaryHV{q}, []hdc.RowRange{{Lo: lo, Hi: hi}}, k, nil)[0]
}

func TestNoisySearcherDegradesRanking(t *testing.T) {
	// With enormous noise, the planted best match should often lose.
	rng := rand.New(rand.NewSource(6))
	refs := make([]hdc.BinaryHV, 50)
	for i := range refs {
		refs[i] = hdc.RandomBinaryHV(512, rng)
	}
	exact, _ := hdc.NewShardedSearcher(refs, 0, hdc.CascadeConfig{})
	ns := NewNoisySearcher(exact, NoisyModel{SearchSigma: 200}, 7)
	losses := 0
	for trial := 0; trial < 30; trial++ {
		q := refs[trial%50].Clone()
		if top := noisyTopK(ns, q, 0, 50, 1); top[0].Index != trial%50 {
			losses++
		}
	}
	if losses == 0 {
		t.Error("huge noise never changed the winner; noise not applied?")
	}
}

func TestNoisySearcherKZero(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	refs := []hdc.BinaryHV{hdc.RandomBinaryHV(64, rng)}
	exact, _ := hdc.NewShardedSearcher(refs, 0, hdc.CascadeConfig{})
	ns := NewNoisySearcher(exact, NoisyModel{}, 9)
	if got := noisyTopK(ns, refs[0], 0, 1, 0); got != nil {
		t.Error("k=0 returned results")
	}
}

// TestNoisySearcherRangeZeroSigmaParity checks the bulk range path:
// with a noiseless model, a batch of one and a whole batch must match
// the exact engine's results bit for bit, including clamping and empty
// ranges.
func TestNoisySearcherRangeZeroSigmaParity(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	refs := make([]hdc.BinaryHV, 60)
	for i := range refs {
		refs[i] = hdc.RandomBinaryHV(256, rng)
	}
	exact, err := hdc.NewShardedSearcher(refs, 16, hdc.CascadeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ns := NewNoisySearcher(exact, NoisyModel{}, 15)
	q := hdc.RandomBinaryHV(256, rng)
	for _, r := range [][2]int{{0, 60}, {10, 30}, {-5, 20}, {50, 90}, {25, 25}} {
		got := noisyTopK(ns, q, r[0], r[1], 5)
		want := exact.BatchTopKRange([]hdc.BinaryHV{q}, []hdc.RowRange{{Lo: r[0], Hi: r[1]}}, 5)[0]
		if len(got) != len(want) {
			t.Fatalf("range %v: %d vs %d results", r, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("range %v result %d: %+v vs %+v", r, i, got[i], want[i])
			}
		}
	}
	queries := []hdc.BinaryHV{q, hdc.RandomBinaryHV(256, rng), q}
	ranges := []hdc.RowRange{{Lo: 5, Hi: 40}, {Lo: 0, Hi: 60}, {Lo: 33, Hi: 33}}
	got := ns.BatchTopKRangeTraced(queries, ranges, 4, nil)
	want := exact.BatchTopKRange(queries, ranges, 4)
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("query %d: %d vs %d results", i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Errorf("query %d result %d: %+v vs %+v", i, j, got[i][j], want[i][j])
			}
		}
	}
}

// TestNoisySearcherBatchRangeDeterministic asserts the batch range
// path draws per-query noise in query order: two searchers with the
// same seed must agree regardless of goroutine scheduling.
func TestNoisySearcherBatchRangeDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	refs := make([]hdc.BinaryHV, 80)
	for i := range refs {
		refs[i] = hdc.RandomBinaryHV(512, rng)
	}
	exact, err := hdc.NewShardedSearcher(refs, 0, hdc.CascadeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	queries := make([]hdc.BinaryHV, 16)
	ranges := make([]hdc.RowRange, 16)
	for i := range queries {
		queries[i] = hdc.RandomBinaryHV(512, rng)
		ranges[i] = hdc.RowRange{Lo: i, Hi: 40 + i*2}
	}
	a := NewNoisySearcher(exact, NoisyModel{SearchSigma: 30}, 99).BatchTopKRangeTraced(queries, ranges, 3, nil)
	b := NewNoisySearcher(exact, NoisyModel{SearchSigma: 30}, 99).BatchTopKRangeTraced(queries, ranges, 3, nil)
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatalf("query %d: %d vs %d results", i, len(a[i]), len(b[i]))
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Errorf("query %d result %d: %+v vs %+v", i, j, a[i][j], b[i][j])
			}
		}
	}
}

func TestChipSpecCapacity(t *testing.T) {
	spec := DefaultChipSpec()
	if spec.CapacityBits() != 9_000_000 {
		t.Errorf("capacity = %d", spec.CapacityBits())
	}
	if spec.DensityVsSLC() != 3 {
		t.Errorf("density vs SLC = %v", spec.DensityVsSLC())
	}
	if spec.DensityVsSRAM() != 9 {
		t.Errorf("density vs SRAM = %v", spec.DensityVsSRAM())
	}
	// 8192-dim HVs at 3 bits/cell: 2731 cells each -> 1098 HVs.
	if got := spec.HypervectorsStorable(8192); got != 3_000_000/2731 {
		t.Errorf("HVs storable = %d", got)
	}
	if spec.HypervectorsStorable(0) != 0 {
		t.Error("zero dimension not handled")
	}
	// Differential search storage: 2 cells per dim.
	if got := spec.DifferentialReferencesStorable(8192); got != 3_000_000/16384 {
		t.Errorf("differential refs = %d", got)
	}
	if spec.DifferentialReferencesStorable(-1) != 0 {
		t.Error("negative dimension not handled")
	}
	if spec.String() == "" {
		t.Error("empty String")
	}
}

func TestThroughputComparison(t *testing.T) {
	tc := DefaultThroughputComparison()
	if tc.RowSpeedup() != 16 {
		t.Errorf("row speedup = %v, want 16 (64 rows vs 4)", tc.RowSpeedup())
	}
}

func TestStorageDensityTriplesStorableHVs(t *testing.T) {
	slc := ChipSpec{TotalCells: 3_000_000, BitsPerCell: 1, SLCvsSRAMArea: 3}
	mlc := DefaultChipSpec()
	d := 8190 // divisible by 1 and 3 for an exact ratio
	ratio := float64(mlc.HypervectorsStorable(d)) / float64(slc.HypervectorsStorable(d))
	if math.Abs(ratio-3) > 0.01 {
		t.Errorf("MLC/SLC storable ratio = %v, want 3", ratio)
	}
}
