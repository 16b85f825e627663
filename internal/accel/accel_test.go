package accel

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/hdc"
	"repro/internal/spectrum"
)

// smallConfig returns a fast, low-noise test configuration.
func smallConfig() core.OperatingPoint {
	cfg := core.DefaultOperatingPoint()
	cfg.D = 512
	cfg.NumBins = 200
	cfg.NumChunks = 64
	cfg.ADCBits = 8
	cfg.ActiveRows = 32
	cfg.ArrayCols = 128
	cfg.Elapsed = 0
	return cfg
}

func randomPeaks(rng *rand.Rand, n, bins, q int) []spectrum.QuantizedPeak {
	peaks := make([]spectrum.QuantizedPeak, n)
	for i := range peaks {
		peaks[i] = spectrum.QuantizedPeak{Bin: rng.Intn(bins), Level: rng.Intn(q)}
	}
	return peaks
}

func TestConfigValidation(t *testing.T) {
	bad := []core.OperatingPoint{
		{D: 0, NumBins: 10, ActiveRows: 8, BitsPerCell: 1},
		{D: 64, NumBins: 0, ActiveRows: 8, BitsPerCell: 1},
		{D: 64, NumBins: 10, ActiveRows: 0, BitsPerCell: 1},
		{D: 64, NumBins: 10, ActiveRows: 8, BitsPerCell: 0},
		{D: 64, NumBins: 10, ActiveRows: 8, BitsPerCell: 4},
	}
	for i, cfg := range bad {
		if _, err := NewHWEncoder(cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

func TestHWEncoderMatchesIdealAtLowNoise(t *testing.T) {
	cfg := smallConfig()
	cfg.ADCBits = 12 // nearly noise-free digitization
	enc, err := NewHWEncoder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	peaks := randomPeaks(rng, 60, cfg.NumBins, cfg.Q)
	lists := [][]spectrum.QuantizedPeak{peaks}
	ber, err := enc.BitErrorRate(lists)
	if err != nil {
		t.Fatal(err)
	}
	if ber > 0.08 {
		t.Errorf("high-resolution encode BER = %v, want small", ber)
	}
}

func TestHWEncoderEmptyPeaks(t *testing.T) {
	enc, err := NewHWEncoder(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	h, err := enc.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	if h.D != 512 {
		t.Errorf("empty encode D = %d", h.D)
	}
}

func TestHWEncoderRejectsBadBin(t *testing.T) {
	enc, _ := NewHWEncoder(smallConfig())
	_, err := enc.Encode([]spectrum.QuantizedPeak{{Bin: 9999, Level: 0}})
	if err == nil {
		t.Error("bad bin accepted")
	}
}

func TestHWEncoderBERGrowsWithBits(t *testing.T) {
	// Fig. 9a's ordering: more bits per cell -> more encoding errors.
	berFor := func(precision int) float64 {
		cfg := smallConfig()
		cfg.IDPrecision = precision
		cfg.ADCBits = 8
		cfg.Elapsed = 2 * time.Hour
		enc, err := NewHWEncoder(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(2))
		lists := make([][]spectrum.QuantizedPeak, 4)
		for i := range lists {
			lists[i] = randomPeaks(rng, 80, cfg.NumBins, cfg.Q)
		}
		ber, err := enc.BitErrorRate(lists)
		if err != nil {
			t.Fatal(err)
		}
		return ber
	}
	b1, b3 := berFor(1), berFor(3)
	if b3 <= b1 {
		t.Errorf("encode BER ordering: 1bit=%v 3bit=%v", b1, b3)
	}
}

func TestHWSearcherValidation(t *testing.T) {
	cfg := smallConfig()
	if _, err := NewHWSearcher(cfg, nil); err == nil {
		t.Error("empty refs accepted")
	}
	if _, err := NewHWSearcher(cfg, []hdc.BinaryHV{hdc.NewBinaryHV(64)}); err == nil {
		t.Error("wrong-dimension refs accepted")
	}
}

func TestHWSearcherFindsPlantedMatch(t *testing.T) {
	cfg := smallConfig()
	cfg.ADCBits = 8
	rng := rand.New(rand.NewSource(4))
	refs := make([]hdc.BinaryHV, 60)
	for i := range refs {
		refs[i] = hdc.RandomBinaryHV(cfg.D, rng)
	}
	hw, err := NewHWSearcher(cfg, refs)
	if err != nil {
		t.Fatal(err)
	}
	q := refs[37].Clone()
	for _, i := range rng.Perm(cfg.D)[:20] {
		q.SetBit(i, q.Bit(i) < 0)
	}
	dots, err := hw.DotProducts(q)
	if err != nil {
		t.Fatal(err)
	}
	best := 0
	for i, d := range dots {
		if d > dots[best] {
			best = i
		}
	}
	if best != 37 {
		t.Errorf("argmax dot product at %d, want 37", best)
	}
	// The Hamming similarity estimate (dot+D)/2 should be near the true
	// value 512-20=492.
	if sim := (dots[37] + float64(cfg.D)) / 2; sim < 470 || sim > 512 {
		t.Errorf("similarity estimate = %v, want ~492", sim)
	}
}

// TestHWSearcherDefaultArrayCols: an operating point without an array
// width searches as one with the chip's 256 columns, also past the
// first column tile.
func TestHWSearcherDefaultArrayCols(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	refs := make([]hdc.BinaryHV, 300)
	for i := range refs {
		refs[i] = hdc.RandomBinaryHV(512, rng)
	}
	q := hdc.RandomBinaryHV(512, rng)
	var dots [2][]float64
	for i, cols := range []int{0, 256} {
		cfg := smallConfig()
		cfg.ArrayCols = cols
		hw, err := NewHWSearcher(cfg, refs)
		if err != nil {
			t.Fatal(err)
		}
		if dots[i], err = hw.DotProducts(q); err != nil {
			t.Fatal(err)
		}
	}
	for j := range refs {
		if dots[0][j] != dots[1][j] {
			t.Fatalf("reference %d: dot %v without an array width, %v at 256 columns", j, dots[0][j], dots[1][j])
		}
	}
}

func TestHWSearcherQueryDimensionCheck(t *testing.T) {
	cfg := smallConfig()
	rng := rand.New(rand.NewSource(6))
	hw, _ := NewHWSearcher(cfg, []hdc.BinaryHV{hdc.RandomBinaryHV(cfg.D, rng)})
	if _, err := hw.DotProducts(hdc.NewBinaryHV(64)); err == nil {
		t.Error("wrong query dimension accepted")
	}
}

func TestSearchRMSEGrowsWithActiveRows(t *testing.T) {
	// Fig. 9b: normalized search error grows with activated rows.
	rmseAt := func(rows int) float64 {
		cfg := smallConfig()
		cfg.ActiveRows = rows
		cfg.ADCBits = 6
		cfg.Elapsed = 2 * time.Hour
		rng := rand.New(rand.NewSource(7))
		refs := make([]hdc.BinaryHV, 24)
		for i := range refs {
			refs[i] = hdc.RandomBinaryHV(cfg.D, rng)
		}
		hw, err := NewHWSearcher(cfg, refs)
		if err != nil {
			t.Fatal(err)
		}
		queries := make([]hdc.BinaryHV, 6)
		for i := range queries {
			queries[i] = hdc.RandomBinaryHV(cfg.D, rng)
		}
		r, err := hw.SearchRMSE(queries)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	e16, e128 := rmseAt(16), rmseAt(128)
	if e128 <= e16 {
		t.Errorf("search RMSE should grow with rows: 16 -> %v, 128 -> %v", e16, e128)
	}
}
