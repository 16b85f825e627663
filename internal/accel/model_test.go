package accel

import (
	"math"
	"testing"
	"time"
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

func TestChipSpecCapacity(t *testing.T) {
	spec := DefaultChipSpec()
	if bits := spec.TotalCells * spec.BitsPerCell; bits != 9_000_000 {
		t.Errorf("capacity = %d bits", bits)
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
