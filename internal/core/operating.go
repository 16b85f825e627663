package core

import (
	"fmt"
	"time"

	"repro/internal/hdc"
)

// OperatingPoint is one point of the paper's design space (§4, §5.2):
// the hypervector space the engine encodes in (D, Q, NumChunks,
// IDPrecision, NumBins, Seed) and the chip parameters that only the
// cell-level simulation (internal/accel) reads. Every index stores one
// in its params JSON, so the field names and their order are part of
// the index format.
type OperatingPoint struct {
	// D is the hypervector dimension (paper: 8192).
	D int
	// Q is the number of intensity quantization levels (16–32).
	Q int
	// NumChunks is the chunk count of the chunked level set (§4.2.1).
	NumChunks int
	// IDPrecision is the multi-bit ID hypervector precision (1–3 bits,
	// §4.2.2).
	IDPrecision int
	// NumBins is the m/z bin count (item memory size).
	NumBins int
	// BitsPerCell is the MLC storage density (1–3).
	BitsPerCell int
	// ActiveRows is the number of concurrently driven differential
	// pairs (paper setting: 64 with 8-level cells).
	ActiveRows int
	// ADCBits is the column ADC resolution.
	ADCBits int
	// ArrayCols is the number of columns per physical array.
	ArrayCols int
	// Elapsed is the time since reference programming at which
	// computations read the cells (the paper collects compute data at
	// least 2 hours after programming).
	Elapsed time.Duration
	// Seed drives all randomness (item memories and device noise).
	Seed int64
}

// DefaultOperatingPoint returns the paper's main operating point:
// D=8k, 3-bit ID precision, 8-level cells, 64 activated rows.
func DefaultOperatingPoint() OperatingPoint {
	return OperatingPoint{
		D:           8192,
		Q:           16,
		NumChunks:   256,
		IDPrecision: 3,
		NumBins:     1399,
		BitsPerCell: 3,
		ActiveRows:  64,
		ADCBits:     8,
		ArrayCols:   256,
		Elapsed:     2 * time.Hour,
		Seed:        1,
	}
}

// NumChunksFor is the command-line tools' chunk count at dimension d:
// 32-dimension chunks, and never fewer than 32 of them.
func NumChunksFor(d int) int { return max(d/32, 32) }

// Validate rejects an operating point no encoder or chip can take.
func (op OperatingPoint) Validate() error {
	switch {
	case op.D <= 0 || op.NumBins <= 0:
		return fmt.Errorf("core: bad shape D=%d bins=%d", op.D, op.NumBins)
	case op.ActiveRows < 1:
		return fmt.Errorf("core: ActiveRows %d < 1", op.ActiveRows)
	case op.BitsPerCell < 1 || op.BitsPerCell > 3:
		return fmt.Errorf("core: BitsPerCell %d outside 1..3", op.BitsPerCell)
	}
	return nil
}

// NewEncoderComponents draws the hypervector space of an operating
// point: the item memory from Seed and the chunked level set from
// Seed+1. It is the one place they are drawn, for the exact encoder
// and the simulated chip's alike.
func NewEncoderComponents(op OperatingPoint) (*hdc.ItemMemory, *hdc.ChunkedLevelSet, error) {
	if err := op.Validate(); err != nil {
		return nil, nil, err
	}
	ids := hdc.NewItemMemory(op.D, op.NumBins, op.IDPrecision, op.Seed)
	levels := hdc.NewChunkedLevelSet(op.D, op.Q, op.NumChunks, op.Seed+1)
	return ids, levels, nil
}

// NewEncoder builds the exact ID-Level query/reference encoder,
// deterministically from the operating point.
func NewEncoder(op OperatingPoint) (*hdc.Encoder, error) {
	ids, levels, err := NewEncoderComponents(op)
	if err != nil {
		return nil, err
	}
	return hdc.NewEncoder(ids, levels)
}
