package accel

import "fmt"

// ChipSpec models the fabricated chip's capacity (§5.1.1: 130 nm, 3
// million RRAM cells) and derives the storage-density comparison
// behind the paper's "3x better storage capacity per area" claim.
type ChipSpec struct {
	// TotalCells is the RRAM cell count (paper: 3e6).
	TotalCells int
	// BitsPerCell is the MLC density (1–3).
	BitsPerCell int
	// SLCvsSRAMArea is the areal density advantage of SLC RRAM over
	// high-density SRAM in the same node (paper cites 3x in TSMC 22nm
	// [8]).
	SLCvsSRAMArea float64
}

// DefaultChipSpec returns the paper's chip at 3 bits per cell.
func DefaultChipSpec() ChipSpec {
	return ChipSpec{TotalCells: 3_000_000, BitsPerCell: 3, SLCvsSRAMArea: 3}
}

// HypervectorsStorable returns how many D-dimensional binary
// hypervectors fit in non-differential storage.
func (c ChipSpec) HypervectorsStorable(d int) int {
	if d <= 0 {
		return 0
	}
	cellsPer := (d + c.BitsPerCell - 1) / c.BitsPerCell
	return c.TotalCells / cellsPer
}

// DensityVsSLC returns the storage-capacity improvement over an SLC
// configuration of the same cell count: exactly BitsPerCell.
func (c ChipSpec) DensityVsSLC() float64 {
	return float64(c.BitsPerCell)
}

// DensityVsSRAM returns the areal bit-density advantage over
// high-density SRAM: the SLC area factor times bits per cell.
func (c ChipSpec) DensityVsSRAM() float64 {
	return c.SLCvsSRAMArea * float64(c.BitsPerCell)
}

// String summarizes the chip.
func (c ChipSpec) String() string {
	return fmt.Sprintf("ChipSpec{%d cells, %d bits/cell, %.0fx vs SLC, %.0fx vs SRAM}",
		c.TotalCells, c.BitsPerCell, c.DensityVsSLC(), c.DensityVsSRAM())
}

// ThroughputComparison quantifies §5.2.2's comparison against the
// state-of-the-art MLC in-memory macro [13]: activated rows times
// levels-per-cell relative to the prior work's 4 rows at 3 levels.
type ThroughputComparison struct {
	// ThisRows and ThisLevels describe this design's operating point.
	ThisRows, ThisLevels int
	// PriorRows and PriorLevels describe the comparison design.
	PriorRows, PriorLevels int
}

// DefaultThroughputComparison returns the paper's numbers: 64 rows at
// 8 levels vs 4 rows at 3 levels.
func DefaultThroughputComparison() ThroughputComparison {
	return ThroughputComparison{ThisRows: 64, ThisLevels: 8, PriorRows: 4, PriorLevels: 3}
}

// RowSpeedup returns the concurrent-row throughput ratio (paper: 16x).
func (t ThroughputComparison) RowSpeedup() float64 {
	return float64(t.ThisRows) / float64(t.PriorRows)
}
