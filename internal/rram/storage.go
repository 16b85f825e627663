package rram

import (
	"fmt"
	"time"

	"repro/internal/hdc"
)

// HVStore is the dense non-differential hypervector storage of §4.3:
// a D-bit binary hypervector is reshaped into segments of n bits, each
// segment mapped to an unsigned integer h' ∈ [0, 2^n-1] and stored as
// one cell's conductance g = h'/h'max · gmax. One cell therefore holds
// n hypervector dimensions, tripling density at n=3 versus SLC.
type HVStore struct {
	dev  *Device
	grid LevelGrid
	bits int
	d    int
	gray bool
	// cells[v] holds ceil(D/bits) cells for hypervector v.
	cells [][]Cell
}

// NewHVStore creates storage for hypervectors of dimension d at the
// given bits per cell (1–3), using the paper's plain binary
// level-to-bits mapping.
func NewHVStore(dev *Device, d, bitsPerCell int) (*HVStore, error) {
	return newHVStore(dev, d, bitsPerCell, false)
}

// NewGrayHVStore is the Gray-coded variant: adjacent conductance
// levels differ in exactly one bit, so the dominant error mode (a
// one-level decision slip) flips one stored bit instead of up to
// bitsPerCell. It is an ablation on the paper's §4.3 mapping; the
// paper uses plain binary.
func NewGrayHVStore(dev *Device, d, bitsPerCell int) (*HVStore, error) {
	return newHVStore(dev, d, bitsPerCell, true)
}

func newHVStore(dev *Device, d, bitsPerCell int, gray bool) (*HVStore, error) {
	if d <= 0 {
		return nil, fmt.Errorf("rram: non-positive dimension %d", d)
	}
	if bitsPerCell < 1 || bitsPerCell > 3 {
		return nil, fmt.Errorf("rram: bits per cell %d outside 1..3", bitsPerCell)
	}
	return &HVStore{
		dev:  dev,
		grid: NewLevelGrid(1<<uint(bitsPerCell), dev.cfg.GMax),
		bits: bitsPerCell,
		d:    d,
		gray: gray,
	}, nil
}

// toGray converts a binary value to its Gray code.
func toGray(v int) int { return v ^ (v >> 1) }

// fromGray converts a Gray code back to binary.
func fromGray(g int) int {
	v := 0
	for ; g > 0; g >>= 1 {
		v ^= g
	}
	return v
}

// CellsPerHV returns how many cells one hypervector occupies.
func (s *HVStore) CellsPerHV() int { return (s.d + s.bits - 1) / s.bits }

// Store programs a hypervector into fresh cells and returns its index.
func (s *HVStore) Store(h hdc.BinaryHV) (int, error) {
	if h.D != s.d {
		return 0, fmt.Errorf("rram: hypervector D=%d, store D=%d", h.D, s.d)
	}
	cells := make([]Cell, s.CellsPerHV())
	for c := range cells {
		val := 0
		for b := 0; b < s.bits; b++ {
			i := c*s.bits + b
			if i >= s.d {
				break
			}
			if h.Bit(i) > 0 {
				val |= 1 << uint(b)
			}
		}
		level := val
		if s.gray {
			// Store the level whose Gray code equals the data bits, so
			// a one-level read slip corrupts exactly one bit.
			level = fromGray(val)
		}
		s.dev.Program(&cells[c], s.grid.Target(level))
	}
	s.cells = append(s.cells, cells)
	return len(s.cells) - 1, nil
}

// Load reads hypervector v back at the given time since programming,
// decoding each cell to its nearest level.
func (s *HVStore) Load(v int, elapsed time.Duration) (hdc.BinaryHV, error) {
	if v < 0 || v >= len(s.cells) {
		return hdc.BinaryHV{}, fmt.Errorf("rram: hypervector %d not stored", v)
	}
	h := hdc.NewBinaryHV(s.d)
	for c, cell := range s.cells[v] {
		g := s.dev.Conductance(&cell, elapsed)
		val := s.grid.Decide(g)
		if s.gray {
			val = toGray(val)
		}
		for b := 0; b < s.bits; b++ {
			i := c*s.bits + b
			if i >= s.d {
				break
			}
			h.SetBit(i, val&(1<<uint(b)) != 0)
		}
	}
	return h, nil
}

// BitErrorRate stores then reloads count random hypervectors at the
// given elapsed time and returns the fraction of flipped bits — the
// measurement behind Fig. 7.
func BitErrorRate(dev *Device, d, bitsPerCell, count int, elapsed time.Duration) (float64, error) {
	store, err := NewHVStore(dev, d, bitsPerCell)
	if err != nil {
		return 0, err
	}
	return storeBER(dev, store, d, count, elapsed)
}

// GrayBitErrorRate is BitErrorRate under the Gray-coded mapping.
func GrayBitErrorRate(dev *Device, d, bitsPerCell, count int, elapsed time.Duration) (float64, error) {
	store, err := NewGrayHVStore(dev, d, bitsPerCell)
	if err != nil {
		return 0, err
	}
	return storeBER(dev, store, d, count, elapsed)
}

func storeBER(dev *Device, store *HVStore, d, count int, elapsed time.Duration) (float64, error) {
	orig := make([]hdc.BinaryHV, count)
	for i := range orig {
		orig[i] = hdc.RandomBinaryHV(d, dev.rng)
		if _, err := store.Store(orig[i]); err != nil {
			return 0, err
		}
	}
	var flipped, total int
	for i := range orig {
		back, err := store.Load(i, elapsed)
		if err != nil {
			return 0, err
		}
		flipped += hdc.HammingDistance(orig[i], back)
		total += d
	}
	if total == 0 {
		return 0, nil
	}
	return float64(flipped) / float64(total), nil
}
