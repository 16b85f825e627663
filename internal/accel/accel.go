// Package accel maps the HD OMS algorithm onto the simulated MLC RRAM
// chip (§4): in-memory ID-Level encoding using the chunked level-
// hypervector transform of §4.2.1 (element-wise MAC reshaped into
// MVM), in-memory Hamming similarity search with differential weight
// mapping (§4.1), and a chip floorplan/capacity model.
//
// Two execution paths are provided. The exact path drives the
// cell-accurate rram.Crossbar simulator and is used to characterize
// hardware error rates (Fig. 9). The fast path (NoisyModel) replays
// those characterized error rates at the algorithm level, which is how
// the paper itself evaluates end-to-end search quality at dataset
// scale (Fig. 10, 11, 13) — measuring the chip once, then injecting
// the measured error statistics.
package accel

import (
	"fmt"
	"math"
	"time"

	"repro/internal/hdc"
	"repro/internal/rram"
	"repro/internal/spectrum"
)

// Config describes one accelerator operating point.
type Config struct {
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

// DefaultConfig returns the paper's main operating point: D=8k, 3-bit
// ID precision, 8-level cells, 64 activated rows.
func DefaultConfig() Config {
	return Config{
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

func (c Config) validate() error {
	if c.D <= 0 || c.NumBins <= 0 {
		return fmt.Errorf("accel: bad shape D=%d bins=%d", c.D, c.NumBins)
	}
	if c.ActiveRows < 1 {
		return fmt.Errorf("accel: ActiveRows %d < 1", c.ActiveRows)
	}
	if c.BitsPerCell < 1 || c.BitsPerCell > 3 {
		return fmt.Errorf("accel: BitsPerCell %d outside 1..3", c.BitsPerCell)
	}
	return nil
}

// NewEncoderComponents builds the item memory and chunked level set
// for a configuration, shared by the software and hardware encoders.
func NewEncoderComponents(cfg Config) (*hdc.ItemMemory, *hdc.ChunkedLevelSet, error) {
	if err := cfg.validate(); err != nil {
		return nil, nil, err
	}
	ids := hdc.NewItemMemory(cfg.D, cfg.NumBins, cfg.IDPrecision, cfg.Seed)
	levels := hdc.NewChunkedLevelSet(cfg.D, cfg.Q, cfg.NumChunks, cfg.Seed+1)
	return ids, levels, nil
}

// HWEncoder performs ID-Level encoding in memory (§4.2): peak ID
// hypervectors are programmed as multi-bit weights, one differential
// row pair per peak, and level inputs are applied chunk by chunk so
// each cycle produces a full chunk of MAC outputs, MVM-style.
type HWEncoder struct {
	cfg    Config
	ids    *hdc.ItemMemory
	levels *hdc.ChunkedLevelSet
	ideal  *hdc.Encoder
	dev    *rram.Device
}

// NewHWEncoder builds the in-memory encoder.
func NewHWEncoder(cfg Config) (*HWEncoder, error) {
	ids, levels, err := NewEncoderComponents(cfg)
	if err != nil {
		return nil, err
	}
	ideal, err := hdc.NewEncoder(ids, levels)
	if err != nil {
		return nil, err
	}
	return &HWEncoder{
		cfg:    cfg,
		ids:    ids,
		levels: levels,
		ideal:  ideal,
		dev:    rram.NewDevice(rram.DefaultDeviceConfig(), cfg.Seed+2),
	}, nil
}

// Ideal returns the noise-free software encoder over the same item
// memory and level set, for ground-truth comparison.
func (e *HWEncoder) Ideal() *hdc.Encoder { return e.ideal }

// Encode runs the exact in-memory encoding simulation for one
// quantized peak list: peaks are grouped into row batches of at most
// ActiveRows; for each batch a crossbar holds the batch's ID
// hypervectors as weights and each chunk's level values are applied as
// one MVM; chunk outputs accumulate digitally across batches; the
// final accumulator is sign-quantized.
func (e *HWEncoder) Encode(peaks []spectrum.QuantizedPeak) (hdc.BinaryHV, error) {
	if len(peaks) == 0 {
		return hdc.NewBinaryHV(e.cfg.D), nil
	}
	acc := make([]float64, e.cfg.D)
	colTile := e.cfg.ArrayCols
	if colTile < 1 {
		colTile = 256
	}
	for lo := 0; lo < len(peaks); lo += e.cfg.ActiveRows {
		hi := lo + e.cfg.ActiveRows
		if hi > len(peaks) {
			hi = len(peaks)
		}
		batch := peaks[lo:hi]
		if err := e.encodeBatch(batch, acc, colTile); err != nil {
			return hdc.BinaryHV{}, err
		}
	}
	out := hdc.NewBinaryHV(e.cfg.D)
	for i, v := range acc {
		if v > 0 || (v == 0 && i%2 == 0) {
			out.SetBit(i, true)
		}
	}
	return out, nil
}

// encodeBatch programs one row batch of ID weights and accumulates all
// chunk MVMs into acc.
func (e *HWEncoder) encodeBatch(batch []spectrum.QuantizedPeak, acc []float64, colTile int) error {
	n := len(batch)
	// The item memory unpacks an ID per call; do it once per peak, not
	// once per column tile.
	ids := make([]hdc.IntHV, n)
	for p, pk := range batch {
		if pk.Bin < 0 || pk.Bin >= e.ids.NumBins() {
			return fmt.Errorf("accel: peak bin %d out of range", pk.Bin)
		}
		ids[p] = e.ids.ID(pk.Bin)
	}
	// Column tiling: the D dimensions are spread across ceil(D/colTile)
	// physical arrays; all share the same row weights (peak IDs).
	for tileLo := 0; tileLo < e.cfg.D; tileLo += colTile {
		tileHi := tileLo + colTile
		if tileHi > e.cfg.D {
			tileHi = e.cfg.D
		}
		xb, err := rram.NewCrossbar(rram.CrossbarConfig{
			Rows:          2 * e.cfg.ActiveRows,
			Cols:          tileHi - tileLo,
			ADCBits:       e.cfg.ADCBits,
			MaxActiveRows: e.cfg.ActiveRows,
			WeightBits:    e.cfg.IDPrecision,
		}, e.dev)
		if err != nil {
			return err
		}
		weights := make([][]float64, n)
		for p, id := range ids {
			row := make([]float64, tileHi-tileLo)
			for j := tileLo; j < tileHi; j++ {
				row[j-tileLo] = float64(id.Vals[j])
			}
			weights[p] = row
		}
		if err := xb.ProgramWeights(weights); err != nil {
			return err
		}
		// Chunk-by-chunk MVM (§4.2.1): all columns of a chunk receive
		// the same level input values, so one cycle yields the chunk.
		inputs := make([]float64, n)
		for c := 0; c < e.levels.NumChunks(); c++ {
			cLo, cHi := e.levels.ChunkBounds(c)
			// Intersect chunk with this column tile.
			lo := maxInt(cLo, tileLo)
			hi := minInt(cHi, tileHi)
			if lo >= hi {
				continue
			}
			for p, pk := range batch {
				inputs[p] = float64(e.levels.ChunkValue(pk.Level, c))
			}
			cols := make([]int, hi-lo)
			for j := range cols {
				cols[j] = lo - tileLo + j
			}
			out, err := xb.MVM(0, inputs, cols, e.cfg.Elapsed)
			if err != nil {
				return err
			}
			for j, v := range out {
				acc[lo+j] += v
			}
		}
	}
	return nil
}

// BitErrorRate encodes count random peak lists both in memory and
// ideally and returns the fraction of differing output bits — the
// Fig. 9a measurement.
func (e *HWEncoder) BitErrorRate(peakLists [][]spectrum.QuantizedPeak) (float64, error) {
	var flipped, total int
	for _, peaks := range peakLists {
		hw, err := e.Encode(peaks)
		if err != nil {
			return 0, err
		}
		sw, err := e.ideal.Encode(peaks)
		if err != nil {
			return 0, err
		}
		flipped += hdc.HammingDistance(hw, sw)
		total += e.cfg.D
	}
	if total == 0 {
		return 0, nil
	}
	return float64(flipped) / float64(total), nil
}

// HWSearcher performs Hamming similarity search in memory (§4.1):
// reference hypervectors are stored vertically (one per column) as
// differential binary weights, the query is applied as bipolar row
// inputs in groups of ActiveRows, and group MACs accumulate digitally
// into per-reference dot products.
type HWSearcher struct {
	cfg  Config
	refs []hdc.BinaryHV
	dev  *rram.Device
	// tiles[g][t] covers row group g (ActiveRows dims) and column tile
	// t (ArrayCols references).
	tiles [][]*rram.Crossbar
}

// NewHWSearcher programs the reference set into crossbar tiles.
func NewHWSearcher(cfg Config, refs []hdc.BinaryHV) (*HWSearcher, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(refs) == 0 {
		return nil, fmt.Errorf("accel: empty reference set")
	}
	for i, r := range refs {
		if r.D != cfg.D {
			return nil, fmt.Errorf("accel: reference %d has D=%d, want %d", i, r.D, cfg.D)
		}
	}
	s := &HWSearcher{
		cfg:  cfg,
		refs: refs,
		dev:  rram.NewDevice(rram.DefaultDeviceConfig(), cfg.Seed+3),
	}
	colTile := cfg.ArrayCols
	if colTile < 1 {
		colTile = 256
	}
	numGroups := (cfg.D + cfg.ActiveRows - 1) / cfg.ActiveRows
	numTiles := (len(refs) + colTile - 1) / colTile
	s.tiles = make([][]*rram.Crossbar, numGroups)
	for g := 0; g < numGroups; g++ {
		s.tiles[g] = make([]*rram.Crossbar, numTiles)
		dimLo := g * cfg.ActiveRows
		dimHi := minInt(dimLo+cfg.ActiveRows, cfg.D)
		for t := 0; t < numTiles; t++ {
			refLo := t * colTile
			refHi := minInt(refLo+colTile, len(refs))
			xb, err := rram.NewCrossbar(rram.CrossbarConfig{
				Rows:          2 * cfg.ActiveRows,
				Cols:          refHi - refLo,
				ADCBits:       cfg.ADCBits,
				MaxActiveRows: cfg.ActiveRows,
				WeightBits:    cfg.BitsPerCell,
			}, s.dev)
			if err != nil {
				return nil, err
			}
			weights := make([][]float64, dimHi-dimLo)
			for d := dimLo; d < dimHi; d++ {
				row := make([]float64, refHi-refLo)
				for r := refLo; r < refHi; r++ {
					row[r-refLo] = float64(refs[r].Bit(d))
				}
				weights[d-dimLo] = row
			}
			if err := xb.ProgramWeights(weights); err != nil {
				return nil, err
			}
			s.tiles[g][t] = xb
		}
	}
	return s, nil
}

// Len returns the number of stored references.
func (s *HWSearcher) Len() int { return len(s.refs) }

// DotProducts returns the in-memory estimate of the bipolar dot
// product between the query and every reference.
func (s *HWSearcher) DotProducts(q hdc.BinaryHV) ([]float64, error) {
	if q.D != s.cfg.D {
		return nil, fmt.Errorf("accel: query D=%d, want %d", q.D, s.cfg.D)
	}
	dots := make([]float64, len(s.refs))
	for g, row := range s.tiles {
		dimLo := g * s.cfg.ActiveRows
		dimHi := minInt(dimLo+s.cfg.ActiveRows, s.cfg.D)
		inputs := make([]float64, dimHi-dimLo)
		for d := dimLo; d < dimHi; d++ {
			inputs[d-dimLo] = float64(q.Bit(d))
		}
		for t, xb := range row {
			out, err := xb.MVM(0, inputs, nil, s.cfg.Elapsed)
			if err != nil {
				return nil, err
			}
			refLo := t * s.cfg.ArrayCols
			for j, v := range out {
				dots[refLo+j] += v
			}
		}
	}
	return dots, nil
}

// SearchRMSE measures the signal-normalized RMSE between in-memory and
// exact dot products over the given queries — the Fig. 9b measurement.
func (s *HWSearcher) SearchRMSE(queries []hdc.BinaryHV) (float64, error) {
	var se, sw float64
	for _, q := range queries {
		got, err := s.DotProducts(q)
		if err != nil {
			return 0, err
		}
		for i, r := range s.refs {
			want := float64(hdc.Dot(q, r))
			d := got[i] - want
			se += d * d
			sw += want * want
		}
	}
	if sw == 0 {
		return 0, nil
	}
	return math.Sqrt(se / sw), nil
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
