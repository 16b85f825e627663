// Package accel maps the HD OMS algorithm onto the simulated MLC RRAM
// chip (§4): in-memory ID-Level encoding using the chunked level-
// hypervector transform of §4.2.1 (element-wise MAC reshaped into
// MVM), in-memory Hamming similarity search with differential weight
// mapping (§4.1), and a chip floorplan/capacity model.
//
// The operating point (core.OperatingPoint) and the one draw of its
// hypervector space (core.NewEncoderComponents) belong to core, so
// accel imports core and nothing that serves imports accel or rram.
// The HW encoder and searcher drive the cell-accurate rram.Crossbar
// simulator to characterize hardware error rates (Fig. 9).
// Characterize condenses them into a NoisyModel, which core.BuildNoisy
// replays at the algorithm level — how the paper itself evaluates
// end-to-end search quality at dataset scale (Fig. 10, 11, 13):
// measuring the chip once, then injecting the measured error
// statistics.
package accel

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/hdc"
	"repro/internal/rram"
	"repro/internal/spectrum"
)

// HWEncoder performs ID-Level encoding in memory (§4.2): peak ID
// hypervectors are programmed as multi-bit weights, one differential
// row pair per peak, and level inputs are applied chunk by chunk so
// each cycle produces a full chunk of MAC outputs, MVM-style.
type HWEncoder struct {
	cfg    core.OperatingPoint
	levels *hdc.ChunkedLevelSet
	ideal  *hdc.Encoder
	dev    *rram.Device
}

// NewHWEncoder builds the in-memory encoder.
func NewHWEncoder(cfg core.OperatingPoint) (*HWEncoder, error) {
	ids, levels, err := core.NewEncoderComponents(cfg)
	if err != nil {
		return nil, err
	}
	ideal, err := hdc.NewEncoder(ids, levels)
	if err != nil {
		return nil, err
	}
	if cfg.ArrayCols < 1 {
		cfg.ArrayCols = 256 // the chip's array width
	}
	return &HWEncoder{
		cfg:    cfg,
		levels: levels,
		ideal:  ideal,
		dev:    rram.NewDevice(rram.DefaultDeviceConfig(), cfg.Seed+2),
	}, nil
}

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
	for lo := 0; lo < len(peaks); lo += e.cfg.ActiveRows {
		batch := peaks[lo:min(lo+e.cfg.ActiveRows, len(peaks))]
		if err := e.encodeBatch(batch, acc); err != nil {
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
func (e *HWEncoder) encodeBatch(batch []spectrum.QuantizedPeak, acc []float64) error {
	n := len(batch)
	// The item memory unpacks an ID per call; do it once per peak, not
	// once per column tile.
	ids := make([]hdc.IntHV, n)
	for p, pk := range batch {
		if pk.Bin < 0 || pk.Bin >= e.ideal.IDs.NumBins() {
			return fmt.Errorf("accel: peak bin %d out of range", pk.Bin)
		}
		ids[p] = e.ideal.IDs.ID(pk.Bin)
	}
	// Column tiling: the D dimensions are spread across
	// ceil(D/ArrayCols) physical arrays; all share the same row weights
	// (peak IDs).
	for tileLo := 0; tileLo < e.cfg.D; tileLo += e.cfg.ArrayCols {
		tileHi := min(tileLo+e.cfg.ArrayCols, e.cfg.D)
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
			lo := max(cLo, tileLo)
			hi := min(cHi, tileHi)
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
	cfg  core.OperatingPoint
	refs []hdc.BinaryHV
	dev  *rram.Device
	// tiles[g][t] covers row group g (ActiveRows dims) and column tile
	// t (ArrayCols references).
	tiles [][]*rram.Crossbar
}

// NewHWSearcher programs the reference set into crossbar tiles.
func NewHWSearcher(cfg core.OperatingPoint, refs []hdc.BinaryHV) (*HWSearcher, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.ArrayCols < 1 {
		cfg.ArrayCols = 256 // the chip's array width
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
	numGroups := (cfg.D + cfg.ActiveRows - 1) / cfg.ActiveRows
	numTiles := (len(refs) + cfg.ArrayCols - 1) / cfg.ArrayCols
	s.tiles = make([][]*rram.Crossbar, numGroups)
	for g := 0; g < numGroups; g++ {
		s.tiles[g] = make([]*rram.Crossbar, numTiles)
		dimLo := g * cfg.ActiveRows
		dimHi := min(dimLo+cfg.ActiveRows, cfg.D)
		for t := 0; t < numTiles; t++ {
			refLo := t * cfg.ArrayCols
			refHi := min(refLo+cfg.ArrayCols, len(refs))
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

// DotProducts returns the in-memory estimate of the bipolar dot
// product between the query and every reference.
func (s *HWSearcher) DotProducts(q hdc.BinaryHV) ([]float64, error) {
	if q.D != s.cfg.D {
		return nil, fmt.Errorf("accel: query D=%d, want %d", q.D, s.cfg.D)
	}
	dots := make([]float64, len(s.refs))
	for g, row := range s.tiles {
		dimLo := g * s.cfg.ActiveRows
		dimHi := min(dimLo+s.cfg.ActiveRows, s.cfg.D)
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
