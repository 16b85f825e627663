package rram

import (
	"fmt"
	"time"
)

// CrossbarConfig shapes an in-memory-compute array.
type CrossbarConfig struct {
	// Rows is the number of word lines. With differential weight
	// mapping each weight consumes two rows, so Rows/2 weights fit
	// per column.
	Rows int
	// Cols is the number of columns (source lines / outputs).
	Cols int
	// ADCBits is the resolution of the column ADC.
	ADCBits int
	// MaxActiveRows bounds how many differential weight pairs may be
	// activated in one MVM cycle (the paper's chip drives up to 64
	// pairs; §5.2.2).
	MaxActiveRows int
	// WeightBits is the weight precision in bits per cell: weights in
	// [-2^(b-1), +2^(b-1)] map onto the conductance range, so higher
	// precision shrinks the conductance swing per unit weight and
	// raises relative analog error (the mechanism behind Fig. 9's
	// ordering of 1/2/3 bits per cell).
	WeightBits int
	// SenseNoiseSigma is the voltage-referred noise of the sense
	// amplifier and ADC input, as a fraction of the full-scale Vpulse
	// swing. Because Eq. 5 normalizes the MAC by the number of
	// activated rows N, a fixed voltage noise costs N·Wmax in weight
	// units — the mechanism that makes computation error grow with
	// activated rows in Fig. 9. Zero selects the default; use a
	// negative value to disable.
	SenseNoiseSigma float64
}

// DefaultSenseNoiseSigma is the voltage-referred sensing noise used
// when SenseNoiseSigma is zero: ~0.4% of full scale, typical of
// open-circuit voltage sensing with a shared column ADC.
const DefaultSenseNoiseSigma = 0.004

// senseSigma resolves the configured sensing noise.
func (c CrossbarConfig) senseSigma() float64 {
	if c.SenseNoiseSigma < 0 {
		return 0
	}
	if c.SenseNoiseSigma == 0 {
		return DefaultSenseNoiseSigma
	}
	return c.SenseNoiseSigma
}

// WeightMax returns the largest representable weight magnitude.
func (c CrossbarConfig) WeightMax() float64 {
	b := c.WeightBits
	if b < 1 {
		b = 1
	}
	if b > 3 {
		b = 3
	}
	return float64(int(1) << uint(b-1))
}

// Crossbar is a 1T1R array with differential weight mapping: weight
// W_i of column j occupies the cell pair (2i, 2i+1) in column j with
// conductances per Eqs. 2–3:
//
//	g+ = (1 + W/Wmax)/2 * gmax
//	g- = (1 - W/Wmax)/2 * gmax
type Crossbar struct {
	cfg    CrossbarConfig
	dev    *Device
	cells  [][]Cell // [row][col]
	nPairs int
}

// NewCrossbar allocates an array backed by the device simulator.
func NewCrossbar(cfg CrossbarConfig, dev *Device) (*Crossbar, error) {
	if cfg.Rows < 2 || cfg.Rows%2 != 0 {
		return nil, fmt.Errorf("rram: rows must be positive and even, got %d", cfg.Rows)
	}
	if cfg.Cols < 1 {
		return nil, fmt.Errorf("rram: cols must be positive, got %d", cfg.Cols)
	}
	if cfg.ADCBits < 1 || cfg.ADCBits > 16 {
		return nil, fmt.Errorf("rram: ADC bits %d out of range", cfg.ADCBits)
	}
	if cfg.MaxActiveRows < 1 {
		cfg.MaxActiveRows = cfg.Rows / 2
	}
	if cfg.MaxActiveRows > cfg.Rows/2 {
		cfg.MaxActiveRows = cfg.Rows / 2
	}
	cells := make([][]Cell, cfg.Rows)
	for r := range cells {
		cells[r] = make([]Cell, cfg.Cols)
	}
	return &Crossbar{cfg: cfg, dev: dev, cells: cells, nPairs: cfg.Rows / 2}, nil
}

// ProgramWeights writes a weight matrix into the array: weights[i][j]
// is the weight at differential pair i, column j, with magnitudes
// clamped to ±WeightMax. Missing trailing rows/cols stay unprogrammed.
func (x *Crossbar) ProgramWeights(weights [][]float64) error {
	if len(weights) > x.nPairs {
		return fmt.Errorf("rram: %d weight rows exceed %d pairs", len(weights), x.nPairs)
	}
	wmax := x.cfg.WeightMax()
	gmax := x.dev.cfg.GMax
	for i, row := range weights {
		if len(row) > x.cfg.Cols {
			return fmt.Errorf("rram: weight row %d has %d cols, max %d", i, len(row), x.cfg.Cols)
		}
		for j, w := range row {
			if w > wmax {
				w = wmax
			}
			if w < -wmax {
				w = -wmax
			}
			gp := 0.5 * (1 + w/wmax) * gmax // Eq. 2
			gn := 0.5 * (1 - w/wmax) * gmax // Eq. 3
			x.dev.Program(&x.cells[2*i][j], gp)
			x.dev.Program(&x.cells[2*i+1][j], gn)
		}
	}
	return nil
}

// MVM performs one in-memory matrix-vector multiplication cycle over
// the differential pairs [pairLo, pairLo+n) with bipolar-or-analog
// inputs x (len n, |x| ≤ 1 after scaling by the caller), read at the
// given time since programming. It returns the digitized MAC estimate
// per column, in weight units (the ideal value is Σ x_i · W_i).
//
// The analog chain follows Eq. 5: the steady-state SL voltage is
// Vref + Σ x_i (g+_i − g−_i) / (N·gmax) · Vpulse, i.e. the MAC is
// normalized by the number of activated rows; the ADC digitizes the
// ±Vpulse swing with ADCBits resolution, so quantization error in
// weight units scales with N·Wmax / 2^ADCBits — the root cause of the
// error growth with activated rows in Fig. 9.
func (x *Crossbar) MVM(pairLo int, inputs []float64, cols []int, elapsed time.Duration) ([]float64, error) {
	n := len(inputs)
	if n == 0 {
		return nil, fmt.Errorf("rram: empty input vector")
	}
	if n > x.cfg.MaxActiveRows {
		return nil, fmt.Errorf("rram: %d active rows exceed limit %d", n, x.cfg.MaxActiveRows)
	}
	if pairLo < 0 || pairLo+n > x.nPairs {
		return nil, fmt.Errorf("rram: pair range [%d,%d) outside [0,%d)", pairLo, pairLo+n, x.nPairs)
	}
	if cols == nil {
		cols = make([]int, x.cfg.Cols)
		for j := range cols {
			cols[j] = j
		}
	}
	gmax := x.dev.cfg.GMax
	wmax := x.cfg.WeightMax()
	nF := float64(n)
	out := make([]float64, len(cols))
	for oi, j := range cols {
		if j < 0 || j >= x.cfg.Cols {
			return nil, fmt.Errorf("rram: column %d out of range", j)
		}
		// Charge accumulation on the SL capacitor (Eq. 4/5): the
		// normalized differential current sum.
		var acc float64
		for i := 0; i < n; i++ {
			gp := x.dev.Conductance(&x.cells[2*(pairLo+i)][j], elapsed)
			gn := x.dev.Conductance(&x.cells[2*(pairLo+i)+1][j], elapsed)
			acc += inputs[i] * (gp - gn)
		}
		v := acc / (nF * gmax) // ∈ ~[-1, 1], Eq. 5 normalized by N·gmax
		// Sense-amplifier noise, fixed in the voltage domain.
		if s := x.cfg.senseSigma(); s > 0 {
			v += x.dev.rng.NormFloat64() * s
		}
		// ADC: uniform quantization of the ±full-scale swing.
		codes := float64(int(1) << uint(x.cfg.ADCBits))
		if v > 1 {
			v = 1
		}
		if v < -1 {
			v = -1
		}
		q := (v + 1) / 2 * (codes - 1)
		q = float64(int(q + 0.5))
		v = q/(codes-1)*2 - 1
		// Back to weight units: multiply by N·Wmax.
		out[oi] = v * nF * wmax
	}
	return out, nil
}

// IdealMVM returns the noise-free digital MAC Σ x_i W_i per requested
// column using the programmed target conductances, for error
// measurement against the analog path.
func (x *Crossbar) IdealMVM(pairLo int, inputs []float64, cols []int) ([]float64, error) {
	n := len(inputs)
	if pairLo < 0 || pairLo+n > x.nPairs {
		return nil, fmt.Errorf("rram: pair range [%d,%d) outside [0,%d)", pairLo, pairLo+n, x.nPairs)
	}
	if cols == nil {
		cols = make([]int, x.cfg.Cols)
		for j := range cols {
			cols[j] = j
		}
	}
	gmax := x.dev.cfg.GMax
	wmax := x.cfg.WeightMax()
	out := make([]float64, len(cols))
	for oi, j := range cols {
		var acc float64
		for i := 0; i < n; i++ {
			gp := x.cells[2*(pairLo+i)][j].target
			gn := x.cells[2*(pairLo+i)+1][j].target
			acc += inputs[i] * (gp - gn)
		}
		out[oi] = acc / gmax * wmax
	}
	return out, nil
}
