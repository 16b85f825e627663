// Package rram is a Monte-Carlo simulator of the paper's fabricated
// multi-level-cell RRAM chip (§2.2, §5.1.1, §5.2): programmable
// conductance cells with write noise, conductance relaxation over
// time, and read noise; crossbar arrays performing matrix-vector
// multiplication with differential weight mapping (Eqs. 2–3) and
// open-circuit voltage sensing (Eq. 5) followed by an ADC; and the
// dense non-differential n-bit/cell hypervector storage of §4.3.
//
// The simulator replaces the physical chip: every error phenomenon the
// paper measures (storage bit errors over time — Fig. 7/8; encoding
// bit flips and search RMSE vs activated rows — Fig. 9) emerges from
// the same conductance-domain noise processes rather than being
// injected at the digital level.
package rram

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// DeviceConfig holds the calibration of the RRAM device model. The
// defaults are tuned so the digital-visible error rates land in the
// bands the paper reports for its 130 nm chip (Fig. 7: ~0% / ~2% /
// ~12% storage BER at one day for 1/2/3 bits per cell).
type DeviceConfig struct {
	// GMax is the maximum (fully on) conductance in microsiemens.
	GMax float64
	// ProgramSigma is the write-noise standard deviation in uS,
	// present immediately after program-and-verify.
	ProgramSigma float64
	// RelaxSigmaInf is the asymptotic conductance-relaxation spread in
	// uS reached after the relaxation transient completes (Fig. 1b).
	RelaxSigmaInf float64
	// RelaxTau is the relaxation time constant.
	RelaxTau time.Duration
	// RelaxDriftFrac is the deterministic fractional downward drift of
	// conductance at t → ∞ (conductance decays slightly).
	RelaxDriftFrac float64
	// ReadSigma is the per-read conductance noise in uS.
	ReadSigma float64
	// MidStateFactor scales the extra instability of intermediate
	// conductance states: fully-on and fully-off states are stable,
	// while analog mid-levels suffer stronger relaxation (visible in
	// Fig. 8, where interior level distributions widen the most). The
	// noise multiplier is 1 + MidStateFactor·4·(g/gmax)·(1 − g/gmax).
	MidStateFactor float64
}

// DefaultDeviceConfig returns the calibrated device model.
func DefaultDeviceConfig() DeviceConfig {
	return DeviceConfig{
		GMax:           50.0, // Fig. 8 x-axis spans 0–50 uS
		ProgramSigma:   0.7,
		RelaxSigmaInf:  1.7,
		RelaxTau:       25 * time.Minute,
		RelaxDriftFrac: 0.015,
		ReadSigma:      0.3,
		MidStateFactor: 1.0,
	}
}

// Cell is a single programmable RRAM device. A cell records its target
// conductance and the noise realizations drawn at program time; its
// observable conductance is a deterministic function of elapsed time
// since programming, so repeated reads at the same time agree up to
// read noise.
type Cell struct {
	// target is the intended conductance in uS.
	target float64
	// progErr is the frozen write-noise realization in uS.
	progErr float64
	// relaxErr is the frozen asymptotic relaxation realization in uS.
	relaxErr float64
	// programmed reports whether the cell holds a value.
	programmed bool
}

// Device simulates a population of RRAM cells under one configuration.
type Device struct {
	cfg DeviceConfig
	rng *rand.Rand
}

// NewDevice creates a device simulator with deterministic randomness.
func NewDevice(cfg DeviceConfig, seed int64) *Device {
	if cfg.GMax <= 0 {
		panic(fmt.Sprintf("rram: non-positive GMax %v", cfg.GMax))
	}
	return &Device{cfg: cfg, rng: rand.New(rand.NewSource(seed))}
}

// Program writes a target conductance (uS) into the cell, drawing
// fresh write-noise and relaxation realizations. Targets are clamped
// to [0, GMax].
func (d *Device) Program(c *Cell, target float64) {
	if target < 0 {
		target = 0
	}
	if target > d.cfg.GMax {
		target = d.cfg.GMax
	}
	c.target = target
	// Intermediate analog states are less stable than the on/off
	// extremes; both write precision and relaxation spread degrade
	// toward the middle of the conductance range.
	frac := target / d.cfg.GMax
	instab := 1 + d.cfg.MidStateFactor*4*frac*(1-frac)
	c.progErr = d.rng.NormFloat64() * d.cfg.ProgramSigma * instab
	c.relaxErr = d.rng.NormFloat64()*d.cfg.RelaxSigmaInf*instab -
		d.cfg.RelaxDriftFrac*target
	c.programmed = true
}

// relaxFraction returns how much of the asymptotic relaxation has
// developed after elapsed time: 0 right after programming, →1 as
// t >> tau.
func (d *Device) relaxFraction(elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	tau := d.cfg.RelaxTau.Seconds()
	if tau <= 0 {
		return 1
	}
	return 1 - math.Exp(-elapsed.Seconds()/tau)
}

// Conductance returns the observable conductance of the cell at the
// given time since programming, including read noise. Unprogrammed
// cells read as fully off (0 uS plus read noise, clamped at 0).
func (d *Device) Conductance(c *Cell, elapsed time.Duration) float64 {
	g := c.target
	if c.programmed {
		f := d.relaxFraction(elapsed)
		// Relaxation spread develops with sqrt of the variance ramp so
		// the *variance* follows the exponential transient.
		g += c.progErr + c.relaxErr*math.Sqrt(f)
	}
	g += d.rng.NormFloat64() * d.cfg.ReadSigma
	if g < 0 {
		g = 0
	}
	if g > d.cfg.GMax*1.25 { // physical ceiling slightly above GMax
		g = d.cfg.GMax * 1.25
	}
	return g
}

// LevelGrid describes an n-level conductance quantization of [0, GMax]:
// level L targets conductance L/(levels-1) * GMax.
type LevelGrid struct {
	// Levels is the number of conductance levels (2, 4 or 8).
	Levels int
	// GMax is the top conductance in uS.
	GMax float64
}

// NewLevelGrid builds an n-level grid over the device's range.
func NewLevelGrid(levels int, gmax float64) LevelGrid {
	if levels < 2 {
		levels = 2
	}
	return LevelGrid{Levels: levels, GMax: gmax}
}

// Target returns the conductance target of level L.
func (g LevelGrid) Target(level int) float64 {
	if level < 0 {
		level = 0
	}
	if level >= g.Levels {
		level = g.Levels - 1
	}
	return float64(level) / float64(g.Levels-1) * g.GMax
}

// Decide returns the nearest level for an observed conductance, the
// maximum-likelihood decision with mid-point thresholds.
func (g LevelGrid) Decide(conductance float64) int {
	step := g.GMax / float64(g.Levels-1)
	l := int(math.Round(conductance / step))
	if l < 0 {
		l = 0
	}
	if l >= g.Levels {
		l = g.Levels - 1
	}
	return l
}

// Histogram bins observed conductances of a cell population read at
// the given elapsed time, reproducing Fig. 8. Edges span [0, GMax*1.25]
// in numBins equal bins; returned counts have length numBins.
func Histogram(d *Device, cells []Cell, elapsed time.Duration, numBins int) []int {
	if numBins < 1 {
		numBins = 1
	}
	counts := make([]int, numBins)
	top := d.cfg.GMax * 1.25
	for i := range cells {
		g := d.Conductance(&cells[i], elapsed)
		b := int(g / top * float64(numBins))
		if b >= numBins {
			b = numBins - 1
		}
		counts[b]++
	}
	return counts
}
