// Package units provides mass-spectrometry mass arithmetic: Dalton and
// ppm quantities, proton/water constants, m/z conversions and tolerance
// windows used for precursor matching in standard and open searches.
package units

import (
	"fmt"
	"math"
)

// Physical constants in Dalton (unified atomic mass units).
const (
	// ProtonMass is the mass of a proton in Da.
	ProtonMass = 1.007276466622
	// WaterMass is the monoisotopic mass of H2O in Da.
	WaterMass = 18.010564684
	// HydrogenMass is the monoisotopic mass of a hydrogen atom in Da.
	HydrogenMass = 1.00782503207
	// AmmoniaMass is the monoisotopic mass of NH3 in Da.
	AmmoniaMass = 17.026549101
	// IsotopeSpacing is the average spacing between isotope peaks in Da.
	IsotopeSpacing = 1.0033548378
)

// Tolerance expresses a symmetric mass tolerance either in absolute
// Dalton or in parts-per-million relative to the reference mass.
type Tolerance struct {
	// Value is the magnitude of the tolerance.
	Value float64
	// PPM reports whether Value is in parts-per-million (true) or
	// Dalton (false).
	PPM bool
}

// Da returns an absolute tolerance of v Dalton.
func Da(v float64) Tolerance { return Tolerance{Value: v} }

// Delta returns the absolute half-width of the tolerance window around
// the reference mass ref (in Da).
func (t Tolerance) Delta(ref float64) float64 {
	if t.PPM {
		return math.Abs(ref) * t.Value * 1e-6
	}
	return t.Value
}

// String formats the tolerance with its unit.
func (t Tolerance) String() string {
	if t.PPM {
		return fmt.Sprintf("%g ppm", t.Value)
	}
	return fmt.Sprintf("%g Da", t.Value)
}

// MassWindow is an asymmetric precursor-mass acceptance interval, used
// to express open-search windows such as [-150, +500] Da.
type MassWindow struct {
	// Lower is the (usually negative) lower offset in Da.
	Lower float64
	// Upper is the upper offset in Da.
	Upper float64
}

// OpenWindow returns the wide precursor window used by open modification
// searches: lower and upper offsets in Da around the reference mass.
func OpenWindow(lower, upper float64) MassWindow {
	if lower > upper {
		lower, upper = upper, lower
	}
	return MassWindow{Lower: lower, Upper: upper}
}

// StandardWindow returns a narrow symmetric window of +/- tol around the
// reference, expressed as a MassWindow.
func StandardWindow(ref float64, tol Tolerance) MassWindow {
	d := tol.Delta(ref)
	return MassWindow{Lower: -d, Upper: +d}
}

// String formats the window as "[lo, hi] Da".
func (w MassWindow) String() string {
	return fmt.Sprintf("[%+g, %+g] Da", w.Lower, w.Upper)
}

// NeutralMassToMZ converts a neutral mass to the m/z observed at the
// given charge state.
func NeutralMassToMZ(mass float64, charge int) float64 {
	if charge <= 0 {
		charge = 1
	}
	return mass/float64(charge) + ProtonMass
}
