// Package spectrum models tandem mass spectra and implements the data
// preprocessing stage of the paper (§3.1): noise filtering by relative
// intensity, top-N peak retention, m/z range restriction, intensity
// normalization, and binning of spectra into vectors whose entries sum
// peak intensities per m/z bin.
package spectrum

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
)

// Peak is a single fragment peak: an m/z position and an intensity.
type Peak struct {
	MZ        float64
	Intensity float64
}

// Spectrum is one tandem (MS/MS) spectrum.
type Spectrum struct {
	// ID identifies the spectrum within its dataset (scan title).
	ID string
	// PrecursorMZ is the precursor ion's mass-to-charge ratio.
	PrecursorMZ float64
	// Charge is the precursor charge state (>= 1).
	Charge int
	// Peaks is the peak list, sorted by ascending m/z.
	Peaks []Peak
	// Peptide optionally records the generating peptide sequence for
	// library spectra and for ground-truth bookkeeping in synthetic
	// data. Empty for unknown spectra.
	Peptide string
	// IsDecoy marks library entries generated from decoy peptides.
	IsDecoy bool
}

// PrecursorMass returns the neutral precursor mass in Da.
func (s *Spectrum) PrecursorMass() float64 {
	return (s.PrecursorMZ - protonMass) * float64(max(s.Charge, 1))
}

const protonMass = 1.007276466622

// SortPeaks sorts the peak list by ascending m/z in place. A list
// already in order — the readers sort, then Preprocess sorts its clone
// again — is left alone; the check is false on any NaN, so the sort
// still sees every list it could reorder.
func (s *Spectrum) SortPeaks() {
	for i := 1; i < len(s.Peaks); i++ {
		if !(s.Peaks[i-1].MZ <= s.Peaks[i].MZ) {
			slices.SortFunc(s.Peaks, func(a, b Peak) int { return ascending(a.MZ, b.MZ) })
			return
		}
	}
}

// ascending is the sorts' comparison: negative exactly when a < b (a
// NaN is neither before nor after anything), so slices' pdqsort makes
// the comparisons sort.Slice made with a < b, sees the same outcomes
// and leaves ties in the same places.
func ascending(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// BasePeak returns the most intense peak, or a zero Peak if empty.
func (s *Spectrum) BasePeak() Peak {
	var bp Peak
	for _, p := range s.Peaks {
		if p.Intensity > bp.Intensity {
			bp = p
		}
	}
	return bp
}

// TotalIonCurrent returns the summed intensity of all peaks.
func (s *Spectrum) TotalIonCurrent() float64 {
	var t float64
	for _, p := range s.Peaks {
		t += p.Intensity
	}
	return t
}

// Clone returns a deep copy of the spectrum.
func (s *Spectrum) Clone() *Spectrum {
	c := *s
	c.Peaks = make([]Peak, len(s.Peaks))
	copy(c.Peaks, s.Peaks)
	return &c
}

// Validate checks structural invariants: positive finite precursor,
// charge, finite non-negative peaks.
func (s *Spectrum) Validate() error {
	if !(s.PrecursorMZ > 0) || math.IsInf(s.PrecursorMZ, 1) {
		return fmt.Errorf("spectrum %s: bad precursor m/z %v", s.ID, s.PrecursorMZ)
	}
	if s.Charge < 1 {
		return fmt.Errorf("spectrum %s: charge %d < 1", s.ID, s.Charge)
	}
	for i, p := range s.Peaks {
		if p.MZ <= 0 || math.IsNaN(p.MZ) || math.IsInf(p.MZ, 0) {
			return fmt.Errorf("spectrum %s: bad m/z at peak %d: %v", s.ID, i, p.MZ)
		}
		if p.Intensity < 0 || math.IsNaN(p.Intensity) || math.IsInf(p.Intensity, 0) {
			return fmt.Errorf("spectrum %s: bad intensity at peak %d: %v", s.ID, i, p.Intensity)
		}
	}
	return nil
}

// Normalization selects how peak intensities are scaled before binning.
type Normalization int

const (
	// NormNone leaves intensities unchanged.
	NormNone Normalization = iota
	// NormSqrt replaces intensities by their square roots, the usual
	// variance-stabilizing transform for spectral library search.
	NormSqrt
	// NormUnit scales the intensity vector to unit Euclidean norm.
	NormUnit
	// NormRank replaces intensities by their rank (1 = weakest), which
	// makes downstream quantization uniform across spectra.
	NormRank
)

// PreprocessConfig mirrors the paper's preprocessing parameters (§3.1):
// peaks below NoiseFraction of the base-peak intensity are dropped, at
// most MaxPeaks of the strongest peaks are retained (50–150 typical),
// and peaks outside [MinMZ, MaxMZ] are removed. A spectrum with fewer
// than MinPeaks surviving peaks is rejected as uninformative.
type PreprocessConfig struct {
	// NoiseFraction is the minimum intensity relative to the base peak
	// (paper: 0.01, i.e. 1% of the greatest peak intensity).
	NoiseFraction float64
	// MaxPeaks caps the number of retained peaks (paper: 50–150).
	MaxPeaks int
	// MinPeaks rejects sparse spectra after filtering.
	MinPeaks int
	// MinMZ and MaxMZ bound the retained fragment m/z range.
	MinMZ, MaxMZ float64
	// RemovePrecursor drops peaks within PrecursorTol Da of the
	// precursor m/z, a standard cleanup step.
	RemovePrecursor bool
	// PrecursorTol is the removal window half-width in Da.
	PrecursorTol float64
	// Norm selects the intensity normalization applied last.
	Norm Normalization
}

// DefaultPreprocess returns the paper's preprocessing configuration.
func DefaultPreprocess() PreprocessConfig {
	return PreprocessConfig{
		NoiseFraction:   0.01,
		MaxPeaks:        150,
		MinPeaks:        5,
		MinMZ:           101.0,
		MaxMZ:           1500.0,
		RemovePrecursor: true,
		PrecursorTol:    1.5,
		Norm:            NormSqrt,
	}
}

// ErrTooFewPeaks is returned by Preprocess when a spectrum does not
// retain MinPeaks peaks after filtering.
var ErrTooFewPeaks = errors.New("spectrum: too few peaks after preprocessing")

// Preprocess applies the configured filtering and normalization and
// returns a new spectrum; the input is not modified. It returns
// ErrTooFewPeaks for spectra that end up with fewer than MinPeaks peaks.
func (cfg PreprocessConfig) Preprocess(s *Spectrum) (*Spectrum, error) {
	out := s.Clone()
	out.SortPeaks()

	// m/z range and precursor removal.
	kept := out.Peaks[:0]
	for _, p := range out.Peaks {
		if cfg.MinMZ > 0 && p.MZ < cfg.MinMZ {
			continue
		}
		if cfg.MaxMZ > 0 && p.MZ > cfg.MaxMZ {
			continue
		}
		if cfg.RemovePrecursor && math.Abs(p.MZ-s.PrecursorMZ) <= cfg.PrecursorTol {
			continue
		}
		kept = append(kept, p)
	}
	out.Peaks = kept

	// Relative intensity threshold (fraction of base peak).
	if cfg.NoiseFraction > 0 && len(out.Peaks) > 0 {
		base := out.BasePeak().Intensity
		thresh := base * cfg.NoiseFraction
		kept = out.Peaks[:0]
		for _, p := range out.Peaks {
			if p.Intensity >= thresh {
				kept = append(kept, p)
			}
		}
		out.Peaks = kept
	}

	// Top-N by intensity, then restore m/z order.
	if cfg.MaxPeaks > 0 && len(out.Peaks) > cfg.MaxPeaks {
		slices.SortFunc(out.Peaks, func(a, b Peak) int { return ascending(b.Intensity, a.Intensity) })
		out.Peaks = out.Peaks[:cfg.MaxPeaks]
		out.SortPeaks()
	}

	if len(out.Peaks) < cfg.MinPeaks {
		return nil, fmt.Errorf("%w: %d < %d (spectrum %s)",
			ErrTooFewPeaks, len(out.Peaks), cfg.MinPeaks, s.ID)
	}

	applyNormalization(out, cfg.Norm)
	return out, nil
}

func applyNormalization(s *Spectrum, n Normalization) {
	switch n {
	case NormSqrt:
		for i := range s.Peaks {
			s.Peaks[i].Intensity = math.Sqrt(s.Peaks[i].Intensity)
		}
	case NormUnit:
		var ss float64
		for _, p := range s.Peaks {
			ss += p.Intensity * p.Intensity
		}
		if ss > 0 {
			inv := 1 / math.Sqrt(ss)
			for i := range s.Peaks {
				s.Peaks[i].Intensity *= inv
			}
		}
	case NormRank:
		idx := make([]int, len(s.Peaks))
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool {
			return s.Peaks[idx[a]].Intensity < s.Peaks[idx[b]].Intensity
		})
		for rank, i := range idx {
			s.Peaks[i].Intensity = float64(rank + 1)
		}
	}
}
