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
// already in order — the readers sort, then Preprocess sorts its copy
// again — is left alone; the check is false on any NaN, so the sort
// still sees every list it could reorder.
func (s *Spectrum) SortPeaks() { sortPeaks(s.Peaks) }

func sortPeaks(peaks []Peak) {
	for i := 1; i < len(peaks); i++ {
		if !(peaks[i-1].MZ <= peaks[i].MZ) {
			slices.SortFunc(peaks, func(a, b Peak) int { return ascending(a.MZ, b.MZ) })
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
func (s *Spectrum) BasePeak() Peak { return basePeak(s.Peaks) }

func basePeak(peaks []Peak) Peak {
	var bp Peak
	for _, p := range peaks {
		if p.Intensity > bp.Intensity {
			bp = p
		}
	}
	return bp
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
	peaks, ok := cfg.AppendPreprocess(make([]Peak, 0, len(s.Peaks)), s)
	if !ok {
		return nil, fmt.Errorf("%w: fewer than %d (spectrum %s)", ErrTooFewPeaks, cfg.MinPeaks, s.ID)
	}
	out := *s
	out.Peaks = peaks
	return &out, nil
}

// AppendPreprocess appends s's peaks to dst, filters and normalizes
// the appended ones as Preprocess does and returns the extended slice;
// s is not modified. ok is false when fewer than MinPeaks peaks are
// left, the one way preprocessing fails; dst then comes back with its
// length unchanged (and any capacity it grew).
func (cfg PreprocessConfig) AppendPreprocess(dst []Peak, s *Spectrum) (out []Peak, ok bool) {
	n0 := len(dst)
	dst = append(dst, s.Peaks...)
	peaks := dst[n0:]
	sortPeaks(peaks)

	// m/z range and precursor removal.
	kept := peaks[:0]
	for _, p := range peaks {
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
	peaks = kept

	// Relative intensity threshold (fraction of base peak).
	if cfg.NoiseFraction > 0 && len(peaks) > 0 {
		thresh := basePeak(peaks).Intensity * cfg.NoiseFraction
		kept = peaks[:0]
		for _, p := range peaks {
			if p.Intensity >= thresh {
				kept = append(kept, p)
			}
		}
		peaks = kept
	}

	// Top-N by intensity, then restore m/z order.
	if cfg.MaxPeaks > 0 && len(peaks) > cfg.MaxPeaks {
		slices.SortFunc(peaks, func(a, b Peak) int { return ascending(b.Intensity, a.Intensity) })
		peaks = peaks[:cfg.MaxPeaks]
		sortPeaks(peaks)
	}

	if len(peaks) < cfg.MinPeaks {
		return dst[:n0], false
	}

	applyNormalization(peaks, cfg.Norm)
	return dst[:n0+len(peaks)], true
}

func applyNormalization(peaks []Peak, n Normalization) {
	switch n {
	case NormSqrt:
		for i := range peaks {
			peaks[i].Intensity = math.Sqrt(peaks[i].Intensity)
		}
	case NormUnit:
		var ss float64
		for _, p := range peaks {
			ss += p.Intensity * p.Intensity
		}
		if ss > 0 {
			inv := 1 / math.Sqrt(ss)
			for i := range peaks {
				peaks[i].Intensity *= inv
			}
		}
	case NormRank:
		idx := make([]int, len(peaks))
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool {
			return peaks[idx[a]].Intensity < peaks[idx[b]].Intensity
		})
		for rank, i := range idx {
			peaks[i].Intensity = float64(rank + 1)
		}
	}
}
