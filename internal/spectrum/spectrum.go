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
func (s *Spectrum) BasePeak() Peak {
	var bp Peak
	for _, p := range s.Peaks {
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
		if !(p.MZ > 0) || math.IsInf(p.MZ, 1) {
			return fmt.Errorf("spectrum %s: bad m/z at peak %d: %v", s.ID, i, p.MZ)
		}
		if !(p.Intensity >= 0) || math.IsInf(p.Intensity, 1) {
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
//
// The steps are: sort by m/z; drop peaks outside [MinMZ, MaxMZ] (a NaN
// m/z among them) or within PrecursorTol of the precursor; drop peaks
// under NoiseFraction of the base peak; keep the MaxPeaks most intense;
// normalize. A list in m/z order, as the readers make them, takes two
// passes: the range filter copies and finds the base peak, and the
// noise filter takes NormSqrt's roots as it keeps when no top-N cut
// can follow (that cut ranks the unrooted intensities, and distinct
// intensities can share a root).
func (cfg PreprocessConfig) AppendPreprocess(dst []Peak, s *Spectrum) (out []Peak, ok bool) {
	n0 := len(dst)
	dst, base, sorted := cfg.appendInRange(dst, s.Peaks, s.PrecursorMZ)
	if !sorted {
		// The whole list is sorted before the filter, as it always was:
		// pdqsort is not stable, so sorting only the kept peaks could
		// leave equal m/z values in another order.
		dst = append(dst[:n0], s.Peaks...)
		sortPeaks(dst[n0:])
		dst, base, _ = cfg.appendInRange(dst[:n0], dst[n0:], s.PrecursorMZ)
	}
	peaks := dst[n0:]

	// Relative intensity threshold (fraction of base peak).
	filter := cfg.NoiseFraction > 0
	rooted := cfg.Norm == NormSqrt && (cfg.MaxPeaks <= 0 || len(peaks) <= cfg.MaxPeaks)
	if filter || rooted {
		thresh := base * cfg.NoiseFraction
		kept := peaks[:0]
		for _, p := range peaks {
			if filter && !(p.Intensity >= thresh) {
				continue
			}
			if rooted {
				p.Intensity = math.Sqrt(p.Intensity)
			}
			kept = append(kept, p)
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
	if !rooted {
		applyNormalization(peaks, cfg.Norm)
	}
	return dst[:n0+len(peaks)], true
}

// appendInRange appends the peaks of src inside [MinMZ, MaxMZ] — a
// bound at or below 0 is off, and a NaN m/z is inside no range — and,
// under RemovePrecursor, farther than PrecursorTol from precursor to
// dst. It returns the extended slice, the kept peaks' base intensity
// as BasePeak reads it, and whether src is in m/z order as sortPeaks
// checks it. src may be dst's own tail: a peak is written no later
// than it is read.
func (cfg PreprocessConfig) appendInRange(dst, src []Peak, precursor float64) (out []Peak, base float64, sorted bool) {
	lo, hi := math.Inf(-1), math.Inf(1)
	if cfg.MinMZ > 0 {
		lo = cfg.MinMZ
	}
	if cfg.MaxMZ > 0 {
		hi = cfg.MaxMZ
	}
	dst = slices.Grow(dst, len(src))
	sorted = true
	prev := math.Inf(-1)
	for i, p := range src {
		if i > 0 && !(prev <= p.MZ) {
			sorted = false
		}
		prev = p.MZ
		if !(p.MZ >= lo && p.MZ <= hi) || cfg.RemovePrecursor && math.Abs(p.MZ-precursor) <= cfg.PrecursorTol {
			continue
		}
		if p.Intensity > base {
			base = p.Intensity
		}
		dst = append(dst, p)
	}
	return dst, base, sorted
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
