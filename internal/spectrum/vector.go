package spectrum

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// Binner converts preprocessed spectra into sparse binned vectors:
// the m/z axis [MinMZ, MaxMZ) is divided into fixed-width bins and the
// intensities of peaks falling into the same bin are summed (§3.1).
// The resulting bin indices feed both the HD encoder (as ID indices)
// and the ANN-SoLo baseline (as sparse vector coordinates).
type Binner struct {
	// MinMZ is the lower edge of the first bin.
	MinMZ float64
	// MaxMZ is the exclusive upper edge of the last bin.
	MaxMZ float64
	// BinWidth is the width of each bin in Th (Da/charge).
	BinWidth float64
}

// DefaultBinner returns the binning used throughout the evaluation:
// 1.0 Th bins over [101, 1500), close to HyperOMS' configuration and
// sized so bin count ≈ 1400, comfortably below HD dimensions of 1k–8k.
func DefaultBinner() Binner {
	return Binner{MinMZ: 101.0, MaxMZ: 1500.0, BinWidth: 1.0}
}

// NumBins returns the number of bins on the m/z axis.
func (b Binner) NumBins() int {
	n := int(math.Ceil((b.MaxMZ - b.MinMZ) / b.BinWidth))
	if n < 1 {
		n = 1
	}
	return n
}

// bin returns the bin index for an m/z value and whether it is in
// range (a NaN m/z is in no bin); n is NumBins().
func (b Binner) bin(mz float64, n int) (int, bool) {
	if !(mz >= b.MinMZ && mz < b.MaxMZ) {
		return 0, false
	}
	return min(int((mz-b.MinMZ)/b.BinWidth), n-1), true
}

// Entry is one non-zero coordinate of a binned spectrum vector.
type Entry struct {
	// Bin is the m/z bin index.
	Bin int
	// Intensity is the summed intensity of all peaks in the bin.
	Intensity float64
}

// Vector is a sparse binned spectrum vector with entries sorted by
// ascending bin index.
type Vector struct {
	// Entries are the non-zero coordinates sorted by Bin.
	Entries []Entry
	// NumBins is the dense dimensionality of the vector.
	NumBins int
}

// Vectorize bins the spectrum's peaks, summing intensities of peaks
// that share a bin in peak order.
func (b Binner) Vectorize(s *Spectrum) Vector {
	return Vector{Entries: b.AppendVectorize(make([]Entry, 0, len(s.Peaks)), s.Peaks), NumBins: b.NumBins()}
}

// AppendVectorize appends the entries Vectorize makes of peaks to dst
// and returns the extended slice. Peaks in m/z order are binned in bin
// order, so a peak's intensity joins the last entry when it shares its
// bin; a peak that falls in an earlier bin hands the list to
// appendByBin.
func (b Binner) AppendVectorize(dst []Entry, peaks []Peak) []Entry {
	n0, nb := len(dst), b.NumBins()
	for _, p := range peaks {
		i, ok := b.bin(p.MZ, nb)
		if !ok {
			continue
		}
		e := Entry{Bin: i, Intensity: 0 + p.Intensity} // 0+: a lone -0 sums to +0
		switch n := len(dst); {
		case n == n0 || dst[n-1].Bin < i:
			dst = append(dst, e)
		case dst[n-1].Bin == i:
			dst[n-1].Intensity += e.Intensity
		default:
			return b.appendByBin(dst[:n0], peaks, nb)
		}
	}
	return dst
}

// appendByBin is AppendVectorize for peaks out of m/z order: their
// entries are sorted by bin, stably, so a bin's intensities still sum
// in peak order.
func (b Binner) appendByBin(dst []Entry, peaks []Peak, nb int) []Entry {
	n0 := len(dst)
	for _, p := range peaks {
		if i, ok := b.bin(p.MZ, nb); ok {
			dst = append(dst, Entry{Bin: i, Intensity: 0 + p.Intensity})
		}
	}
	entries := dst[n0:]
	slices.SortStableFunc(entries, func(a, c Entry) int { return cmp.Compare(a.Bin, c.Bin) })
	merged := entries[:0]
	for _, e := range entries {
		if n := len(merged); n > 0 && merged[n-1].Bin == e.Bin {
			merged[n-1].Intensity += e.Intensity
		} else {
			merged = append(merged, e)
		}
	}
	return dst[:n0+len(merged)]
}

// Norm returns the Euclidean norm of the vector.
func (v Vector) Norm() float64 {
	var ss float64
	for _, e := range v.Entries {
		ss += e.Intensity * e.Intensity
	}
	return math.Sqrt(ss)
}

// Scale returns a copy of the vector with every entry multiplied by k.
func (v Vector) Scale(k float64) Vector {
	out := Vector{Entries: make([]Entry, len(v.Entries)), NumBins: v.NumBins}
	for i, e := range v.Entries {
		out.Entries[i] = Entry{Bin: e.Bin, Intensity: e.Intensity * k}
	}
	return out
}

// Normalized returns the unit-norm version of the vector (or the
// vector itself if it has zero norm).
func (v Vector) Normalized() Vector {
	n := v.Norm()
	if n == 0 {
		return v
	}
	return v.Scale(1 / n)
}

// Dot returns the sparse dot product of two vectors.
func Dot(a, b Vector) float64 {
	var s float64
	i, j := 0, 0
	for i < len(a.Entries) && j < len(b.Entries) {
		switch {
		case a.Entries[i].Bin == b.Entries[j].Bin:
			s += a.Entries[i].Intensity * b.Entries[j].Intensity
			i++
			j++
		case a.Entries[i].Bin < b.Entries[j].Bin:
			i++
		default:
			j++
		}
	}
	return s
}

// ShiftedDot returns the open-modification "shifted dot product"
// (ANN-SoLo's scoring function): each query entry may match a library
// entry either at the same bin or at the bin shifted by the precursor
// mass difference (in bins), and each side of a match is consumed at
// most once. shiftBins may be negative.
func ShiftedDot(query, library Vector, shiftBins int) float64 {
	usedLib := make(map[int]bool, len(library.Entries))
	libByBin := make(map[int]int, len(library.Entries))
	for i, e := range library.Entries {
		libByBin[e.Bin] = i
	}
	var s float64
	for _, q := range query.Entries {
		// Unshifted match first (unmodified fragments), then shifted.
		if i, ok := libByBin[q.Bin]; ok && !usedLib[i] {
			s += q.Intensity * library.Entries[i].Intensity
			usedLib[i] = true
			continue
		}
		if shiftBins != 0 {
			if i, ok := libByBin[q.Bin-shiftBins]; ok && !usedLib[i] {
				s += q.Intensity * library.Entries[i].Intensity
				usedLib[i] = true
			}
		}
	}
	return s
}

// Quantize maps the vector's intensities to integer levels 0..levels-1
// relative to the vector's maximum intensity. It is the front half of
// the HD ID-Level encoder: each (bin, level) pair selects an ID and a
// level hypervector. A zero-intensity or empty vector yields level 0
// entries.
func (v Vector) Quantize(levels int) []QuantizedPeak {
	return v.AppendQuantize(make([]QuantizedPeak, 0, len(v.Entries)), levels)
}

// AppendQuantize appends the peaks Quantize makes of v to dst and
// returns the extended slice.
func (v Vector) AppendQuantize(dst []QuantizedPeak, levels int) []QuantizedPeak {
	if levels < 2 {
		levels = 2
	}
	var maxI float64
	for _, e := range v.Entries {
		if e.Intensity > maxI {
			maxI = e.Intensity
		}
	}
	for _, e := range v.Entries {
		lvl := 0
		if maxI > 0 {
			lvl = int(e.Intensity / maxI * float64(levels-1))
			if lvl >= levels {
				lvl = levels - 1
			}
		}
		dst = append(dst, QuantizedPeak{Bin: e.Bin, Level: lvl})
	}
	return dst
}

// QuantizedPeak is a binned peak with its intensity quantized to a
// discrete level, the unit of information consumed by the HD encoder.
type QuantizedPeak struct {
	// Bin is the m/z bin index (selects the ID hypervector).
	Bin int
	// Level is the quantized intensity level (selects the level
	// hypervector), in [0, Q).
	Level int
}

// String renders a short summary of the vector.
func (v Vector) String() string {
	return fmt.Sprintf("Vector{%d/%d non-zero}", len(v.Entries), v.NumBins)
}
