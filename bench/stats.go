//go:build linux

package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 ≤ p ≤ 100) of vs by the
// nearest-rank rule on a sorted copy: the smallest value with at
// least p % of the sample at or below it. Nearest rank never invents
// a value between two observations, so a reported p99 is a latency
// some request actually had. An empty sample yields 0.
func percentile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[min(max(rank, 1), len(s))-1]
}

// median is the midpoint median: the mean of the two central values
// for an even-sized sample, so a median of window medians is not
// biased toward the upper window.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// mean is the arithmetic mean (0 for an empty sample).
func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// iqr is the distance between the first and third quartile as
// Python's statistics.quantiles(vs, n=4) computes them (exclusive
// method) — the same spread the driver takes over its runs. Fewer
// than two values have no spread.
func iqr(vs []float64) float64 {
	n := len(vs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := min(max(int(pos), 1), n-1)
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return q(3) - q(1)
}

// measure is one reported value together with the per-window values
// it summarises (nil for values that are not window statistics).
type measure struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Windows []float64 `json:"windows,omitempty"`
	IQR     float64   `json:"iqr,omitempty"`
	// Raw and Speed are set for values reported at reference speed
	// (see speedometer): the windows as measured, and the speed each
	// was scaled by.
	Raw   []float64 `json:"raw_windows,omitempty"`
	Speed []float64 `json:"window_speed,omitempty"`
}

// medianOfWindows reports the median of per-window values and keeps
// the raw windows and their spread for result.json.
func medianOfWindows(windows []float64) measure {
	return measure{Value: median(windows), Windows: windows, IQR: iqr(windows)}
}

// quietDecile reports the decile of per-window values on the fast
// side — the 10th percentile of a time, the 90th of a rate (nearest
// rank: the second best of 11 to 20 windows). Interference on a
// shared machine only ever slows a window down, and on the boxes this
// benchmark runs on it comes in bursts of a fraction of a second up
// to tens of seconds, so a median over any affordable number of
// windows lands in a different state from run to run, while the fast
// tail of many short windows spread over the whole run sits at the
// undisturbed speed.
func quietDecile(windows []float64, lowerIsBetter bool) measure {
	p := 90.0
	if lowerIsBetter {
		p = 10
	}
	return measure{Value: percentile(windows, p), Windows: windows, IQR: iqr(windows)}
}
