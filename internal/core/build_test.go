package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/spectrum"
)

// buildSpectra is a library of 785 spectra, in no mass order, with
// every seventh spectrum too sparse to survive preprocessing.
func buildSpectra() []*spectrum.Spectrum {
	rng := rand.New(rand.NewSource(11))
	spectra := make([]*spectrum.Spectrum, 785)
	for i := range spectra {
		s := &spectrum.Spectrum{
			ID:          fmt.Sprintf("ref-%d", i),
			Peptide:     fmt.Sprintf("PEPTIDE%dK", i),
			IsDecoy:     i%2 == 1,
			PrecursorMZ: 400 + 600*rng.Float64(),
			Charge:      2,
		}
		peaks := 12
		if i%7 == 3 {
			peaks = 1
		}
		for k := 0; k < peaks; k++ {
			s.Peaks = append(s.Peaks, spectrum.Peak{MZ: 150 + 1200*rng.Float64(), Intensity: 1 + 99*rng.Float64()})
		}
		s.SortPeaks()
		spectra[i] = s
	}
	return spectra
}

// atProcs runs f under the given GOMAXPROCS.
func atProcs(procs int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
}

// TestBuildLibraryIdenticalAcrossProcs pins the parallel build's
// join: spectra encoded on any number of CPUs land in input order, so
// entries, hypervectors, the sort permutation and the skip count do not
// depend on GOMAXPROCS.
func TestBuildLibraryIdenticalAcrossProcs(t *testing.T) {
	p := testParams()
	enc := exactEncoder(t, p)
	spectra := buildSpectra()
	var want *Library
	for _, procs := range []int{1, 2, 8} {
		atProcs(procs, func() {
			lib, err := BuildLibrary(spectra, p, enc)
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = lib
				if lib.Skipped != (len(spectra)+3)/7 || lib.Len() != len(spectra)-lib.Skipped {
					t.Fatalf("kept %d, skipped %d of %d", lib.Len(), lib.Skipped, len(spectra))
				}
				return
			}
			if lib.Skipped != want.Skipped ||
				!reflect.DeepEqual(lib.Entries, want.Entries) ||
				!reflect.DeepEqual(lib.HVs, want.HVs) ||
				!reflect.DeepEqual(lib.SourcePositions(), want.SourcePositions()) {
				t.Errorf("GOMAXPROCS=%d built a different library than GOMAXPROCS=1", procs)
			}
		})
	}
}

// TestBuildLibraryReportsFirstEncodeError pins that an encode failure
// is reported for the first failing spectrum in input order, not the
// first in time: two spectra two apart carry a peak the encoder's item
// memory has no bin for, close enough that workers run both at once.
func TestBuildLibraryReportsFirstEncodeError(t *testing.T) {
	p := testParams()
	enc := exactEncoder(t, p)
	wide := p
	wide.Preprocess.MaxMZ, wide.Binner.MaxMZ = 3000, 3000
	spectra := buildSpectra()
	first, second := 254, 256
	for _, i := range []int{first, second} {
		spectra[i].Peaks = append(spectra[i].Peaks, spectrum.Peak{MZ: 2500, Intensity: 50})
	}
	for _, procs := range []int{1, 2, 8} {
		atProcs(procs, func() {
			for run := 0; run < 20; run++ {
				_, err := BuildLibrary(spectra, wide, enc)
				if err == nil || !strings.Contains(err.Error(), "spectrum "+spectra[first].ID+":") {
					t.Fatalf("GOMAXPROCS=%d: got %v, want the encode error of %s", procs, err, spectra[first].ID)
				}
			}
		})
	}
}

// TestForEach pins the fan-out's contract: every index runs exactly
// once at any GOMAXPROCS; the error returned is the first failing index
// in input order even when a later index fails first; and serial walks
// the indexes in ascending order on the caller, stopping at the first
// error, as a loop that allocates nothing.
func TestForEach(t *testing.T) {
	for _, procs := range []int{1, 2, 8} {
		atProcs(procs, func() {
			for _, n := range []int{0, 1, 2, 63, 64, 785} {
				runs := make([]atomic.Int32, n)
				if err := ForEach(n, false, func(i int) error {
					runs[i].Add(1)
					return nil
				}); err != nil {
					t.Fatalf("GOMAXPROCS=%d n=%d: %v", procs, n, err)
				}
				for i := range runs {
					if got := runs[i].Load(); got != 1 {
						t.Fatalf("GOMAXPROCS=%d n=%d: index %d ran %d times", procs, n, i, got)
					}
				}
			}
		})
	}

	// Index k is held back until k+1 has failed; k's error must win.
	for _, procs := range []int{2, 8} {
		atProcs(procs, func() {
			for _, k := range []int{0, 5, 40} {
				laterFailed := make(chan struct{})
				err := ForEach(64, false, func(i int) error {
					switch i {
					case k:
						select {
						case <-laterFailed:
						case <-time.After(10 * time.Second):
							t.Errorf("GOMAXPROCS=%d: index %d never ran", procs, k+1)
						}
						time.Sleep(time.Millisecond) // let k+1's failure be recorded first
						return fmt.Errorf("index %d", i)
					case k + 1:
						close(laterFailed)
						return fmt.Errorf("index %d", i)
					}
					return nil
				})
				if want := fmt.Sprintf("index %d", k); err == nil || err.Error() != want {
					t.Errorf("GOMAXPROCS=%d k=%d: got %v, want %q", procs, k, err, want)
				}
			}
		})
	}

	atProcs(8, func() {
		var order []int
		err := ForEach(64, true, func(i int) error {
			order = append(order, i)
			if i == 40 {
				return fmt.Errorf("index %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "index 40" {
			t.Errorf("serial: got %v, want index 40's error", err)
		}
		want := make([]int, 41)
		for i := range want {
			want[i] = i
		}
		if !slices.Equal(order, want) {
			t.Errorf("serial ran %v; want 0, 1, …, 40", order)
		}
		// One worker is a plain loop: nothing spawned, nothing allocated.
		if raceEnabled {
			return
		}
		noop := func(int) error { return nil }
		if a := testing.AllocsPerRun(20, func() { ForEach(1, false, noop); ForEach(64, true, noop) }); a != 0 {
			t.Errorf("one-worker ForEach allocates %.0f, want 0", a)
		}
	})
}
