package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/spectrum"
)

// buildSpectra is a library spanning several build chunks, in no mass
// order, with every seventh spectrum too sparse to survive
// preprocessing.
func buildSpectra() []*spectrum.Spectrum {
	rng := rand.New(rand.NewSource(11))
	spectra := make([]*spectrum.Spectrum, 3*spectrumChunk+17)
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
// join: chunks encoded on any number of CPUs land in input order, so
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
// first in time: two spectra carry a peak the encoder's item memory
// has no bin for, one at the end of the first chunk and one at the
// start of the second, which a second worker reaches long before.
func TestBuildLibraryReportsFirstEncodeError(t *testing.T) {
	p := testParams()
	enc := exactEncoder(t, p)
	wide := p
	wide.Preprocess.MaxMZ, wide.Binner.MaxMZ = 3000, 3000
	spectra := buildSpectra()
	first, second := spectrumChunk-2, spectrumChunk
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
