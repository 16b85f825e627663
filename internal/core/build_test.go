package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/hdc"
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

// TestBuildLibraryRowsExact pins that the rows of skipped spectra
// leave no capacity behind: a build that skips a seventh of its input
// holds a block of exactly its kept rows.
func TestBuildLibraryRowsExact(t *testing.T) {
	p := testParams()
	lib, err := BuildLibrary(buildSpectra(), p, exactEncoder(t, p))
	if err != nil {
		t.Fatal(err)
	}
	if rows := lib.Rows(); lib.Skipped == 0 || cap(rows) != len(rows) {
		t.Errorf("%d skipped: row block len %d, cap %d; want an exact block", lib.Skipped, len(rows), cap(rows))
	}
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

// TestLibraryRowsFollowTheirEntries pins that the in-place mass sort
// moves every packed row with its entry: a built library's row i is the
// reference encode (Preprocess, Vectorize, EncodeVector) of entry i's
// spectrum, and a hand-made library in shuffled order, ties included,
// keeps each hypervector with its entry and its ties in input order,
// with HVs left as views of the rows.
func TestLibraryRowsFollowTheirEntries(t *testing.T) {
	p := testParams()
	enc := exactEncoder(t, p)
	spectra := buildSpectra()
	lib, err := BuildLibrary(spectra, p, enc)
	if err != nil {
		t.Fatal(err)
	}
	byID := make(map[string]*spectrum.Spectrum, len(spectra))
	for _, s := range spectra {
		byID[s.ID] = s
	}
	for i, e := range lib.Entries {
		pre, err := p.Preprocess.Preprocess(byID[e.ID])
		if err != nil {
			t.Fatal(err)
		}
		want, err := enc.EncodeVector(p.Binner.Vectorize(pre))
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(lib.Row(i).Words, want.Words) {
			t.Fatalf("row %d is not the encoding of its entry %s", i, e.ID)
		}
	}

	rng := rand.New(rand.NewSource(5))
	const n = 500
	hand := &Library{Entries: make([]LibraryEntry, n), HVs: make([]hdc.BinaryHV, n)}
	for i := range hand.Entries {
		hand.Entries[i] = LibraryEntry{ID: fmt.Sprint(i), Mass: float64(rng.Intn(n / 4))}
		hand.HVs[i] = hdc.RandomBinaryHV(p.Accel.D, rng)
	}
	given := slices.Clone(hand.HVs)
	hand.SortByMass()
	for i, e := range hand.Entries {
		src := hand.SourcePos(i)
		if e.ID != fmt.Sprint(src) || !slices.Equal(hand.Row(i).Words, given[src].Words) || &hand.HVs[i].Words[0] != &hand.Row(i).Words[0] {
			t.Fatalf("rank %d holds entry %s with another entry's row, or HVs[%d] is not a view of it", i, e.ID, i)
		}
		if i > 0 && (e.Mass < hand.Entries[i-1].Mass || e.Mass == hand.Entries[i-1].Mass && src < hand.SourcePos(i-1)) {
			t.Fatalf("rank %d out of stable mass order", i)
		}
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
