package libindex

import (
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/hdc"
)

// syntheticLibrary assembles a valid mass-sorted library of n random
// hypervectors directly — no preprocessing or encoding — for tests and
// benchmarks whose subject is the index machinery, not the encoder.
func syntheticLibrary(tb testing.TB, n, d int) (core.Params, *core.Library) {
	tb.Helper()
	rng := rand.New(rand.NewSource(42))
	entries := make([]core.LibraryEntry, n)
	hvs := make([]hdc.BinaryHV, n)
	for i := range entries {
		entries[i] = core.LibraryEntry{
			ID:      fmt.Sprintf("ref-%d", i),
			Peptide: fmt.Sprintf("PEPTIDE%d", i),
			IsDecoy: i%3 == 0,
			Mass:    500 + float64(i)*0.37,
		}
		hvs[i] = hdc.RandomBinaryHV(d, rng)
	}
	lib, err := core.RestoreLibrary(entries, hvs, rng.Perm(n), 0)
	if err != nil {
		tb.Fatal(err)
	}
	return testParams(d, 0, 3), lib
}

// TestSaveAllocsIndependentOfRows pins that Save stages every row
// through the writer's one scratch buffer: the number of allocations
// does not grow with the number of rows (it used to make a 64 KiB
// buffer per hypervector and a copy per string).
func TestSaveAllocsIndependentOfRows(t *testing.T) {
	allocs := func(n int) float64 {
		p, lib := syntheticLibrary(t, n, 2048)
		return testing.AllocsPerRun(3, func() {
			if err := Save(io.Discard, p, lib); err != nil {
				t.Fatal(err)
			}
		})
	}
	// One allocation per row would be 3000 apart; the slack absorbs the
	// race detector's own bookkeeping.
	if small, large := allocs(1000), allocs(4000); large > small+16 {
		t.Errorf("Save allocates %.0f times for 1000 rows and %.0f for 4000; want the same", small, large)
	}
}

// TestOpenAllocsIndependentOfRows pins that opening an index copies its
// entry strings off the image once, whole, not a string per ID and
// peptide: the allocation count does not grow with the number of rows.
func TestOpenAllocsIndependentOfRows(t *testing.T) {
	allocs := func(n int) float64 {
		p, lib := syntheticLibrary(t, n, 512)
		path := filepath.Join(t.TempDir(), "lib.omsidx")
		if err := SaveFile(path, p, lib); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(3, func() {
			ix, err := OpenFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := ix.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(1000), allocs(4000); large > small+16 {
		t.Errorf("OpenFile allocates %.0f times for 1000 rows and %.0f for 4000; want the same", small, large)
	}
}
