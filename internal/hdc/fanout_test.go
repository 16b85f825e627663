package hdc

import (
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

// atProcs runs f under the given GOMAXPROCS.
func atProcs(procs int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
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

// TestForEachParallelAllocs pins a parallel call at the workers it
// spawns, one closure each: its claim state comes from a pool.
// AllocsPerRun runs at GOMAXPROCS 1, where ForEach spawns nothing, so
// the count is read from the heap statistics around repeated calls.
func TestForEachParallelAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-detector instrumentation")
	}
	const runs = 200
	noop := func(int) error { return nil }
	for _, procs := range []int{2, 8} {
		atProcs(procs, func() {
			for range runs {
				ForEach(64, false, noop)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for range runs {
				ForEach(64, false, noop)
			}
			runtime.ReadMemStats(&after)
			if a := float64(after.Mallocs-before.Mallocs) / runs; a > float64(procs-1)+0.5 {
				t.Errorf("GOMAXPROCS=%d: a parallel ForEach allocates %.2f, want the %d spawned workers", procs, a, procs-1)
			}
		})
	}
}

// TestTopK pins the selection over a score list: the k best rows in
// Search's order (similarity descending, ties by ascending index),
// with ties at the k-th place kept by index, and every row when there
// are fewer than k.
func TestTopK(t *testing.T) {
	sims := []int{10, 30, 20, 30, 5}
	for _, tc := range []struct {
		sims []int
		lo   int
		k    int
		want []Match
	}{
		{sims, 0, 3, []Match{{1, 30}, {3, 30}, {2, 20}}},
		{[]int{7, 9, 7, 4, 7}, 100, 2, []Match{{101, 9}, {100, 7}}},
		{[]int{7, 9, 7, 4, 7}, 100, 3, []Match{{101, 9}, {100, 7}, {102, 7}}},
		{sims, 10, 8, []Match{{11, 30}, {13, 30}, {12, 20}, {10, 10}, {14, 5}}},
	} {
		if got := TopK(tc.sims, tc.lo, tc.k); !slices.Equal(got, tc.want) {
			t.Errorf("TopK(%v, %d, %d) = %v, want %v", tc.sims, tc.lo, tc.k, got, tc.want)
		}
	}
}
