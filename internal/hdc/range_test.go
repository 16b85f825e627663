package hdc

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/obsv"
)

// TestOnePathMatrix is the conformance matrix of the one scan path:
// for every shard geometry, every query alone as a batch of one, the whole batch and
// the batch reversed — each with and without a trace, on one worker
// and on several — must return lists identical to the flat-scan
// oracle. The ranges include ones that clamp, are empty or inverted,
// hold fewer than k rows, sit inside one shard, and span many. The
// whole matrix then runs again under go-kernel/ with the package's
// kernel value swapped to the Go reference, so one `go test` run holds
// both kernels to the oracle, not only a -tags purego run.
func TestOnePathMatrix(t *testing.T) {
	onePathMatrix(t)
	t.Run("go-kernel", func(t *testing.T) {
		useGoKernel(t)
		onePathMatrix(t)
	})
}

func onePathMatrix(t *testing.T) {
	const d, n = 512, 700
	layouts := []struct {
		name  string
		shard int
		k     int
	}{
		{"single-tier", 64, 5},
		{"single-tier-one-shard", n, 5},
		{"k-over-shard", 4, 9},
		// These two keep the names of the ladder layouts that ran their
		// geometries until the ladder was deleted.
		{"two-tier", 100, 4},
		{"four-tier", 48, 3},
	}
	ranges := []RowRange{
		{Lo: 0, Hi: n},        // full scan
		{Lo: -10, Hi: n + 10}, // clamps on both sides
		{Lo: 130, Hi: 138},    // inside one shard
		{Lo: 60, Hi: 70},      // straddles a shard boundary
		{Lo: 7, Hi: 7},        // empty
		{Lo: 400, Hi: 300},    // inverted: empty
		{Lo: n + 5, Hi: n + 9},
		{Lo: 250, Hi: 252}, // fewer than k rows
		{Lo: n - 1, Hi: n + 50},
		{Lo: 20, Hi: 650},
		{Lo: 20, Hi: 300}, // same start as the previous range
		{Lo: 333, Hi: 600},
	}
	for _, lay := range layouts {
		t.Run(lay.name, func(t *testing.T) {
			refs, queries := plantedFixture(t, d, n, len(ranges), lay.k, 77)
			s, err := packedSearcher(refs, lay.shard)
			if err != nil {
				t.Fatal(err)
			}
			oracle := make([][]Match, len(queries))
			for i, q := range queries {
				cands := rangeCands(ranges[i].Lo, ranges[i].Hi, n)
				oracle[i] = naiveTopK(refs, d, q, cands, lay.k)
			}
			revQ := make([]BinaryHV, len(queries))
			revR := make([]RowRange, len(ranges))
			for i := range queries {
				revQ[len(queries)-1-i], revR[len(ranges)-1-i] = queries[i], ranges[i]
			}
			check := func(path string, qi int, got []Match) {
				t.Helper()
				if got == nil || !matchesEqual(got, oracle[qi]) {
					t.Fatalf("%s: query %d range %+v\ngot  %v\nwant %v", path, qi, ranges[qi], got, oracle[qi])
				}
			}
			for _, procs := range []int{1, 4} {
				prev := runtime.GOMAXPROCS(procs)
				for _, traced := range []bool{false, true} {
					var tr *obsv.Trace
					if traced {
						tr = new(obsv.Trace)
					}
					path := fmt.Sprintf("procs=%d traced=%v", procs, traced)
					for qi, got := range sweepBatch(s, queries, ranges, lay.k, tr) {
						check(path+" batch", qi, got)
					}
					for ri, got := range sweepBatch(s, revQ, revR, lay.k, tr) {
						check(path+" reversed", len(queries)-1-ri, got)
					}
					for qi := range queries {
						got := sweepBatch(s, queries[qi:qi+1], ranges[qi:qi+1], lay.k, tr)
						check(path+" batch of one", qi, got[0])
					}
				}
				runtime.GOMAXPROCS(prev)
			}
		})
	}
}

// TestSimilaritiesRangeIntoParity checks the bulk range scorer
// against the scalar similarity, including buffer reuse and clamping.
func TestSimilaritiesRangeIntoParity(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	d, n := 130, 300
	refs := randomRefs(d, n, 22)
	s, err := packedSearcher(refs, 64)
	if err != nil {
		t.Fatal(err)
	}
	q := RandomBinaryHV(d, rng)
	var buf []int
	for _, r := range [][2]int{{0, n}, {10, 200}, {-5, 40}, {250, n + 90}, {60, 60}, {120, 10}} {
		buf = s.SimilaritiesRangeInto(q, r[0], r[1], buf)
		lo, hi := max(r[0], 0), min(r[1], n)
		if len(buf) != max(hi-lo, 0) {
			t.Fatalf("range %v: len = %d, want %d", r, len(buf), max(hi-lo, 0))
		}
		for j := range buf {
			if want := hammingSimilarity(q, refs[lo+j]); buf[j] != want {
				t.Fatalf("range %v row %d: sim = %d, want %d", r, lo+j, buf[j], want)
			}
		}
	}
	// Reuse must not reallocate.
	full := s.SimilaritiesRangeInto(q, 0, n, buf)
	if again := s.SimilaritiesRangeInto(q, 0, n, full); &again[0] != &full[0] {
		t.Error("buffer was reallocated on reuse")
	}
}

// TestBatchTopKRangeShapeChecks covers the argument contracts: a
// ranges slice shorter than queries panics, a query of the wrong
// dimension panics, k <= 0 yields nil rows, and an all-empty batch
// returns empty (non-nil) match lists.
func TestBatchTopKRangeShapeChecks(t *testing.T) {
	refs := randomRefs(64, 50, 31)
	s, err := packedSearcher(refs, 16)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(32))
	q := RandomBinaryHV(64, rng)

	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("mismatched ranges length", func() {
		sweepBatch(s, []BinaryHV{q, q}, []RowRange{{Lo: 0, Hi: 10}}, 3, nil)
	})
	mustPanic("dimension mismatch", func() {
		sweepBatch(s, []BinaryHV{NewBinaryHV(128)}, []RowRange{{Lo: 0, Hi: 10}}, 1, nil)
	})

	out := sweepBatch(s, []BinaryHV{q}, []RowRange{{Lo: 0, Hi: 10}}, 0, nil)
	if out[0] != nil {
		t.Errorf("k=0: got %v, want nil", out[0])
	}

	out = sweepBatch(s, []BinaryHV{q, q}, []RowRange{{Lo: 5, Hi: 5}, {Lo: 40, Hi: 20}}, 3, nil)
	for i, matches := range out {
		if matches == nil || len(matches) != 0 {
			t.Errorf("empty range %d: got %v, want empty non-nil", i, matches)
		}
	}
}

// TestRowRangeHelpers pins the RowRange value semantics.
func TestRowRangeHelpers(t *testing.T) {
	cases := []struct {
		r     RowRange
		empty bool
		n     int
	}{
		{RowRange{Lo: 0, Hi: 0}, true, 0},
		{RowRange{Lo: 5, Hi: 3}, true, 0},
		{RowRange{Lo: 2, Hi: 7}, false, 5},
	}
	for _, c := range cases {
		if c.r.Empty() != c.empty || c.r.Len() != c.n {
			t.Errorf("%+v: Empty=%v Len=%d, want %v/%d", c.r, c.r.Empty(), c.r.Len(), c.empty, c.n)
		}
	}
}
