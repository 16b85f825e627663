package hdc

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/obsv"
	"repro/internal/spectrum"
)

// Allocation baselines for the kernel path, checked in as the gate CI
// enforces (the -benchmem numbers on the range-sweep benchmarks trend
// the same quantities). The scoring sweep itself —
// SimilaritiesRangeInto over a reused buffer — must be
// allocation-free in steady state: it runs per query batch at full
// occupancy, through xorPopRows, its kernel value and the pooled mask
// scratch. The top-k sweep, whose kernel calls also select the rows
// the heaps admit, additionally materializes its result lists; that
// inherent per-call cost is pinned exactly so scratch-reuse
// regressions (heap regrowth, lost pooling, a goroutine where none is
// needed) surface as a count jump, not a silent GC treadmill.
const (
	// kernelSweepAllocs is the steady-state allocs/op of the blocked
	// similarity sweep over a reused destination buffer.
	kernelSweepAllocs = 0
	// encodeVectorMaxAllocs bounds EncodeVector: the quantized peak
	// list and the result words.
	encodeVectorMaxAllocs = 2
	// itemMemoryAllocs is NewItemMemory's count at any bin count and
	// worker count: the ItemMemory, its plane store, the seeded
	// math/rand source, the build state, the workers' stream buffers
	// (one slab) and the worker function value.
	itemMemoryAllocs = 6
)

// sweepAllocs is the steady-state allocs/op of Search:
// the result header and one match list per query, plus — when the
// ranges span several shards — one closure per spawned worker (the
// calling goroutine is the first worker, and the test box's
// GOMAXPROCS bounds the rest).
func sweepAllocs(queries, shards int) int {
	return 1 + queries + min(runtime.GOMAXPROCS(0), shards) - 1
}

func allocSearcher(t *testing.T, d, n, shardSize, nq int) (*ShardedSearcher, []BinaryHV) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	refs := make([]BinaryHV, n)
	for i := range refs {
		refs[i] = RandomBinaryHV(d, rng)
	}
	s, err := packedSearcher(refs, shardSize)
	if err != nil {
		t.Fatal(err)
	}
	queries := make([]BinaryHV, nq)
	for i := range queries {
		queries[i] = RandomBinaryHV(d, rng)
	}
	return s, queries
}

// allocStores is the row-width matrix both allocation gates run over.
// Past the single-tier case the names are those of the K-tier ladders
// the gates covered until the ladder was deleted; each now sweeps the
// one row layout at its own width, so the kernel blocks hold a
// different number of rows: 128 at 16 words, 256 at 8, 64 at 32, and
// 128 again at 16 words with a masked tail.
var allocStores = []struct {
	name string
	d    int
}{
	{"single-tier", 1024},
	{"two-tier", 512},
	{"three-tier", 2048},
	{"four-tier", 1000},
}

// everyNth lists rows 0, step, 2*step, … below n: a hidden list that
// lands in every kernel block of the allocation gates' stores.
func everyNth(n, step int) []int {
	var rows []int
	for r := 0; r < n; r += step {
		rows = append(rows, r)
	}
	return rows
}

// TestKernelSweepAllocationFree gates the scoring kernel at zero
// steady-state allocations across the row widths, with and without
// hidden rows.
func TestKernelSweepAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-detector instrumentation")
	}
	for _, tc := range allocStores {
		t.Run(tc.name, func(t *testing.T) {
			s, queries := allocSearcher(t, tc.d, 4096, 4096, 1)
			q := queries[0]
			dst := s.SimilaritiesRangeInto(q, 0, s.Len(), nil)
			for _, hidden := range [][]int{nil, everyNth(s.Len(), 37)} {
				s.Hide(hidden)
				allocs := testing.AllocsPerRun(50, func() {
					dst = s.SimilaritiesRangeInto(q, 0, s.Len(), dst)
				})
				if allocs > kernelSweepAllocs {
					t.Errorf("similarity sweep with %d hidden rows allocates %.1f allocs/op in steady state, baseline %d",
						len(hidden), allocs, kernelSweepAllocs)
				}
			}
		})
	}
}

// TestSweepSteadyStateAllocs pins the one search entry point to its
// checked-in baseline across row width × batch size × shard count: a
// batch allocates its result header plus one match list per query; everything else — plan, heap arena, worker scratch — is
// pooled, and only a multi-shard span adds the worker goroutines. The
// last case is a small range inside one shard of a five-shard store:
// it must cost exactly what the one-shard store costs, i.e. the sweep
// visits only the shard span its ranges cover and spawns nothing. Every
// case runs again with rows hidden in every kernel block, and again
// with a trace recording it, at the same pinned count: neither masking
// nor tracing allocates.
func TestSweepSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-detector instrumentation")
	}
	run := func(t *testing.T, s *ShardedSearcher, queries []BinaryHV, r RowRange, want int) {
		t.Helper()
		ranges := make([]RowRange, len(queries))
		for i := range ranges {
			ranges[i] = r
		}
		for _, hidden := range [][]int{nil, everyNth(s.Len(), 37)} {
			s.Hide(hidden)
			for _, tr := range []*obsv.Trace{nil, {}} {
				sweepBatch(s, queries, ranges, 5, tr)
				allocs := testing.AllocsPerRun(50, func() {
					sweepBatch(s, queries, ranges, 5, tr)
				})
				if int(allocs) > want {
					t.Errorf("%d-query sweep of %+v over %d shards with %d hidden rows (traced: %t) allocates %.1f allocs/op in steady state, baseline %d",
						len(queries), r, s.numShards(), len(hidden), tr != nil, allocs, want)
				}
			}
		}
	}
	for _, tc := range allocStores {
		for _, shards := range []int{1, 4} {
			for _, nq := range []int{1, 64} {
				t.Run(fmt.Sprintf("%s/shards=%d/queries=%d", tc.name, shards, nq), func(t *testing.T) {
					s, queries := allocSearcher(t, tc.d, 4096, 4096/shards, nq)
					run(t, s, queries, RowRange{Lo: 0, Hi: s.Len()}, sweepAllocs(nq, shards))
				})
			}
		}
		t.Run(tc.name+"/one-shard-of-five", func(t *testing.T) {
			s, queries := allocSearcher(t, tc.d, 5000, 1024, 1)
			run(t, s, queries, RowRange{Lo: 2500, Hi: 2508}, sweepAllocs(1, 1))
		})
	}
}

// TestEncodeVectorAllocs pins the encode path at its two inherent
// allocations — the quantized peak list and the result words — on both
// kernels; their counters live in registers and on the stack (no
// per-call accumulator, and nothing escapes through the kernel value:
// groups are written straight into the result words).
func TestEncodeVectorAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-detector instrumentation")
	}
	e, err := NewEncoder(NewItemMemory(2048, 1399, 3, 1), NewChunkedLevelSet(2048, 16, 256, 2))
	if err != nil {
		t.Fatal(err)
	}
	v := spectrum.Vector{NumBins: 1399}
	for bin := 0; bin < 1399; bin += 14 {
		v.Entries = append(v.Entries, spectrum.Entry{Bin: bin, Intensity: float64(1 + bin%7)})
	}
	onBothEncodeKernels(t, func(t *testing.T) {
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := e.EncodeVector(v); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > encodeVectorMaxAllocs {
			t.Errorf("EncodeVector allocates %.1f allocs/op, baseline %d", allocs, encodeVectorMaxAllocs)
		}
	})
}
