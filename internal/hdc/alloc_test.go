package hdc

import (
	"math/rand"
	"testing"

	"repro/internal/spectrum"
)

// Allocation baselines for the kernel path, checked in as the gate CI
// enforces (the -benchmem numbers on BenchmarkCascadeTopKRange trend
// the same quantities). The scoring sweep itself —
// SimilaritiesRangeInto over a reused buffer, single- or two-tier —
// must be allocation-free in steady state: it runs per query batch at
// full occupancy, and the //oms:hotpath contract on its kernels
// (scoreRows, distRow*, scoreBlockSims) is enforced statically by
// omsvet's hotalloc analyzer. TopKRange additionally materializes its
// rank-sorted result slice; that inherent per-call cost is pinned to a
// small constant so scratch-reuse regressions (heap growth, lost
// pooling) surface as a count jump, not a silent GC treadmill.
const (
	// kernelSweepAllocs is the steady-state allocs/op of the blocked
	// similarity sweep over a reused destination buffer.
	kernelSweepAllocs = 0
	// topKRangeMaxAllocs bounds the sequential TopKRange steady state:
	// the returned match slice plus sort.Slice's closure machinery.
	topKRangeMaxAllocs = 4
	// encodeVectorMaxAllocs bounds EncodeVector: the quantized peak
	// list and the result words.
	encodeVectorMaxAllocs = 2
)

func allocSearcher(t *testing.T, d, n int, cc CascadeConfig) (*ShardedSearcher, BinaryHV) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	refs := make([]BinaryHV, n)
	for i := range refs {
		refs[i] = RandomBinaryHV(d, rng)
	}
	s, err := NewShardedSearcherCascade(refs, n, cc)
	if err != nil {
		t.Fatal(err)
	}
	return s, RandomBinaryHV(d, rng)
}

// allocLadders is the layout matrix both allocation gates run over:
// the single-tier store, the legacy two-tier alias, and deeper
// K-tier ladders (the descend-while-bounded sweep must stay
// allocation-free at any depth, not just the K=2 shape it grew out
// of). d=1024 → 16 packed words.
var allocLadders = []struct {
	name string
	cc   CascadeConfig
}{
	{"single-tier", CascadeConfig{}},
	{"two-tier", CascadeConfig{PrefilterWords: 4}},
	{"three-tier", CascadeConfig{Tiers: []int{2, 4, 10}}},
	{"four-tier", CascadeConfig{Tiers: []int{1, 3, 4, 8}}},
}

// TestKernelSweepAllocationFree gates the scoring kernel at zero
// steady-state allocations across the ladder layouts.
func TestKernelSweepAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-detector instrumentation")
	}
	for _, tc := range allocLadders {
		t.Run(tc.name, func(t *testing.T) {
			// One shard keeps the sweep on the sequential path: the
			// parallel fan-out's per-query goroutines allocate by design.
			s, q := allocSearcher(t, 1024, 4096, tc.cc)
			dst := s.SimilaritiesRangeInto(q, 0, s.Len(), nil)
			allocs := testing.AllocsPerRun(50, func() {
				dst = s.SimilaritiesRangeInto(q, 0, s.Len(), dst)
			})
			if allocs > kernelSweepAllocs {
				t.Errorf("similarity sweep allocates %.1f allocs/op in steady state, baseline %d",
					allocs, kernelSweepAllocs)
			}
		})
	}
}

// TestTopKRangeSteadyStateAllocs pins the sequential top-k range scan
// to its checked-in baseline across the ladder layouts.
func TestTopKRangeSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-detector instrumentation")
	}
	for _, tc := range allocLadders {
		t.Run(tc.name, func(t *testing.T) {
			s, q := allocSearcher(t, 1024, 4096, tc.cc)
			s.TopKRange(q, 0, s.Len(), 5)
			allocs := testing.AllocsPerRun(50, func() {
				s.TopKRange(q, 0, s.Len(), 5)
			})
			if allocs > topKRangeMaxAllocs {
				t.Errorf("TopKRange allocates %.1f allocs/op in steady state, baseline %d",
					allocs, topKRangeMaxAllocs)
			}
		})
	}
}

// TestEncodeVectorAllocs pins the encode path at its two inherent
// allocations — the quantized peak list and the result words; the
// kernel's counters live in registers and on the stack (no per-call
// accumulator), and its //oms:hotpath contract is enforced by omsvet.
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
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := e.EncodeVector(v); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > encodeVectorMaxAllocs {
		t.Errorf("EncodeVector allocates %.1f allocs/op, baseline %d", allocs, encodeVectorMaxAllocs)
	}
}
