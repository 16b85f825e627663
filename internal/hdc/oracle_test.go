package hdc

import (
	"container/heap"
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/obsv"
)

// naiveTopK is the original flat-scan, container/heap top-k over a
// reference slice. It is retained as the independent reference
// implementation the sweep is parity-tested against: it shares no
// kernel, heap or merge code with the engine.
func naiveTopK(refs []BinaryHV, d int, q BinaryHV, candidates []int, k int) []Match {
	if q.D != d {
		panic(fmt.Sprintf("hdc: query D=%d, searcher D=%d", q.D, d))
	}
	if k <= 0 {
		return nil
	}
	h := &matchHeap{}
	heap.Init(h)
	consider := func(i int) {
		sim := hammingSimilarity(q, refs[i])
		if h.Len() < k {
			heap.Push(h, Match{Index: i, Similarity: sim})
		} else if worse((*h)[0], Match{Index: i, Similarity: sim}) {
			(*h)[0] = Match{Index: i, Similarity: sim}
			heap.Fix(h, 0)
		}
	}
	if candidates == nil {
		for i := range refs {
			consider(i)
		}
	} else {
		for _, i := range candidates {
			if i >= 0 && i < len(refs) {
				consider(i)
			}
		}
	}
	out := make([]Match, h.Len())
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = heap.Pop(h).(Match)
	}
	return out
}

// matchHeap is a min-heap on match rank, keeping the current worst of
// the top-k at the root (used by the naive reference implementation).
type matchHeap []Match

func (h matchHeap) Len() int            { return len(h) }
func (h matchHeap) Less(i, j int) bool  { return worse(h[i], h[j]) }
func (h matchHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *matchHeap) Push(x interface{}) { *h = append(*h, x.(Match)) }
func (h *matchHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// rangeCands materializes [lo, hi) clamped to [0, n) as the candidate
// list of the flat-scan oracle (empty, non-nil when nothing is left:
// nil means "all references" to naiveTopK).
func rangeCands(lo, hi, n int) []int {
	out := []int{}
	for i := max(lo, 0); i < min(hi, n); i++ {
		out = append(out, i)
	}
	return out
}

// matchesEqual reports exact equality of two match lists, order and
// ties included.
func matchesEqual(a, b []Match) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func randomRefs(d, n int, seed int64) []BinaryHV {
	rng := rand.New(rand.NewSource(seed))
	refs := make([]BinaryHV, n)
	for i := range refs {
		refs[i] = RandomBinaryHV(d, rng)
	}
	return refs
}

// sweepBatch is Search under context.Background(), which never stops
// it, so it never fails.
func sweepBatch(s *ShardedSearcher, queries []BinaryHV, ranges []RowRange, k int, tr *obsv.Trace) [][]Match {
	out, err := s.Search(context.Background(), queries, ranges, k, tr)
	if err != nil {
		panic(err)
	}
	return out
}

// topKRange is a batch of one: the only way to search a single query.
func topKRange(s *ShardedSearcher, q BinaryHV, lo, hi, k int) []Match {
	return sweepBatch(s, []BinaryHV{q}, []RowRange{{Lo: lo, Hi: hi}}, k, nil)[0]
}

// nearDup returns a copy of hv with roughly rate of its bits flipped —
// a planted close match.
func nearDup(hv BinaryHV, rate float64, rng *rand.Rand) BinaryHV {
	c := hv.Clone()
	c.FlipBits(rate, rng)
	return c
}

// plantedFixture builds a reference set with, per query, a cluster of
// k planted near-duplicates at row i·n/(2·nq), so every query's best
// matches sit at known rows among random ones.
func plantedFixture(t testing.TB, d, n, nq, k int, seed int64) ([]BinaryHV, []BinaryHV) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	refs := make([]BinaryHV, n)
	for i := range refs {
		refs[i] = RandomBinaryHV(d, rng)
	}
	queries := make([]BinaryHV, nq)
	for i := range queries {
		queries[i] = RandomBinaryHV(d, rng)
		lo := (i * n) / (2 * nq)
		for j := 0; j < k && lo+j < n; j++ {
			refs[lo+j] = nearDup(queries[i], 0.03, rng)
		}
	}
	return refs, queries
}
