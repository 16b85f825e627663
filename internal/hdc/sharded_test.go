package hdc

import (
	"math/rand"
	"testing"
)

// TestSweepLargeParallel exercises the concurrent multi-shard sweep
// (a full scan and a long range over many shards, several workers)
// against the naive scan.
func TestSweepLargeParallel(t *testing.T) {
	d, n := 256, 1<<13+100
	refs := randomRefs(d, n, 42)
	s, err := NewShardedSearcher(refs, 1024, CascadeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if s.NumShards() < 2 {
		t.Fatal("test needs multiple shards")
	}
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 3; trial++ {
		q := RandomBinaryHV(d, rng)
		for _, r := range []RowRange{{Lo: 0, Hi: n}, {Lo: 100, Hi: n - 700}} {
			want := naiveTopK(refs, d, q, rangeCands(r.Lo, r.Hi, n), 10)
			if got := topKRange(s, q, r.Lo, r.Hi, 10); !matchesEqual(got, want) {
				t.Fatalf("range %+v diverged:\ngot  %v\nwant %v", r, got, want)
			}
		}
	}
}

// TestSingleReferenceEdges pins the degenerate 1-reference store
// across layouts: the sweep must return one well-formed match for any
// k >= 1, and empty or out-of-range windows must stay empty — not
// panic or mis-size results.
func TestSingleReferenceEdges(t *testing.T) {
	refs := randomRefs(192, 1, 51)
	rng := rand.New(rand.NewSource(52))
	q := RandomBinaryHV(192, rng)
	for _, cc := range []CascadeConfig{{}, {Tiers: []int{1}}} {
		s, err := NewShardedSearcher(refs, 16, cc)
		if err != nil {
			t.Fatalf("%+v: %v", cc, err)
		}
		wantSim := HammingSimilarity(q, refs[0])
		for _, k := range []int{1, 5} {
			for _, got := range [][]Match{
				topKRange(s, q, 0, 1, k),
				topKRange(s, q, -3, 9, k),
			} {
				if len(got) != 1 || got[0] != (Match{Index: 0, Similarity: wantSim}) {
					t.Fatalf("%+v k=%d: got %v, want the single reference at sim %d", cc, k, got, wantSim)
				}
			}
		}
		if got := topKRange(s, q, 1, 1, 3); len(got) != 0 {
			t.Fatalf("%+v: empty range returned %v", cc, got)
		}
		if got := topKRange(s, q, 5, 9, 3); len(got) != 0 {
			t.Fatalf("%+v: past-the-end range returned %v", cc, got)
		}
		if got := s.BatchTopKRange([]BinaryHV{q, q}, []RowRange{{Lo: 0, Hi: 0}, {Lo: 2, Hi: 1}}, 3); len(got[0]) != 0 || len(got[1]) != 0 {
			t.Fatalf("%+v: empty batch ranges returned %v", cc, got)
		}
	}
}
