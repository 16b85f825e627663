package hdc

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestNewShardedSearcherValidation(t *testing.T) {
	if _, err := NewShardedSearcher(64, 0, nil, nil, nil); err == nil {
		t.Error("empty reference set accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("mixed dimensions packed")
		}
	}()
	PackRows([]BinaryHV{NewBinaryHV(64), NewBinaryHV(65)})
}

func TestTopKFindsPlantedMatch(t *testing.T) {
	refs := randomRefs(2048, 200, 1)
	s, err := packedSearcher(refs, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	// Query = noisy copy of reference 123.
	q := refs[123].Clone()
	for _, i := range rng.Perm(q.D)[:100] {
		q.SetBit(i, q.Bit(i) < 0)
	}
	top := topKRange(s, q, 0, s.Len(), 5)
	if len(top) != 5 {
		t.Fatalf("topk len = %d", len(top))
	}
	if top[0].Index != 123 {
		t.Errorf("best match = %d, want 123", top[0].Index)
	}
	if top[0].Similarity != 2048-100 {
		t.Errorf("best similarity = %d, want %d", top[0].Similarity, 1948)
	}
	for i := 1; i < len(top); i++ {
		if top[i-1].Similarity < top[i].Similarity {
			t.Error("results not sorted by similarity")
		}
	}
}

// TestTopKRangeRestriction pins that a range is a hard restriction: a
// perfect match outside it never appears, and inside it ranks first.
func TestTopKRangeRestriction(t *testing.T) {
	refs := randomRefs(1024, 50, 3)
	s, _ := packedSearcher(refs, 16)
	q := refs[10].Clone()
	for _, r := range []RowRange{{Lo: 0, Hi: 10}, {Lo: 11, Hi: 50}} {
		for _, m := range topKRange(s, q, r.Lo, r.Hi, 3) {
			if m.Index < r.Lo || m.Index >= r.Hi {
				t.Fatalf("range %+v returned row %d", r, m.Index)
			}
		}
	}
	top := topKRange(s, q, 5, 30, 3)
	if top[0].Index != 10 || top[0].Similarity != 1024 {
		t.Errorf("self match = %+v", top[0])
	}
}

func TestTopKTieBreaksByIndex(t *testing.T) {
	// Three identical references: ties resolve to ascending index.
	base := NewBinaryHV(64)
	refs := []BinaryHV{base.Clone(), base.Clone(), base.Clone()}
	s, _ := packedSearcher(refs, 0)
	top := topKRange(s, base, 0, 3, 2)
	if top[0].Index != 0 || top[1].Index != 1 {
		t.Errorf("tie break wrong: %+v", top)
	}
}

func TestTopKMatchesBruteForceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 64 + rng.Intn(256)
		n := 5 + rng.Intn(60)
		k := 1 + rng.Intn(10)
		refs := randomRefs(d, n, seed+1)
		s, _ := packedSearcher(refs, 1+rng.Intn(n))
		q := RandomBinaryHV(d, rng)
		got := topKRange(s, q, 0, n, k)
		// Brute force.
		all := make([]Match, n)
		for i := range refs {
			all[i] = Match{Index: i, Similarity: hammingSimilarity(q, refs[i])}
		}
		sort.Slice(all, func(i, j int) bool { return worse(all[j], all[i], nil) })
		if k > n {
			k = n
		}
		if len(got) != k {
			return false
		}
		for i := 0; i < k; i++ {
			if got[i] != all[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestSearcherAccessors(t *testing.T) {
	refs := randomRefs(128, 9, 9)
	s, _ := packedSearcher(refs, 4)
	if s.Len() != 9 || s.d != 128 || s.numShards() != 3 {
		t.Errorf("accessors: len=%d d=%d shards=%d", s.Len(), s.d, s.numShards())
	}
}
