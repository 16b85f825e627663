package hdc

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// TestSweepLargeParallel exercises the concurrent multi-shard sweep
// (a full scan and a long range over many shards, several workers)
// against the naive scan.
func TestSweepLargeParallel(t *testing.T) {
	d, n := 256, 1<<13+100
	refs := randomRefs(d, n, 42)
	s, err := packedSearcher(refs, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if s.numShards() < 2 {
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

// TestSingleReferenceEdges pins the degenerate 1-reference store: the
// sweep must return one well-formed match for any
// k >= 1, and empty or out-of-range windows must stay empty — not
// panic or mis-size results.
func TestSingleReferenceEdges(t *testing.T) {
	refs := randomRefs(192, 1, 51)
	rng := rand.New(rand.NewSource(52))
	q := RandomBinaryHV(192, rng)
	s, err := packedSearcher(refs, 16)
	if err != nil {
		t.Fatal(err)
	}
	wantSim := hammingSimilarity(q, refs[0])
	for _, k := range []int{1, 5} {
		for _, got := range [][]Match{
			topKRange(s, q, 0, 1, k),
			topKRange(s, q, -3, 9, k),
		} {
			if len(got) != 1 || got[0] != (Match{Index: 0, Similarity: wantSim}) {
				t.Fatalf("k=%d: got %v, want the single reference at sim %d", k, got, wantSim)
			}
		}
	}
	if got := topKRange(s, q, 1, 1, 3); len(got) != 0 {
		t.Fatalf("empty range returned %v", got)
	}
	if got := topKRange(s, q, 5, 9, 3); len(got) != 0 {
		t.Fatalf("past-the-end range returned %v", got)
	}
	if got := sweepBatch(s, []BinaryHV{q, q}, []RowRange{{Lo: 0, Hi: 0}, {Lo: 2, Hi: 1}}, 3, nil); len(got[0]) != 0 || len(got[1]) != 0 {
		t.Fatalf("empty batch ranges returned %v", got)
	}
}

// TestCascadeExactParityParallel spreads a query's planted near-matches
// across a range of many shards, far into it and far apart, so several
// workers each hold one of the top k and the merge must bring them
// together; repeated trials catch a merge that depends on which worker
// finishes first. The name dates from when this pinned the pruning
// ladder's shared bound; it now holds the one sweep to the flat scan.
func TestCascadeExactParityParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("large reference set")
	}
	d, n, k := 512, 1<<13+3000, 4
	rng := rand.New(rand.NewSource(91))
	refs := make([]BinaryHV, n)
	for i := range refs {
		refs[i] = RandomBinaryHV(d, rng)
	}
	q := RandomBinaryHV(d, rng)
	for j := 0; j < k; j++ {
		refs[n/2+j*701] = nearDup(q, 0.02, rng)
	}
	s, err := packedSearcher(refs, 1024)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := 100, n-50
	want := naiveTopK(refs, d, q, rangeCands(lo, hi, n), k)
	for trial := 0; trial < 5; trial++ {
		if got := topKRange(s, q, lo, hi, k); !matchesEqual(got, want) {
			t.Fatalf("trial %d: parallel sweep diverged\ngot  %v\nwant %v", trial, got, want)
		}
	}
}

// TestCascadeConfigValidation pins constructor rejection of degenerate
// packed blocks and PackRows' refusal of rows of mixed widths. (The name
// dates from when the constructors also validated the pruning ladder's
// tier widths.)
func TestCascadeConfigValidation(t *testing.T) {
	if _, err := NewShardedSearcher(0, 0, nil, nil, make([]uint64, 4)); err == nil {
		t.Error("zero-dimension block accepted")
	}
	if _, err := NewShardedSearcher(-8, 0, nil, nil, make([]uint64, 4)); err == nil {
		t.Error("negative-dimension block accepted")
	}
	if _, err := NewShardedSearcher(128, 0, nil, nil, nil); err == nil {
		t.Error("empty block accepted")
	}
	if _, err := NewShardedSearcher(128, 0, nil, nil, make([]uint64, 5)); err == nil {
		t.Error("packed block of a partial row accepted")
	}
	for name, refs := range map[string][]BinaryHV{
		"mixed dimension": {RandomBinaryHV(128, rand.New(rand.NewSource(1))), RandomBinaryHV(192, rand.New(rand.NewSource(2)))},
		"short row":       {RandomBinaryHV(128, rand.New(rand.NewSource(1))), {D: 128, Words: make([]uint64, 1)}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("PackRows packed references of %s", name)
				}
			}()
			PackRows(refs)
		}()
	}
}

// TestCascadePackedRowAssembly pins that PackedRow returns every row
// bit-identical to its source hypervector, over a block of its own and
// over a view inside a larger buffer, at an odd word count (5).
func TestCascadePackedRowAssembly(t *testing.T) {
	refs := randomRefs(320, 41, 19)
	copied, err := packedSearcher(refs, 16)
	if err != nil {
		t.Fatal(err)
	}
	packed, err := NewShardedSearcher(320, 16, nil, nil, embeddedBlock(refs))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*ShardedSearcher{copied, packed} {
		for i, r := range refs {
			row := s.packedRow(i)
			if len(row) != len(r.Words) {
				t.Fatalf("row %d: %d words, want %d", i, len(row), len(r.Words))
			}
			for w := range row {
				if row[w] != r.Words[w] {
					t.Fatalf("row %d word %d: %#x != %#x", i, w, row[w], r.Words[w])
				}
			}
		}
	}
}

// TestLadderRunCompletion keeps the name and the row patterns of the
// test that drove the deleted pruning ladder through survivor runs of
// every shape. Each row shares 0, 8 or 16 of its 32 leading words with
// the query — none, all, alternating, in mixed runs, and in runs that
// end flush with a kernel block, a shard and the store — so the rows
// nearest the query sit where the block and shard walk turns. The
// sweep must return the flat scan's matches on both kernels, over a
// block of its own ("planes") and one inside a larger buffer
// ("packed"), and count every row of the range as swept.
func TestLadderRunCompletion(t *testing.T) {
	const d, n, shardSize, k = 2048, 1500, 600, 3
	shared := []int{0, 8, 16}  // leading words copied from the query, by depth
	block := blockRows(d / 64) // 64: shard 0 is blocks of 64 rows up to 576, then 24 rows
	r := RowRange{Lo: block - k, Hi: n}
	within := func(row, lo, hi int) bool { return lo <= row && row < hi }
	cases := []struct {
		name  string
		depth func(row int) int
	}{
		{"none", func(int) int { return 0 }},
		{"all", func(int) int { return 2 }},
		{"alternating", func(row int) int { return 2 * (row % 2) }},
		{"per-tier", func(row int) int { return row % 3 }},
		{"block-end", func(row int) int {
			if within(row, 2*block-12, 2*block) {
				return 2
			}
			if within(row, 2*block-22, 2*block) {
				return 1
			}
			return 0
		}},
		{"shard-end", func(row int) int {
			if within(row, shardSize-10, shardSize+3) || within(row, 2*shardSize-9, 2*shardSize) {
				return 2
			}
			return 0
		}},
		{"store-end", func(row int) int {
			if within(row, n-11, n) {
				return 2
			}
			return 0
		}},
	}
	for ci, c := range cases {
		rng := rand.New(rand.NewSource(int64(100 + ci)))
		q := RandomBinaryHV(d, rng)
		refs := make([]BinaryHV, n)
		for row := range refs {
			refs[row] = RandomBinaryHV(d, rng)
			copy(refs[row].Words[:shared[c.depth(row)]], q.Words)
		}
		want := naiveTopK(refs, d, q, rangeCands(r.Lo, r.Hi, n), k)
		for _, kernel := range []string{"dispatched", "go"} {
			for _, store := range []string{"planes", "packed"} {
				t.Run(c.name+"/"+kernel+"/"+store, func(t *testing.T) {
					if kernel == "go" {
						useGoKernel(t)
					}
					s, err := packedSearcher(refs, shardSize)
					if store == "packed" {
						s, err = NewShardedSearcher(d, shardSize, nil, nil, embeddedBlock(refs))
					}
					if err != nil {
						t.Fatal(err)
					}
					if s.block != block {
						t.Fatalf("kernel block is %d rows, the patterns were laid out for %d", s.block, block)
					}
					if got := topKRange(s, q, r.Lo, r.Hi, k); !matchesEqual(got, want) {
						t.Fatalf("matches diverged from the flat scan\ngot  %v\nwant %v", got, want)
					}
					if got := s.RowsSwept(0); got != uint64(r.Len()) {
						t.Fatalf("RowsSwept = %d over a range of %d rows", got, r.Len())
					}
				})
			}
		}
	}
}

// numShards returns the shard count.
func (s *ShardedSearcher) numShards() int { return len(s.shards) }

// hiding is a searcher over s's blocks and tie order that hides rows
// (in place of any s hides).
func (s *ShardedSearcher) hiding(rows []int) *ShardedSearcher {
	var blocks [][]uint64
	for i, sh := range s.shards {
		if i == 0 || s.shards[i-1].span != sh.span {
			blocks = append(blocks, sh.rows) // a span's first shard runs to its end
		}
	}
	h, err := NewShardedSearcher(s.d, s.shardSize, rows, s.tie, blocks...)
	if err != nil {
		panic(err)
	}
	return h
}

// packedRow returns a freshly allocated copy of the packed words of
// reference row i exactly as stored in the engine. It panics with a
// descriptive message on an out-of-range index.
func (s *ShardedSearcher) packedRow(i int) []uint64 {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("hdc: reference index %d out of range [0, %d)", i, s.n))
	}
	sh := s.shards[s.shardOf(i)]
	return slices.Clone(sh.rows[(i-sh.lo)*s.words:][:s.words])
}
