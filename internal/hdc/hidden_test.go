package hdc

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// visibleCands is rangeCands without the hidden rows: the candidate
// list the flat-scan oracle sees when the sweep masks `hidden`.
func visibleCands(lo, hi, n int, hidden []int) []int {
	out := []int{}
	for _, r := range rangeCands(lo, hi, n) {
		if !slices.Contains(hidden, r) {
			out = append(out, r)
		}
	}
	return out
}

// packedSearcher is NewShardedSearcher over refs packed into a fresh
// block of their own.
func packedSearcher(refs []BinaryHV, shardSize int) (*ShardedSearcher, error) {
	return NewShardedSearcher(PackRows(refs), refs[0].D, shardSize)
}

// embeddedBlock packs refs into a view with all-ones words on either
// side (len == cap) — one partition's rows inside a larger index image —
// so a sweep that strays past its rows scores words that are not theirs.
func embeddedBlock(refs []BinaryHV) []uint64 {
	const pad = 3
	block := PackRows(refs)
	buf := make([]uint64, len(block)+2*pad)
	for i := range buf {
		buf[i] = ^uint64(0)
	}
	copy(buf[pad:], block)
	return buf[pad : pad+len(block) : pad+len(block)]
}

// TestHiddenRowsMatchOracle holds the masked sweep to naiveTopK over
// the visible rows only. The hidden list sits on every edge the run
// walk can trip over — the first and last row of a kernel block (64
// rows at 2048 bits, 256 at 512), of a shard, of the store and
// of a query range, a run of consecutive rows across a block boundary,
// a range hidden whole, a range with fewer visible rows than k — and is
// handed to Hide shuffled and with repeats. Every query's best matches
// are planted on hidden rows, so a sweep that lets one through cannot
// pass. Both row widths, a block of its own ("copied") and one inside a
// larger buffer ("packed"), a batch of 64 and each query as a batch of
// one, both kernels.
func TestHiddenRowsMatchOracle(t *testing.T) {
	hiddenRowsMatchOracle(t)
	t.Run("go-kernel", func(t *testing.T) {
		useGoKernel(t)
		hiddenRowsMatchOracle(t)
	})
}

func hiddenRowsMatchOracle(t *testing.T) {
	const d, n, shard, nq = 2048, 900, 320, 64
	hidden := []int{
		0, n - 1, // the store's edges
		63, 64, 127, 128, 255, 256, // kernel block edges
		shard - 1, shard, 2*shard - 1, 2 * shard, // shard edges
		700, 709, // both edges of range 700..710
		720, 721, 723, 724, 726, 727, 729, // range 720..730 keeps 3 rows
	}
	for r := 180; r < 200; r++ { // a run across the block edge at 192
		hidden = append(hidden, r)
	}
	for r := 400; r < 420; r++ { // range 400..420 is hidden whole
		hidden = append(hidden, r)
	}
	ranges := []RowRange{
		{Lo: 0, Hi: n},
		{Lo: -5, Hi: n + 5},
		{Lo: 400, Hi: 420}, // nothing visible
		{Lo: 700, Hi: 710}, // first and last row hidden
		{Lo: 720, Hi: 730}, // 3 visible rows, fewer than k
		{Lo: 100, Hi: 330}, // crosses the run and a shard edge
		{Lo: 64, Hi: 128},  // one kernel block, both edge rows hidden
		{Lo: 390, Hi: 430}, // the hidden stretch in the middle
		{Lo: 500, Hi: 600}, // no hidden row at all
	}
	rng := rand.New(rand.NewSource(5))
	refs := randomRefs(d, n, 6)
	queries := make([]BinaryHV, nq)
	qRanges := make([]RowRange, nq)
	for i := range queries {
		queries[i] = RandomBinaryHV(d, rng)
		qRanges[i] = ranges[i%len(ranges)]
	}
	// Plant each distinct range's first query on up to six of its hidden
	// rows (closest) and on one visible row (a little farther).
	for i, r := range ranges {
		planted := 0
		for _, h := range hidden {
			if h >= r.Lo && h < r.Hi && planted < 6 {
				refs[h] = nearDup(queries[i], 0.01, rng)
				planted++
			}
		}
		if vis := visibleCands(r.Lo, r.Hi, n, hidden); len(vis) > 0 {
			refs[vis[len(vis)/2]] = nearDup(queries[i], 0.05, rng)
		}
	}
	shuffled := append(append([]int{}, hidden...), hidden[3:11]...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })

	// The tiers-8-24 leg keeps the name of the ladder layout it once
	// ran: it sweeps each row's first 8 words — that ladder's first tier —
	// as a 512-bit store, whose 256-row kernel blocks put hidden rows 255
	// and 256 on a block edge, as the ladder's blocks did.
	for _, lay := range []struct {
		name  string
		d     int
		block int
	}{
		{"single-tier", d, 64},
		{"tiers-8-24", 512, 256},
	} {
		lrefs, lqueries := prefixHVs(refs, lay.d), prefixHVs(queries, lay.d)
		for _, store := range []string{"copied", "packed"} {
			for _, k := range []int{1, 5} {
				t.Run(fmt.Sprintf("%s/%s/k=%d", lay.name, store, k), func(t *testing.T) {
					var s *ShardedSearcher
					var err error
					if store == "copied" {
						s, err = packedSearcher(lrefs, shard)
					} else {
						s, err = NewShardedSearcher(embeddedBlock(lrefs), lay.d, shard)
					}
					if err != nil {
						t.Fatal(err)
					}
					if s.block != lay.block {
						t.Fatalf("kernel block is %d rows, the hidden list was laid out for %d", s.block, lay.block)
					}
					s.Hide(shuffled)
					if !slices.Equal(s.hidden, slices.Compact(slices.Sorted(slices.Values(hidden)))) {
						t.Fatalf("Hide kept %v", s.hidden)
					}
					check := func(path string, qi int, got []Match) {
						t.Helper()
						want := naiveTopK(lrefs, lay.d, lqueries[qi], visibleCands(qRanges[qi].Lo, qRanges[qi].Hi, n, hidden), k)
						if got == nil || !matchesEqual(got, want) {
							t.Fatalf("%s: query %d range %+v\ngot  %v\nwant %v", path, qi, qRanges[qi], got, want)
						}
					}
					sweptBefore := s.RowsSwept()
					for qi, got := range sweepBatch(s, lqueries, qRanges, k, nil) {
						check("batch of 64", qi, got)
					}
					// Hidden rows are still swept, and counted as such.
					var rows uint64
					for _, r := range qRanges {
						rows += uint64(r.Clamp(n).Len())
					}
					if got := s.RowsSwept() - sweptBefore; got != rows {
						t.Errorf("RowsSwept advanced by %d over ranges holding %d rows", got, rows)
					}
					for qi := range lqueries[:len(ranges)] {
						check("batch of one", qi, topKRange(s, lqueries[qi], qRanges[qi].Lo, qRanges[qi].Hi, k))
					}
					// Unhiding restores the plain sweep.
					s.Hide(nil)
					want := naiveTopK(lrefs, lay.d, lqueries[0], rangeCands(0, n, n), k)
					if got := topKRange(s, lqueries[0], 0, n, k); !matchesEqual(got, want) {
						t.Fatalf("after Hide(nil)\ngot  %v\nwant %v", got, want)
					}
				})
			}
		}
	}
}

// prefixHVs cuts each hypervector to its first d dimensions, d a
// multiple of 64; the words are shared, not copied.
func prefixHVs(hvs []BinaryHV, d int) []BinaryHV {
	out := make([]BinaryHV, len(hvs))
	for i, hv := range hvs {
		out[i] = BinaryHV{D: d, Words: hv.Words[:WordsPerHV(d)]}
	}
	return out
}

// TestHideIgnoresRowsOutsideTheStore: a hidden row the store does not
// hold hides nothing and disturbs nothing.
func TestHideIgnoresRowsOutsideTheStore(t *testing.T) {
	const d, n = 64, 10
	refs := randomRefs(d, n, 1)
	s, err := packedSearcher(refs, 4)
	if err != nil {
		t.Fatal(err)
	}
	s.Hide([]int{-3, 2, n, n + 7})
	want := naiveTopK(refs, d, refs[2], visibleCands(0, n, n, []int{2}), n)
	if got := topKRange(s, refs[2], -5, n+5, n); !matchesEqual(got, want) {
		t.Fatalf("got  %v\nwant %v", got, want)
	}
}

// FuzzHiddenRows draws a store geometry, a hidden set and a batch of
// ranges from the seed and holds the sweep to the oracle.
func FuzzHiddenRows(f *testing.F) {
	f.Add(int64(1), uint16(40), uint8(3))
	f.Add(int64(2), uint16(0), uint8(1))
	f.Add(int64(3), uint16(600), uint8(9))
	f.Fuzz(func(t *testing.T, seed int64, nHidden uint16, k8 uint8) {
		const d = 256 // 4 words: 512-row kernel blocks
		rng := rand.New(rand.NewSource(seed))
		n, k := 1+rng.Intn(3000), 1+int(k8)%12
		refs := randomRefs(d, n, seed+1)
		hidden := make([]int, int(nHidden)%(n+1))
		for i := range hidden {
			hidden[i] = rng.Intn(n)
		}
		queries := make([]BinaryHV, 6)
		ranges := make([]RowRange, len(queries))
		for i := range queries {
			queries[i] = RandomBinaryHV(d, rng)
			lo := rng.Intn(n)
			ranges[i] = RowRange{Lo: lo, Hi: lo + rng.Intn(n-lo+1)}
			if len(hidden) > 0 { // make the hidden rows the ones worth returning
				refs[hidden[rng.Intn(len(hidden))]] = nearDup(queries[i], 0.02, rng)
			}
		}
		s, err := packedSearcher(refs, 1+rng.Intn(n))
		if err != nil {
			t.Fatal(err)
		}
		s.Hide(hidden)
		for qi, got := range sweepBatch(s, queries, ranges, k, nil) {
			want := naiveTopK(refs, d, queries[qi], visibleCands(ranges[qi].Lo, ranges[qi].Hi, n, hidden), k)
			if !matchesEqual(got, want) {
				t.Fatalf("shard %d: query %d range %+v hidden %v\ngot  %v\nwant %v",
					s.shardSize, qi, ranges[qi], hidden, got, want)
			}
		}
	})
}

// BenchmarkSweepHidden sweeps 64 queries, each over a 10 000-row window
// of a 40 000-row store at D = 2048 and k = 1 — the benchmark's
// serve-open shape — with 0, 64 and 1 024 rows hidden at random. Hidden
// rows cost only a merge step against the rows the kernel admits, so
// the three legs' ns per XOR+popcount word must read alike.
func BenchmarkSweepHidden(b *testing.B) {
	const d, n, nq, window = 2048, 40_000, 64, 10_000
	refs := randomRefs(d, n, 7)
	rng := rand.New(rand.NewSource(8))
	queries := make([]BinaryHV, nq)
	ranges := make([]RowRange, nq)
	for i := range queries {
		queries[i] = RandomBinaryHV(d, rng)
		lo := i * (n - window) / nq
		ranges[i] = RowRange{Lo: lo, Hi: lo + window}
	}
	for _, nHidden := range []int{0, 64, 1024} {
		b.Run(fmt.Sprintf("hidden=%d", nHidden), func(b *testing.B) {
			s, err := packedSearcher(refs, 0)
			if err != nil {
				b.Fatal(err)
			}
			s.Hide(rng.Perm(n)[:nHidden])
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sweepBatch(s, queries, ranges, 1, nil)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*nq*window*WordsPerHV(d)), "ns/word")
		})
	}
}
