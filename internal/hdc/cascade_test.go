package hdc

import (
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"
)

// nearDup returns a copy of hv with roughly rate of its bits flipped —
// a planted close match, the workload shape under which the exact
// cascade bound actually prunes (the k-th-best distance drops below
// what the tier-A prefix of a random row can reach).
func nearDup(hv BinaryHV, rate float64, rng *rand.Rand) BinaryHV {
	c := hv.Clone()
	c.FlipBits(rate, rng)
	return c
}

// cascadeFixture builds a reference set with, per query, a cluster of
// planted near-duplicates inside [plantLo, plantLo+k), so the exact
// pruning bound fires.
func cascadeFixture(t testing.TB, d, n, nq, k int, seed int64) ([]BinaryHV, []BinaryHV) {
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

// TestCascadeExactParityParallel exercises the shared atomic pruning
// bound: a range spanning many shards, with the planted cluster far
// into the range so the bound must propagate across shard workers
// without breaking exactness.
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
	base, err := NewShardedSearcher(refs, 1024, CascadeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	casc, err := NewShardedSearcher(refs, 1024, CascadeConfig{Tiers: []int{2}})
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 5; trial++ {
		lo, hi := 100, n-50
		got := topKRange(casc, q, lo, hi, k)
		want := topKRange(base, q, lo, hi, k)
		if !matchesEqual(got, want) {
			t.Fatalf("trial %d: parallel cascade diverged\ngot  %v\nwant %v", trial, got, want)
		}
	}
	if cs, ok := casc.CascadeStats(); !ok || cs.Prefiltered() == 0 {
		t.Fatalf("cascade stats = %+v, ok=%v; want counters accumulating", cs, ok)
	}
}

// TestCascadeStatsCounters pins the pruning telemetry: counters
// accumulate on cascade scans, completions never exceed prefilters,
// pruning actually happens on the planted-cluster workload, and a
// single-tier searcher reports ok=false.
func TestCascadeStatsCounters(t *testing.T) {
	d, n, nq, k := 512, 800, 4, 3
	refs, queries := cascadeFixture(t, d, n, nq, k, 13)
	casc, err := NewShardedSearcher(refs, 128, CascadeConfig{Tiers: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	ranges := make([]RowRange, nq)
	for i := range ranges {
		ranges[i] = RowRange{Lo: 0, Hi: n}
	}
	casc.BatchTopKRange(queries, ranges, k)
	cs, ok := casc.CascadeStats()
	if !ok {
		t.Fatal("cascade searcher reports no cascade stats")
	}
	if cs.Prefiltered() != uint64(nq*n) {
		t.Fatalf("prefiltered %d, want %d", cs.Prefiltered(), nq*n)
	}
	if cs.Completed() > cs.Prefiltered() {
		t.Fatalf("completed %d > prefiltered %d", cs.Completed(), cs.Prefiltered())
	}
	if cs.NumTiers() != 2 {
		t.Fatalf("two-tier searcher reports %d tier counters", cs.NumTiers())
	}
	if cs.PruneRate() <= 0 {
		t.Fatalf("prune rate %.3f on a planted-cluster workload, want > 0 (stats %+v)", cs.PruneRate(), cs)
	}
	if base, _ := NewShardedSearcher(refs, 128, CascadeConfig{}); base != nil {
		if _, ok := base.CascadeStats(); ok {
			t.Fatal("single-tier searcher claims cascade stats")
		}
	}
}

// TestCascadeConfigValidation pins constructor rejection of
// malformed cascade configs and degenerate reference sets.
func TestCascadeConfigValidation(t *testing.T) {
	refs := randomRefs(128, 10, 3)
	if _, err := NewShardedSearcher([]BinaryHV{{D: 0}}, 0, CascadeConfig{}); err == nil {
		t.Error("zero-dimension reference accepted")
	}
	if _, err := NewShardedSearcher([]BinaryHV{{D: -8, Words: nil}}, 0, CascadeConfig{}); err == nil {
		t.Error("negative-dimension reference accepted")
	}
	words := WordsPerHV(128)
	if _, err := NewShardedSearcher(refs, 0, CascadeConfig{Tiers: []int{1, 0, 1}}); err == nil {
		t.Error("non-positive tier width accepted")
	}
	if _, err := NewShardedSearcher(refs, 0, CascadeConfig{Tiers: []int{words, 1}}); err == nil {
		t.Error("tier ladder wider than the row accepted")
	}
}

// TestCascadeLadderExactParity pins the tentpole exactness contract:
// every K-tier ladder — including unbalanced ones — returns results
// bit-identical to the single-tier scan, alone and in a batch, and its
// per-tier counters are monotonically non-increasing down the ladder.
func TestCascadeLadderExactParity(t *testing.T) {
	d, n, nq, k := 512, 900, 5, 4
	words := WordsPerHV(d) // 8
	refs, queries := cascadeFixture(t, d, n, nq, k, 41)
	base, err := NewShardedSearcher(refs, 128, CascadeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ranges := make([]RowRange, nq)
	for i := range ranges {
		lo := (i * n) / (2 * nq)
		ranges[i] = RowRange{Lo: max(0, lo-7), Hi: min(n, lo+2*n/3)}
	}
	ladders := [][]int{
		{words},              // K=1 (explicit single tier)
		{2, words - 2},       // K=2, the classic cascade
		{1, 2, words - 3},    // K=3
		{1, 1, 2, words - 4}, // K=4
		{1, 3},               // K=2 with an implicit remainder tier
	}
	for _, tiers := range ladders {
		casc, err := NewShardedSearcher(refs, 128, CascadeConfig{Tiers: append([]int(nil), tiers...)})
		if err != nil {
			t.Fatalf("tiers %v: %v", tiers, err)
		}
		batch := casc.BatchTopKRange(queries, ranges, k)
		for qi, q := range queries {
			want := topKRange(base, q, ranges[qi].Lo, ranges[qi].Hi, k)
			if !matchesEqual(batch[qi], want) {
				t.Fatalf("tiers %v query %d: batch diverged\ngot  %v\nwant %v", tiers, qi, batch[qi], want)
			}
			single := topKRange(casc, q, ranges[qi].Lo, ranges[qi].Hi, k)
			if !matchesEqual(single, want) {
				t.Fatalf("tiers %v query %d: batch of one diverged\ngot  %v\nwant %v", tiers, qi, single, want)
			}
		}
		cs, ok := casc.CascadeStats()
		if len(tiers) == 1 && tiers[0] == words {
			if ok {
				t.Fatalf("tiers %v: single-tier ladder claims cascade stats", tiers)
			}
			continue
		}
		if !ok {
			t.Fatalf("tiers %v: no cascade stats", tiers)
		}
		if cs.NumTiers() != casc.NumTiers() {
			t.Fatalf("tiers %v: stats depth %d, searcher depth %d", tiers, cs.NumTiers(), casc.NumTiers())
		}
		for ti := 1; ti < cs.NumTiers(); ti++ {
			if cs.TierRows[ti] > cs.TierRows[ti-1] {
				t.Fatalf("tiers %v: tier rows increase down the ladder: %v", tiers, cs.TierRows)
			}
		}
		if cs.Prefiltered() == 0 || cs.PruneRate() <= 0 {
			t.Fatalf("tiers %v: no pruning on planted-cluster workload (stats %+v)", tiers, cs)
		}
	}
}

// TestCascadePackedRowAssembly pins that PackedRow reassembles the
// tiered store bit-identically to the source hypervectors.
func TestCascadePackedRowAssembly(t *testing.T) {
	refs := randomRefs(320, 41, 19) // 5 words: odd split exercises both tiers
	casc, err := NewShardedSearcher(refs, 16, CascadeConfig{Tiers: []int{2}})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range refs {
		row := casc.PackedRow(i)
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

// refDescentRows is the descent one row and one tier at a time — the
// loop the run-completing descendBlock replaced — reduced to the rows
// it scores per tier for one query over one range, shards and blocks
// visited in order: tier 0 and the intermediate tiers filter against the
// bound as of the block start (this shard's k-th-best distance or the
// one earlier shards published, whichever is tighter), the final tier
// against the bound as of the row.
func refDescentRows(refs []BinaryHV, q BinaryHV, r RowRange, k, shardSize int, tiers []int) []uint64 {
	tierDist := func(row, t int) int {
		off := 0
		for _, w := range tiers[:t] {
			off += w
		}
		dist := 0
		for w := off; w < off+tiers[t]; w++ {
			dist += bits.OnesCount64(refs[row].Words[w] ^ q.Words[w])
		}
		return dist
	}
	counts := make([]uint64, len(tiers))
	last, block := len(tiers)-1, blockRows(tiers[0])
	shared := math.MaxInt
	for shLo := 0; shLo < len(refs); shLo += shardSize {
		var best []int // this shard's k smallest distances, ascending
		bound := func() int {
			if len(best) < k {
				return shared
			}
			return min(shared, best[k-1])
		}
		for bLo := shLo; bLo < min(shLo+shardSize, len(refs)); bLo += block {
			db := bound()
			for row := max(bLo, r.Lo); row < min(bLo+block, shLo+shardSize, r.Hi); row++ {
				dist := 0
				for t := 0; t <= last; t++ {
					if t == last {
						db = bound()
					}
					if t > 0 && dist > db {
						break
					}
					counts[t]++
					dist += tierDist(row, t)
					if t == last {
						best = append(best, dist)
						sort.Ints(best)
						best = best[:min(len(best), k)]
					}
				}
			}
			// A block publishes its shard's bound when it leaves.
			shared = bound()
		}
	}
	return counts
}

// TestLadderRunCompletion drives the ladder descent through survivor
// patterns chosen for the shape of their runs — none, a whole block,
// runs of one, runs that differ between tiers, runs ending flush with a
// kernel block, a shard and the store — and requires the single-tier
// searcher's matches and the per-row descent's per-tier row counts, on
// both kernels, over private tier planes and over a packed block whose
// deep tiers are strided at the full row width.
//
// The k seed rows (exact copies of the query, the only rows of the
// range's first block) pin the bound at zero from the second block on,
// so a row survives tier t exactly when its words up to tier t are the
// query's: depth(row) tiers of it are.
func TestLadderRunCompletion(t *testing.T) {
	const d, n, shardSize, k = 2048, 1500, 600, 3
	tiers := []int{8, 8, 16}
	block := blockRows(tiers[0]) // 256: shard 0 is blocks [0,256) [256,512) [512,600)
	within := func(row, lo, hi int) bool { return lo <= row && row < hi }
	cases := []struct {
		name  string
		depth func(row int) int
	}{
		{"none", func(int) int { return 0 }},
		{"all", func(int) int { return 2 }},
		{"alternating", func(row int) int { return 2 * (row % 2) }},
		{"per-tier", func(row int) int { return row % 3 }}, // tier 1 in runs of two, tier 2 of one
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
	// One worker sweeps the shards in order, as the reference does.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for ci, c := range cases {
		rng := rand.New(rand.NewSource(int64(100 + ci)))
		q := RandomBinaryHV(d, rng)
		r := RowRange{Lo: block - k, Hi: n}
		refs := make([]BinaryHV, n)
		var packed []uint64
		for row := range refs {
			refs[row] = RandomBinaryHV(d, rng)
			keep := 0 // leading words copied from the query
			if within(row, r.Lo, block) {
				keep = len(q.Words)
			} else if row >= block {
				for _, w := range tiers[:c.depth(row)] {
					keep += w
				}
			}
			copy(refs[row].Words[:keep], q.Words)
			packed = append(packed, refs[row].Words...)
		}
		single, err := NewShardedSearcher(refs, shardSize, CascadeConfig{})
		if err != nil {
			t.Fatal(err)
		}
		want := topKRange(single, q, r.Lo, r.Hi, k)
		wantRows := refDescentRows(refs, q, r, k, shardSize, tiers)
		for _, kernel := range []string{"dispatched", "go"} {
			for _, store := range []string{"planes", "packed"} {
				t.Run(c.name+"/"+kernel+"/"+store, func(t *testing.T) {
					if kernel == "go" {
						useGoKernel(t)
					}
					cc := CascadeConfig{Tiers: tiers[:2]} // the last tier is the remainder
					casc, err := NewShardedSearcher(refs, shardSize, cc)
					if store == "packed" {
						casc, err = NewShardedSearcherFromPacked(packed, d, shardSize, cc)
					}
					if err != nil {
						t.Fatal(err)
					}
					if got := topKRange(casc, q, r.Lo, r.Hi, k); !matchesEqual(got, want) {
						t.Fatalf("matches diverged from the single-tier searcher\ngot  %v\nwant %v", got, want)
					}
					if cs, _ := casc.CascadeStats(); !slices.Equal(cs.TierRows, wantRows) {
						t.Fatalf("tier rows %v, per-row descent %v", cs.TierRows, wantRows)
					}
				})
			}
		}
	}
}
