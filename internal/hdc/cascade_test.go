package hdc

import (
	"math/rand"
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
