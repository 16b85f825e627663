package hdc

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obsv"
)

// DefaultShardSize is the reference-row count per shard when the
// caller does not pick one. 2048 rows keeps one shard's packed words
// within a few MB at the paper's D=8192 (2048 rows × 128 words × 8 B
// = 2 MiB), streaming through L2/L3 rather than thrashing it.
const DefaultShardSize = 2048

// kernelBlockBytes is the packed-word footprint the scoring kernel
// targets per row block. Batch search sweeps every query over one row
// block before advancing, so a block is sized to stay L1-resident
// across the query sweep (16 KiB block + query words + similarity
// buffer fit a 32 KiB L1d) and the packed reference store streams
// from memory once per batch rather than once per query. Under a
// tiered cascade layout the swept tier is tier 0, so blocks are sized
// by the tier-0 row stride.
const kernelBlockBytes = 16 << 10

// blockRows returns the rows per kernel block for a word width.
func blockRows(words int) int {
	r := kernelBlockBytes / (words * 8)
	if r < 8 {
		return 8
	}
	return r
}

// CascadeConfig selects the K-tier pruned cascade layout — the
// software articulation of the paper's cascaded-precision deployment
// (cheap low-precision passes prune the candidate field before the
// expensive high-precision completion).
type CascadeConfig struct {
	// Tiers is the cascade ladder: Tiers[t] is the packed word width of
	// tier t, descended in order. Every entry must be positive and the
	// widths must sum to at most the per-row word count; a sum short of
	// the row implicitly appends one remainder tier. A single tier
	// covering the whole row, like an empty ladder, is the single-tier
	// layout.
	Tiers []int
}

// normalizeTiers resolves a CascadeConfig into the per-tier word
// widths over a row of `words` packed words (len >= 1; len == 1 is
// the single-tier layout).
func normalizeTiers(cc CascadeConfig, words int) ([]int, error) {
	sum := 0
	for t, w := range cc.Tiers {
		if w <= 0 {
			return nil, fmt.Errorf("hdc: cascade tier %d has non-positive width %d words", t, w)
		}
		sum += w
	}
	if sum > words {
		return nil, fmt.Errorf("hdc: cascade tier widths sum to %d words, row has only %d", sum, words)
	}
	tiers := append([]int(nil), cc.Tiers...)
	if sum < words {
		tiers = append(tiers, words-sum)
	}
	return tiers, nil
}

// CascadeStats is a snapshot of the cascade's per-tier row counters,
// accumulated across every cascade scan since construction.
type CascadeStats struct {
	// TierRows[t] counts rows whose tier-t words were scored by a
	// cascade sweep. TierRows[0] is the swept candidate volume;
	// deeper tiers only see rows the pruning bound admitted, so the
	// counts are non-increasing down the ladder.
	TierRows []uint64
}

// NumTiers returns the ladder depth of the snapshot.
func (c CascadeStats) NumTiers() int { return len(c.TierRows) }

// Prefiltered returns the rows whose tier-0 prefix was scored (the
// historical tier-A counter).
func (c CascadeStats) Prefiltered() uint64 {
	if len(c.TierRows) == 0 {
		return 0
	}
	return c.TierRows[0]
}

// Completed returns the rows completed against the final tier (the
// historical tier-B counter).
func (c CascadeStats) Completed() uint64 {
	if len(c.TierRows) == 0 {
		return 0
	}
	return c.TierRows[len(c.TierRows)-1]
}

// Pruned returns the number of prefiltered rows never completed.
func (c CascadeStats) Pruned() uint64 {
	if c.Completed() > c.Prefiltered() {
		return 0
	}
	return c.Prefiltered() - c.Completed()
}

// PruneRate returns Pruned as a fraction of Prefiltered (0 when no
// rows were prefiltered).
func (c CascadeStats) PruneRate() float64 {
	if c.Prefiltered() == 0 {
		return 0
	}
	return float64(c.Pruned()) / float64(c.Prefiltered())
}

// TierPruneRate returns the fraction of tier-t rows that did NOT
// descend to tier t+1 (0 for the final tier and for tiers that saw no
// rows).
func (c CascadeStats) TierPruneRate(t int) float64 {
	if t < 0 || t >= len(c.TierRows)-1 || c.TierRows[t] == 0 {
		return 0
	}
	next := c.TierRows[t+1]
	if next > c.TierRows[t] {
		return 0
	}
	return float64(c.TierRows[t]-next) / float64(c.TierRows[t])
}

// ShardedSearcher is the sharded, batch-oriented exact Hamming search
// engine — the software stand-in for the paper's in-memory search,
// with the accelerator's one primitive: a batch of queries each
// activates a contiguous block of mass-sorted rows
// (BatchTopKRangeTraced; one query is a batch of one). Reference
// hypervectors are packed row-major into fixed-size shards of
// contiguous words (one shard per crossbar tile group), scored with a
// blocked XOR+popcount kernel into reusable per-worker score buffers,
// and shard-level top-k heaps are merged deterministically
// (similarity descending, index ascending).
//
// With a CascadeConfig the packed store is word-sliced into K tiers
// per shard: tier t holds words [off[t], off[t]+tw[t]) of every row,
// contiguous per tier. The sweep scores tier 0 block-major exactly as
// the single-tier kernel does, maintains the per-query running
// k-th-best distance, and descends the ladder only while a row's
// partial distance can still beat that bound (descendBlock) — the
// prune is exact at every rung, so results stay bit-identical to the
// single-tier kernel.
type ShardedSearcher struct {
	d         int   // hypervector dimension
	words     int   // packed words per hypervector, ceil(d/64)
	n         int   // total references
	shardSize int   // rows per shard (last shard may be shorter)
	block     int   // rows per kernel block (see kernelBlockBytes)
	tw        []int // words per tier (len K >= 1; K == 1 is single-tier)
	off       []int // word offset of tier t within a full row
	stride    []int // row stride within a shard's tier-t plane
	shards    []shard

	// tierRows[t] counts rows scored against tier t by a cascade
	// sweep; nil when the layout is single-tier.
	tierRows []atomic.Uint64

	// swept counts candidate rows covered by the sweep (single-tier
	// rows, or tier-0 prefixes under a cascade) — the serving stack's
	// sweep-volume counter, live for every layout.
	swept atomic.Uint64
	// hidden lists, ascending, the rows no search returns (see Hide).
	hidden []int
}

// shard is one fixed-size slice of the reference store.
type shard struct {
	// start is the global index of the shard's first row.
	start int
	// rows is the number of references in this shard.
	rows int
	// planes[t] holds the tier-t words of every row with the
	// searcher's per-tier row stride: reference r's tier-t words
	// occupy planes[t][r*stride[t] : r*stride[t]+tw[t]]. Under a
	// single-tier layout planes[0] is the whole packed row — and may
	// alias a caller-owned block (NewShardedSearcherFromPacked) rather
	// than a private copy. Deeper tiers of a packed-block searcher
	// alias the block with the full row width as stride (the
	// mmap-backed layout, where they stay in the mapping and fault in
	// lazily).
	planes [][]uint64
}

// tierRow returns reference row's tier-t words within the shard.
func (s *ShardedSearcher) tierRow(sh *shard, t, row int) []uint64 {
	base := row * s.stride[t]
	return sh.planes[t][base : base+s.tw[t]]
}

// qtier returns the query words of tier t.
func (s *ShardedSearcher) qtier(qw []uint64, t int) []uint64 {
	return qw[s.off[t] : s.off[t]+s.tw[t]]
}

// multiTier reports whether the store is word-sliced into a cascade
// ladder (K >= 2).
func (s *ShardedSearcher) multiTier() bool { return len(s.tw) > 1 }

// NewShardedSearcher builds the engine over the reference
// hypervectors (which must share one dimensionality), splitting them
// into shards of shardSize rows (<= 0 selects DefaultShardSize) under
// the cascade layout cc (the zero value is the single-tier layout).
// The reference words are copied into the packed store: later in-place
// mutation of the source hypervectors is not seen by this engine, and
// the source slices may be released.
func NewShardedSearcher(refs []BinaryHV, shardSize int, cc CascadeConfig) (*ShardedSearcher, error) {
	if len(refs) == 0 {
		return nil, fmt.Errorf("hdc: empty reference set")
	}
	d := refs[0].D
	if d <= 0 {
		return nil, fmt.Errorf("hdc: reference hypervectors have non-positive dimension %d", d)
	}
	for i, r := range refs {
		if r.D != d {
			return nil, fmt.Errorf("hdc: reference %d has D=%d, want %d", i, r.D, d)
		}
	}
	if shardSize <= 0 {
		shardSize = DefaultShardSize
	}
	words := WordsPerHV(d)
	tiers, err := normalizeTiers(cc, words)
	if err != nil {
		return nil, err
	}
	s := newShardedShell(d, words, len(refs), shardSize, tiers)
	for start := 0; start < len(refs); start += shardSize {
		rows := min(shardSize, len(refs)-start)
		sh := shard{start: start, rows: rows, planes: make([][]uint64, len(tiers))}
		for t, tw := range tiers {
			sh.planes[t] = make([]uint64, rows*tw)
			for r := 0; r < rows; r++ {
				copy(sh.planes[t][r*tw:(r+1)*tw], refs[start+r].Words[s.off[t]:s.off[t]+tw])
			}
		}
		s.shards = append(s.shards, sh)
	}
	return s, nil
}

// NewShardedSearcherFromPacked builds the engine directly over a
// contiguous packed word block — len(block) = n × WordsPerHV(d) words,
// row-major in reference order, tail bits beyond d zero (the layout of
// BinaryHV.Words concatenated, and of the words section of a library
// index file). Unlike the copying constructors, the block is aliased,
// not copied: under a single-tier layout every shard's rows are
// zero-copy views into it, and under a cascade layout only the small
// tier-0 prefixes are repacked into private contiguous rows (the hot
// prefilter tier, heap-resident by design) while the deeper tiers
// remain strided views over the block. With a memory-mapped block
// (libindex.OpenFile) construction therefore touches only tier-0
// pages; deeper pages fault in lazily as the pruning bound admits
// descents. The caller must keep the block alive — and, for a mapped
// block, mapped — for the searcher's lifetime, and must not mutate it.
func NewShardedSearcherFromPacked(block []uint64, d, shardSize int, cc CascadeConfig) (*ShardedSearcher, error) {
	if d <= 0 {
		return nil, fmt.Errorf("hdc: non-positive dimension %d", d)
	}
	words := WordsPerHV(d)
	if len(block) == 0 || len(block)%words != 0 {
		return nil, fmt.Errorf("hdc: packed block of %d words is not a multiple of %d words per row", len(block), words)
	}
	n := len(block) / words
	if shardSize <= 0 {
		shardSize = DefaultShardSize
	}
	tiers, err := normalizeTiers(cc, words)
	if err != nil {
		return nil, err
	}
	s := newShardedShell(d, words, n, shardSize, tiers)
	if len(tiers) > 1 {
		// Deeper tiers alias the caller's full-width rows: stride is the
		// whole row, width the tier's words.
		for t := 1; t < len(tiers); t++ {
			s.stride[t] = words
		}
	}
	for start := 0; start < n; start += shardSize {
		rows := min(shardSize, n-start)
		sh := shard{start: start, rows: rows, planes: make([][]uint64, len(tiers))}
		if len(tiers) == 1 {
			// The searcher is the designed owner of this alias: the caller
			// contract above pins the block (and its mapping) for the
			// searcher's lifetime, and the sweep only ever reads it.
			sh.planes[0] = block[start*words : (start+rows)*words : (start+rows)*words] //oms:allow(mmapwrite) documented zero-copy ownership transfer
		} else {
			tw0 := tiers[0]
			sh.planes[0] = make([]uint64, rows*tw0)
			for r := 0; r < rows; r++ {
				copy(sh.planes[0][r*tw0:(r+1)*tw0], block[(start+r)*words:(start+r)*words+tw0])
			}
			for t := 1; t < len(tiers); t++ {
				sh.planes[t] = block[start*words+s.off[t] : (start+rows)*words : (start+rows)*words] //oms:allow(mmapwrite) documented zero-copy ownership transfer
			}
		}
		s.shards = append(s.shards, sh)
	}
	return s, nil
}

// newShardedShell assembles the searcher metadata shared by both
// constructors: tier offsets, private-copy strides (FromPacked
// overrides the deep strides), kernel block size and counters.
func newShardedShell(d, words, n, shardSize int, tiers []int) *ShardedSearcher {
	s := &ShardedSearcher{
		d:         d,
		words:     words,
		n:         n,
		shardSize: shardSize,
		block:     blockRows(tiers[0]),
		tw:        tiers,
		off:       make([]int, len(tiers)),
		stride:    make([]int, len(tiers)),
	}
	o := 0
	for t, tw := range tiers {
		s.off[t] = o
		s.stride[t] = tw
		o += tw
	}
	if len(tiers) > 1 {
		s.tierRows = make([]atomic.Uint64, len(tiers))
	}
	return s
}

// D returns the hypervector dimension.
func (s *ShardedSearcher) D() int { return s.d }

// Len returns the number of references.
func (s *ShardedSearcher) Len() int { return s.n }

// NumShards returns the shard count.
func (s *ShardedSearcher) NumShards() int { return len(s.shards) }

// NumTiers returns the ladder depth (1 = single-tier).
func (s *ShardedSearcher) NumTiers() int { return len(s.tw) }

// CascadeStats returns a snapshot of the per-tier row counters; ok is
// false when the store is single-tier (no cascade runs, counters stay
// zero).
func (s *ShardedSearcher) CascadeStats() (CascadeStats, bool) {
	if !s.multiTier() {
		return CascadeStats{}, false
	}
	rows := make([]uint64, len(s.tierRows))
	for t := range s.tierRows {
		rows[t] = s.tierRows[t].Load()
	}
	return CascadeStats{TierRows: rows}, true
}

// addTierRows folds a scan's per-tier row counts into the cumulative
// counters (no-op for single-tier layouts and all-zero deltas).
func (s *ShardedSearcher) addTierRows(counts []uint64) {
	for t, c := range counts {
		if c > 0 {
			s.tierRows[t].Add(c)
		}
	}
}

// RowsSwept returns the cumulative candidate rows covered by the sweep
// since construction (every layout, unlike the cascade counters).
func (s *ShardedSearcher) RowsSwept() uint64 { return s.swept.Load() }

// Hide sets the rows no search may return (a live overlay's shadowed rows;
// any order, repeats allowed), replacing any earlier list; call it before
// the searcher is shared. A hidden row is scored with its block and counted
// as swept but never offered to a heap: results are the visible top-k.
func (s *ShardedSearcher) Hide(rows []int) {
	s.hidden = slices.Compact(slices.Sorted(slices.Values(rows)))
}

// checkQuery panics on a dimensionality mismatch: a query of the wrong
// width is a caller bug, and scoring it would read out of bounds.
func (s *ShardedSearcher) checkQuery(q BinaryHV) {
	if q.D != s.d {
		panic(fmt.Sprintf("hdc: query D=%d, searcher D=%d", q.D, s.d))
	}
}

// PackedRow returns the packed words of reference row i exactly as
// stored in the engine, reassembled from the tiered store into one
// freshly allocated full-width row (the tiers are not contiguous, so
// a live view is no longer possible). It panics with a descriptive
// message on an out-of-range index. The persistent library index uses
// it to verify that a loaded store is bit-identical to the freshly
// packed one.
func (s *ShardedSearcher) PackedRow(i int) []uint64 {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("hdc: reference index %d out of range [0, %d)", i, s.n))
	}
	sh := &s.shards[i/s.shardSize]
	row := i - sh.start
	out := make([]uint64, s.words)
	for t := range s.tw {
		copy(out[s.off[t]:s.off[t]+s.tw[t]], s.tierRow(sh, t, row))
	}
	return out
}

// scoreBlockSims writes full Hamming similarities for shard rows
// [r0, r0+rows) into sims: one xorPopRows pass per tier with the
// distances summed (a single-tier layout is a ladder of one).
func (s *ShardedSearcher) scoreBlockSims(qw []uint64, sh *shard, r0, rows int, sims []int) {
	for t := range s.tw {
		xorPopRows(s.qtier(qw, t), sh.planes[t][r0*s.stride[t]:], s.stride[t], s.tw[t], rows, sims, t > 0)
	}
	for r := 0; r < rows; r++ {
		sims[r] = s.d - sims[r]
	}
}

// RowRange is a half-open contiguous interval [Lo, Hi) of packed
// reference rows — the candidate-set representation of the
// mass-ordered open-search pipeline. When references are packed in
// ascending precursor-mass order, every precursor window selects a
// contiguous run of rows found by two binary searches, so a candidate
// set costs O(1) space instead of a materialized index slice.
type RowRange struct {
	Lo, Hi int
}

// Empty reports whether the range selects no rows.
func (r RowRange) Empty() bool { return r.Hi <= r.Lo }

// Len returns the number of rows in the range.
func (r RowRange) Len() int {
	if r.Empty() {
		return 0
	}
	return r.Hi - r.Lo
}

// Clamp clips the range to a reference count of n rows.
func (r RowRange) Clamp(n int) RowRange {
	if r.Lo < 0 {
		r.Lo = 0
	}
	if r.Hi > n {
		r.Hi = n
	}
	return r
}

// SimilaritiesRangeInto scores the query against packed rows [lo, hi)
// (clamped to [0, Len())) through the blocked kernel, writing
// HammingSimilarity(q, lo+j) to dst[j]. dst is grown as needed; the
// (possibly reallocated) slice of length max(0, hi-lo) is returned, so
// callers can reuse one buffer across queries.
func (s *ShardedSearcher) SimilaritiesRangeInto(q BinaryHV, lo, hi int, dst []int) []int {
	s.checkQuery(q)
	r := RowRange{Lo: lo, Hi: hi}.Clamp(s.n)
	n := r.Len()
	if cap(dst) < n {
		dst = make([]int, n)
	}
	dst = dst[:n]
	for row := r.Lo; row < r.Hi; {
		sh := &s.shards[row/s.shardSize]
		end := min(r.Hi, sh.start+sh.rows)
		for b := row; b < end; b += s.block {
			rows := min(s.block, end-b)
			s.scoreBlockSims(q.Words, sh, b-sh.start, rows, dst[b-r.Lo:])
		}
		row = end
	}
	return dst
}

// searchScratch is the reusable per-worker sweep state: the block
// score buffer the kernel writes into, the ladder-descent survivor
// list, the per-tier counter buffers and one shard visit's query
// clips — so a shard visit allocates nothing in steady state.
type searchScratch struct {
	sims []int
	surv []int32
	tcnt []uint64
	tns  []int64
	qs   []shardQuery
}

var scratchPool = sync.Pool{New: func() any { return &searchScratch{} }}

// grown returns buf resliced to n elements, reallocated when its
// capacity is short. The contents are unspecified.
func grown[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// --- allocation-free top-k heap ----------------------------------------
//
// A binary min-heap on match rank (root = current worst of the kept
// top-k), operating directly on a slice carved from the batch's heap
// arena: container/heap would box every Match through interface{}.

func heapPushMatch(h []Match, m Match) []Match {
	h = append(h, m)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !worse(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	return h
}

func heapFixRoot(h []Match) {
	i, n := 0, len(h)
	for {
		smallest := i
		if l := 2*i + 1; l < n && worse(h[l], h[smallest]) {
			smallest = l
		}
		if r := 2*i + 2; r < n && worse(h[r], h[smallest]) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h[i], h[smallest] = h[smallest], h[i]
		i = smallest
	}
}

// offerTopK keeps m if it ranks within the current top-k.
func offerTopK(h []Match, m Match, k int) []Match {
	if len(h) < k {
		return heapPushMatch(h, m)
	}
	if worse(h[0], m) {
		h[0] = m
		heapFixRoot(h)
	}
	return h
}

// offerBlock offers one scored kernel block to a top-k heap — row
// base+x at score vals[x] — the sweep's one per-row selection loop.
// Once the heap is full almost every row scores below its current
// worst, so the steady state rejects on one compare and takes the heap
// path only for potential entrants (ties resolve inside offerTopK).
func offerBlock(h []Match, vals []int, base, k int) []Match {
	x := 0
	for ; x < len(vals) && len(h) < k; x++ {
		h = heapPushMatch(h, Match{Index: base + x, Similarity: vals[x]})
	}
	if x == len(vals) {
		return h
	}
	worst := h[0].Similarity
	for ; x < len(vals); x++ {
		if vals[x] < worst {
			continue
		}
		h = offerTopK(h, Match{Index: base + x, Similarity: vals[x]}, k)
		worst = h[0].Similarity
	}
	return h
}

// sortedMatches drains a heap into a fresh rank-sorted result slice
// (similarity descending, ties by ascending index): the root is the
// worst of what remains, so popping fills the result back to front.
// The heap is consumed.
func sortedMatches(h []Match) []Match {
	out := make([]Match, len(h))
	for n := len(h); n > 0; n-- {
		out[n-1] = h[0]
		h[0] = h[n-1]
		heapFixRoot(h[:n-1])
	}
	return out
}

// rangeQuery is one active query of a batch: a clamped, non-empty row
// range and the arena position of its per-shard heaps. A contiguous
// range intersects a contiguous shard run, so shard si's heap is arena
// part part+si-first.
type rangeQuery struct {
	qi    int // position in the caller's batch
	r     RowRange
	first int // first shard the range intersects
	part  int // arena part of shard first's heap
}

// shardQuery is one query's clip onto the shard being visited.
type shardQuery struct {
	j      int // position in the batch plan
	lo, hi int // query range ∩ shard, absolute rows
	part   int // arena part of this (query, shard) heap
	heap   []Match
}

// batch is the state of one BatchTopKRangeTraced call, pooled so a
// steady-state call allocates only the match lists it returns. Every
// (query, shard) pair owns one fixed-capacity heap carved from the
// heaps arena — workers fill disjoint parts, the merge reads them all.
type batch struct {
	queries []BinaryHV
	tr      *obsv.Trace
	k       int          // result depth
	hcap    int          // arena slots per part: min(k, shardSize)
	plan    []rangeQuery // active queries, sorted by range start
	heaps   []Match
	hlen    []int // per part: the heap's fill after the sweep
	// bounds carries the per-query pruning bound shard workers share
	// under a cascade (see descendBlock); unused otherwise.
	bounds []atomic.Int64
	next   atomic.Int64 // next shard a worker claims, up to last
	last   int
	wg     sync.WaitGroup
	local  searchScratch // the calling goroutine's worker scratch
}

var batchPool = sync.Pool{New: func() any { return &batch{} }}

// release returns the batch to the pool without pinning caller memory.
func (b *batch) release() {
	b.queries, b.tr = nil, nil
	batchPool.Put(b)
}

// BatchTopKRange is BatchTopKRangeTraced without a trace.
func (s *ShardedSearcher) BatchTopKRange(queries []BinaryHV, ranges []RowRange, k int) [][]Match {
	return s.BatchTopKRangeTraced(queries, ranges, k, nil)
}

// BatchTopKRangeTraced is the engine's one search entry point: for
// every query i it returns the k most similar visible (see Hide) rows
// of ranges[i] = [Lo, Hi) (clamped to the reference count), ordered
// by descending similarity with ties broken by ascending index.
// ranges must have one entry per query; an empty range yields an
// empty, non-nil list and k <= 0 yields nil lists. A single query is a
// batch of one, a full scan the range [0, Len()), an untraced search a
// nil tr — there is no other scan path.
//
// The scan is block-major: within a shard every cache-resident row
// block is swept by all queries whose ranges cover it before the scan
// advances, so the packed store streams from memory once per batch
// (queries sorted by precursor mass have heavily overlapping ranges).
// Only the shard span the active ranges cover is visited, by
// min(GOMAXPROCS, span) workers of which the calling goroutine is one:
// a batch whose ranges sit inside one shard spawns no goroutine. Per
// query and shard a top-k heap survives the sweep; the per-shard heaps
// merge per query — deterministic regardless of shard completion
// order, and exact because a range-global top-k member is necessarily
// in its own shard's top-k.
//
// When tr is non-nil the scan accumulates per-tier sweep nanoseconds,
// row counters and the merge time into it. Timing never alters control
// flow, so results are bit-identical to the untraced call; a nil tr
// makes every recording site a no-op branch.
func (s *ShardedSearcher) BatchTopKRangeTraced(queries []BinaryHV, ranges []RowRange, k int, tr *obsv.Trace) [][]Match {
	if len(ranges) != len(queries) {
		panic(fmt.Sprintf("hdc: %d queries with %d ranges", len(queries), len(ranges)))
	}
	for i := range queries {
		s.checkQuery(queries[i])
	}
	out := make([][]Match, len(queries))
	if k <= 0 {
		return out
	}
	b := batchPool.Get().(*batch)
	defer b.release()
	b.queries, b.tr, b.k = queries, tr, k
	b.hcap = min(k, s.shardSize)
	b.plan = b.plan[:0]
	for i, r := range ranges {
		if r = r.Clamp(s.n); r.Empty() {
			out[i] = []Match{}
			continue
		}
		b.plan = append(b.plan, rangeQuery{qi: i, r: r})
	}
	if len(b.plan) == 0 {
		return out
	}
	// Sort by range start so each shard sees its queries as a
	// near-contiguous run (mass-sorted query batches arrive almost
	// sorted already); stable so equal starts keep query order.
	slices.SortStableFunc(b.plan, func(x, y rangeQuery) int { return cmp.Compare(x.r.Lo, y.r.Lo) })
	parts := 0
	b.last = 0
	for j := range b.plan {
		pq := &b.plan[j]
		end := (pq.r.Hi - 1) / s.shardSize
		pq.first, pq.part = pq.r.Lo/s.shardSize, parts
		parts += end - pq.first + 1
		b.last = max(b.last, end)
	}
	b.heaps = grown(b.heaps, parts*b.hcap)
	b.hlen = grown(b.hlen, parts)
	if s.multiTier() {
		b.bounds = grown(b.bounds, len(b.plan))
		for j := range b.bounds {
			b.bounds[j].Store(math.MaxInt64)
		}
	}

	first := b.plan[0].first
	b.next.Store(int64(first))
	workers := min(runtime.GOMAXPROCS(0), b.last-first+1)
	b.wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer b.wg.Done()
			sc := scratchPool.Get().(*searchScratch)
			defer scratchPool.Put(sc)
			s.sweepShards(b, sc)
		}()
	}
	s.sweepShards(b, &b.local)
	b.wg.Wait()

	var mergeT0 time.Time
	if tr != nil {
		mergeT0 = time.Now()
	}
	for j := range b.plan {
		pq := &b.plan[j]
		// The first part's heap is the merge heap, grown in place over
		// the query's arena run: a write lands at or before the slot of
		// the match just read, so no unread match is overwritten.
		nparts := (pq.r.Hi-1)/s.shardSize - pq.first + 1
		base := pq.part * b.hcap
		h := b.heaps[base : base+b.hlen[pq.part] : base+nparts*b.hcap]
		for p := pq.part + 1; p < pq.part+nparts; p++ {
			for _, m := range b.heaps[p*b.hcap:][:b.hlen[p]] {
				h = offerTopK(h, m, k)
			}
		}
		out[pq.qi] = sortedMatches(h)
	}
	if tr != nil {
		tr.AddNanos(obsv.StageMerge, int64(time.Since(mergeT0)))
	}
	return out
}

// sweepShards is one worker's loop: claim the next unvisited shard of
// the batch's span until the span is exhausted.
func (s *ShardedSearcher) sweepShards(b *batch, sc *searchScratch) {
	for si := int(b.next.Add(1)) - 1; si <= b.last; si = int(b.next.Add(1)) - 1 {
		s.scanShard(b, si, sc)
	}
}

// scanShard sweeps one shard's kernel blocks with every query whose
// range intersects the shard, leaving each (query, shard) top-k heap in
// the batch arena.
//
// When b.tr is non-nil the sweep's wall time lands in the per-tier
// slots: the clock is read once at entry and once at exit, plus one
// lazy pair around each deeper tier's survivor burst per (block,
// query) pair — a handful of clock reads per shard visit, never per
// row. Tier 0 is the remainder: sweep total minus the deeper bursts.
func (s *ShardedSearcher) scanShard(b *batch, si int, sc *searchScratch) {
	sh := &s.shards[si]
	shLo, shHi := sh.start, sh.start+sh.rows
	// The plan is sorted by range start: entries at or past this bound
	// begin after the shard ends and cannot intersect it.
	end := sort.Search(len(b.plan), func(j int) bool { return b.plan[j].r.Lo >= shHi })
	qs := sc.qs[:0]
	lo, hi := shHi, shLo // hull of the clips: the rows any query covers
	for j := 0; j < end; j++ {
		pq := &b.plan[j]
		if pq.r.Hi <= shLo {
			continue
		}
		part := pq.part + si - pq.first
		sq := shardQuery{j: j, lo: max(pq.r.Lo, shLo), hi: min(pq.r.Hi, shHi), part: part}
		sq.heap = b.heaps[part*b.hcap : part*b.hcap : (part+1)*b.hcap]
		lo, hi = min(lo, sq.lo), max(hi, sq.hi)
		qs = append(qs, sq)
	}
	sc.qs = qs
	if len(qs) == 0 {
		return
	}
	var t0 time.Time
	if b.tr != nil {
		t0 = time.Now()
	}
	nt := len(s.tw)
	sc.sims = grown(sc.sims, s.block)
	sc.tcnt, sc.tns = grown(sc.tcnt, nt), grown(sc.tns, nt)
	clear(sc.tcnt)
	clear(sc.tns)
	plane0, stride0 := sh.planes[0], s.stride[0]
	// The hidden list: cut once per visit, advanced as each block is left.
	hid := s.hidden[sort.SearchInts(s.hidden, lo):]
	for blockLo := lo - (lo-shLo)%s.block; blockLo < hi; blockLo += s.block {
		blockHi := min(blockLo+s.block, shHi)
		for x := range qs {
			sq := &qs[x]
			r0, r1 := max(sq.lo, blockLo), min(sq.hi, blockHi)
			if r0 >= r1 {
				continue
			}
			qw := b.queries[b.plan[sq.j].qi].Words
			vals := sc.sims[:r1-r0]
			sc.tcnt[0] += uint64(len(vals))
			xorPopRows(s.qtier(qw, 0), plane0[(r0-shLo)*stride0:], stride0, s.tw[0], len(vals), vals, false)
			if nt == 1 {
				for i, dist := range vals {
					vals[i] = s.d - dist
				}
			}
			// One kernel call scored the clip; it is offered one visible run
			// [run, end) at a time — whole, when nothing in it is hidden.
			for run, i := r0, 0; run < r1; i++ {
				end := r1
				if i < len(hid) && hid[i] < r1 {
					end = hid[i]
				}
				switch {
				case end <= run: // a hidden row at or below run: nothing between them
				case nt == 1:
					sq.heap = offerBlock(sq.heap, vals[run-r0:end-r0], run, b.k)
				default:
					sq.heap = s.descendBlock(sh, qw, run, vals[run-r0:end-r0], sq.heap, b.k, &b.bounds[sq.j], sc, b.tr != nil)
				}
				run = max(run, end+1)
			}
		}
		for len(hid) > 0 && hid[0] < blockHi {
			hid = hid[1:]
		}
	}
	for x := range qs {
		b.hlen[qs[x].part] = len(qs[x].heap)
	}
	if nt > 1 {
		s.addTierRows(sc.tcnt)
	}
	s.swept.Add(sc.tcnt[0])
	if b.tr != nil {
		var deep, completed int64
		for t := 1; t < nt; t++ {
			b.tr.AddTierNanos(t, sc.tns[t])
			deep += sc.tns[t]
		}
		b.tr.AddTierNanos(0, int64(time.Since(t0))-deep)
		if nt > 1 {
			completed = int64(sc.tcnt[nt-1])
		}
		b.tr.AddRows(int64(sc.tcnt[0]), completed)
	}
}

// descendBlock is the exact tier-ladder descent of one (block, query)
// pair: dists holds the tier-0 partial distances of rows r0+x, and the
// rows that can still enter the top-k heap h are completed rung by
// rung. The pruning bound is the tighter of this heap's k-th-best
// distance and the bound other shards have published for the query
// through shared: any full heap's k-th-best distance is a valid upper
// bound on the final range-global k-th-best distance, and remaining
// bits can only add distance, so a row whose partial distance exceeds
// the bound can never enter the result — the prune is exact at every
// rung and prunes across shard boundaries without touching the merge.
//
// The descent is block-structured: tier-0 distances are filtered into
// a survivor list against the bound as of the block start, and every
// deeper tier walks that list once, scoring each maximal run of
// consecutive surviving rows with one kernel call — a lone survivor is
// a run of one, a block nothing was pruned from is a single call into
// the kernel's widest loop. Intermediate tiers re-filter the survivors
// in place; the final tier offers each completed run to the heap and
// re-reads the bound, so a run is admitted against the bound as of its
// first row. Bounds only ever tighten, so a row scored under an older
// bound is at worst rejected by the heap: the result is the per-row
// descent's. Per-tier row counts (and, when traced, each deeper tier's
// burst nanoseconds) accumulate into sc.
func (s *ShardedSearcher) descendBlock(sh *shard, qw []uint64, r0 int, dists []int, h []Match, k int, shared *atomic.Int64, sc *searchScratch, traced bool) []Match {
	gb := shared.Load()
	local := int64(math.MaxInt64)
	if len(h) == k {
		local = int64(s.d - h[0].Similarity)
	}
	db := min(gb, local)
	surv := grown(sc.surv, len(dists))[:0]
	for x, da := range dists {
		if int64(da) <= db {
			surv = append(surv, int32(x))
		}
	}
	sc.surv = surv
	last := len(s.tw) - 1
	for t := 1; t <= last && len(surv) > 0; t++ {
		var bt time.Time
		if traced {
			bt = time.Now()
		}
		qt, plane, stride := s.qtier(qw, t), sh.planes[t], s.stride[t]
		w := 0
		for i := 0; i < len(surv); {
			x0 := int(surv[i])
			n := 0
			for i < len(surv) && int(surv[i]) == x0+n && int64(dists[x0+n]) <= db {
				i, n = i+1, n+1
			}
			if n == 0 {
				// The final tier's bound tightened past this survivor.
				i++
				continue
			}
			run := dists[x0 : x0+n]
			sc.tcnt[t] += uint64(n)
			xorPopRows(qt, plane[(r0+x0-sh.start)*stride:], stride, s.tw[t], n, run, true)
			if t < last {
				for y, dist := range run {
					if int64(dist) <= db {
						surv[w] = int32(x0 + y)
						w++
					}
				}
				continue
			}
			for y, dist := range run {
				run[y] = s.d - dist
			}
			if h = offerBlock(h, run, r0+x0, k); len(h) == k {
				local = int64(s.d - h[0].Similarity)
				db = min(gb, local)
			}
		}
		surv = surv[:w]
		if traced {
			sc.tns[t] += int64(time.Since(bt))
		}
	}
	if local < gb {
		storeMin(shared, local)
	}
	return h
}

// storeMin lowers the published bound to v when v is smaller. Bounds
// only ever decrease, so the CAS loop terminates quickly.
func storeMin(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v >= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}
