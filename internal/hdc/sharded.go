package hdc

import (
	"cmp"
	"context"
	"fmt"
	"math/bits"
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
// from memory once per batch rather than once per query.
const kernelBlockBytes = 16 << 10

// blockRows returns the rows per kernel block for a word width.
func blockRows(words int) int {
	r := kernelBlockBytes / (words * 8)
	if r < 8 {
		return 8
	}
	return r
}

// ShardedSearcher is the sharded, batch-oriented exact Hamming search
// engine — the software stand-in for the paper's in-memory search,
// with the accelerator's one primitive: a batch of queries each
// activates a contiguous block of mass-sorted rows
// (Search; one query is a batch of one). The reference hypervectors
// are one row-major packed block, read in fixed-size shards of
// contiguous rows (one shard per crossbar tile group), scored in full
// with a blocked XOR+popcount kernel into reusable per-worker score
// buffers, and shard-level top-k heaps are merged deterministically
// (similarity descending, index ascending).
type ShardedSearcher struct {
	d         int // hypervector dimension
	words     int // packed words per hypervector, ceil(d/64)
	n         int // total references
	shardSize int // rows per shard (last shard may be shorter)
	block     int // rows per kernel block (see kernelBlockBytes)
	// rows is the caller's packed block: row r's words are
	// rows[r*words : (r+1)*words], and shard i is rows
	// [i*shardSize, (i+1)*shardSize).
	rows []uint64

	// swept counts candidate rows covered by the sweep — the serving
	// stack's sweep-volume counter.
	swept atomic.Uint64
	// hidden lists, ascending, the rows no search returns (see Hide).
	hidden []int
}

// NewShardedSearcher builds the engine over a packed word block —
// len(block) = n × WordsPerHV(d) words, row-major in reference order,
// tail bits beyond d zero (core.Library.Rows, PackRows, and the words
// section of a library index file) — swept in shards of shardSize
// rows (<= 0 selects DefaultShardSize). The block is aliased, not
// copied, so over a memory-mapped block (libindex.Open) construction
// touches no word page and pages fault in as sweeps reach them. The
// caller must keep the block alive — and, for a mapped block, mapped —
// for the searcher's lifetime, and must not mutate it.
func NewShardedSearcher(block []uint64, d, shardSize int) (*ShardedSearcher, error) {
	if d <= 0 {
		return nil, fmt.Errorf("hdc: non-positive dimension %d", d)
	}
	words := WordsPerHV(d)
	if len(block) == 0 || len(block)%words != 0 {
		return nil, fmt.Errorf("hdc: packed block of %d words is not a positive multiple of %d words per row", len(block), words)
	}
	if shardSize <= 0 {
		shardSize = DefaultShardSize
	}
	// The searcher is the designed owner of this alias: the caller
	// contract above pins the block (and its mapping) for the searcher's
	// lifetime, and the sweep only ever reads it.
	return &ShardedSearcher{d: d, words: words, n: len(block) / words, shardSize: shardSize,
		block: blockRows(words), rows: block[:len(block):len(block)]}, nil
}

// PackRows copies hypervectors of one dimension back to back into a
// fresh block, the layout NewShardedSearcher reads. It panics when a
// row's dimension or word count differs from the first row's: rows of
// mixed widths have no packed layout.
func PackRows(refs []BinaryHV) []uint64 {
	if len(refs) == 0 {
		return nil
	}
	d := refs[0].D
	words := WordsPerHV(d)
	block := make([]uint64, 0, len(refs)*words)
	for i, r := range refs {
		if r.D != d || len(r.Words) != words {
			panic(fmt.Sprintf("hdc: packing row %d of D=%d (%d words) among rows of D=%d (%d words)", i, r.D, len(r.Words), d, words))
		}
		block = append(block, r.Words...)
	}
	return block
}

// D returns the hypervector dimension.
func (s *ShardedSearcher) D() int { return s.d }

// Len returns the number of references.
func (s *ShardedSearcher) Len() int { return s.n }

// RowsSwept returns the cumulative candidate rows covered by the sweep
// since construction.
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
// (clamped to [0, Len())) through the blocked kernel, writing row
// lo+j's similarity D − HammingDistance to dst[j]. dst is grown as needed; the
// (possibly reallocated) slice of length max(0, hi-lo) is returned, so
// callers can reuse one buffer across queries. Its kernel calls admit
// nothing (limit 0): the mask they write is scratch.
func (s *ShardedSearcher) SimilaritiesRangeInto(q BinaryHV, lo, hi int, dst []int) []int {
	s.checkQuery(q)
	r := RowRange{Lo: lo, Hi: hi}.Clamp(s.n)
	n := r.Len()
	if cap(dst) < n {
		dst = make([]int, n)
	}
	dst = dst[:n]
	sc := scratchPool.Get().(*searchScratch)
	defer scratchPool.Put(sc)
	sc.mask = grown(sc.mask, maskWords(s.block))
	for b := r.Lo; b < r.Hi; b += s.block {
		xorPopRows(q.Words, s.rows[b*s.words:], s.words, min(s.block, r.Hi-b), 0, dst[b-r.Lo:], sc.mask)
	}
	for j := range dst {
		dst[j] = s.d - dst[j]
	}
	return dst
}

// searchScratch is the reusable sweep state a shard visit takes from
// scratchPool: the block distances and admission mask the kernel
// writes and the visit's query clips — so a shard visit allocates
// nothing in steady state.
type searchScratch struct {
	dist []int
	mask []uint64
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

// TopK returns the k best of rows lo, lo+1, … scored sims[0],
// sims[1], …, ranked as Search ranks them: similarity descending, ties
// by ascending index. k <= 0 yields an empty list.
func TopK(sims []int, lo, k int) []Match {
	h := make([]Match, 0, max(0, min(k, len(sims))))
	for j := 0; k > 0 && j < len(sims); j++ {
		h = offerTopK(h, Match{Index: lo + j, Similarity: sims[j]}, k)
	}
	return sortedMatches(h)
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

// batch is the state of one Search call, pooled so a
// steady-state call allocates only the match lists it returns. Every
// (query, shard) pair owns one fixed-capacity heap carved from the
// heaps arena — workers fill disjoint parts, the merge reads them all.
type batch struct {
	ctx     context.Context
	queries []BinaryHV
	tr      *obsv.Trace
	k       int          // result depth
	hcap    int          // arena slots per part: min(k, shardSize)
	plan    []rangeQuery // active queries, sorted by range start
	heaps   []Match
	hlen    []int // per part: the heap's fill after the sweep
	// floors holds, per plan entry, the query's admission floor: the
	// highest worst similarity any of its full (query, shard) heaps has
	// published, −1 while none has filled. Its k-th best row is at least
	// that similar, so every clip of the query admits no row below it.
	floors []atomic.Int64
	s      *ShardedSearcher
	first  int             // first shard of the span the ranges cover
	last   int             // last shard of that span
	shard  func(int) error // sweepShard, bound once in batchPool.New
}

var batchPool = sync.Pool{New: func() any { b := new(batch); b.shard = b.sweepShard; return b }}

// release returns the batch to the pool without pinning caller memory.
// Search calls it only after every worker has returned.
func (b *batch) release() {
	b.ctx, b.queries, b.tr, b.s = nil, nil, nil, nil
	batchPool.Put(b)
}

// sweepShard sweeps the span's i-th shard with pooled scratch, or
// returns ctx's error, claiming no more, once the call's ctx is done.
func (b *batch) sweepShard(i int) error {
	if b.stopped() {
		return b.ctx.Err()
	}
	sc := scratchPool.Get().(*searchScratch)
	b.s.scanShard(b, b.first+i, sc)
	scratchPool.Put(sc)
	return nil
}

// stopped polls the call's context without blocking.
func (b *batch) stopped() bool {
	select {
	case <-b.ctx.Done():
		return true
	default:
		return false
	}
}

// Search is the engine's one search entry point: for every query i it
// returns the k most similar visible (see Hide) rows of ranges[i] =
// [Lo, Hi) (clamped to the reference count), ordered by descending
// similarity with ties broken by ascending index. ranges must have one
// entry per query; an empty range yields an empty, non-nil list and
// k <= 0 yields nil lists.
//
// The scan is block-major: within a shard every cache-resident row
// block is swept by all queries whose ranges cover it before the scan
// advances, so the packed store streams from memory once per batch.
// Only the shard span the ranges cover is visited, its shards claimed
// through ForEach, each with pooled scratch. Per query and
// shard a top-k heap survives the sweep; the heaps merge per query,
// exact because a range's top-k member is in its own shard's top-k.
// Each clip's kernel call admits only rows that can still enter its
// heap: none below the heap's worst once it is full, and none below
// the query's floor, the best worst similarity any of the query's full
// heaps, in whichever shard, has published. A full heap holds k
// visible rows of the range, so the query's top-k lies at or above the
// floor; ties are admitted, so the index tie-break is unaffected.
//
// Shards poll ctx.Done() when claimed and per row block: once ctx is
// done, each stops at its next block and Search returns ctx.Err()
// and no lists (RowsSwept keeps the rows swept before the stop). A
// non-nil tr accumulates the swept and admitted rows and the merge
// time; timing never alters control flow.
func (s *ShardedSearcher) Search(ctx context.Context, queries []BinaryHV, ranges []RowRange, k int, tr *obsv.Trace) ([][]Match, error) {
	if len(ranges) != len(queries) {
		panic(fmt.Sprintf("hdc: %d queries with %d ranges", len(queries), len(ranges)))
	}
	for i := range queries {
		s.checkQuery(queries[i])
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out := make([][]Match, len(queries))
	if k <= 0 {
		return out, nil
	}
	b := batchPool.Get().(*batch)
	defer b.release()
	b.ctx = ctx
	if !s.prepare(b, queries, ranges, k, tr, out) {
		return out, nil
	}
	// A shard cut short at a row block returns no error; ctx.Err() does.
	if err := cmp.Or(ForEach(b.last-b.first+1, false, b.shard), ctx.Err()); err != nil {
		return nil, err
	}
	s.merge(b, out)
	return out, nil
}

// prepare loads one call into the pooled batch: its plan of active
// queries (an empty range's list is set in out here), their heap
// arena and their floors, reset. It reports whether any query is
// active.
func (s *ShardedSearcher) prepare(b *batch, queries []BinaryHV, ranges []RowRange, k int, tr *obsv.Trace, out [][]Match) bool {
	b.s, b.queries, b.tr, b.k = s, queries, tr, k
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
		return false
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
	b.first = b.plan[0].first
	b.floors = grown(b.floors, len(b.plan))
	for j := range b.floors {
		b.floors[j].Store(-1)
	}
	return true
}

// merge folds each active query's shard heaps into its result list.
func (s *ShardedSearcher) merge(b *batch, out [][]Match) {
	var mergeT0 time.Time
	if b.tr != nil {
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
				h = offerTopK(h, m, b.k)
			}
		}
		out[pq.qi] = sortedMatches(h)
	}
	if b.tr != nil {
		b.tr.AddNanos(obsv.StageMerge, int64(time.Since(mergeT0)))
	}
}

// raiseFloor lifts a query's floor to sim unless it is already as high.
func raiseFloor(floor *atomic.Int64, sim int) {
	for old := floor.Load(); int64(sim) > old && !floor.CompareAndSwap(old, int64(sim)); old = floor.Load() {
	}
}

// scanShard sweeps one shard's kernel blocks with every query whose
// range intersects the shard, leaving each (query, shard) top-k heap in
// the batch arena.
func (s *ShardedSearcher) scanShard(b *batch, si int, sc *searchScratch) {
	shLo, shHi := si*s.shardSize, min((si+1)*s.shardSize, s.n)
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
	sc.dist = grown(sc.dist, s.block)
	sc.mask = grown(sc.mask, maskWords(s.block))
	var swept, admitted int
	// The hidden list: cut once per visit, advanced as each block is left.
	hid := s.hidden[sort.SearchInts(s.hidden, lo):]
	for blockLo := lo - (lo-shLo)%s.block; blockLo < hi && !b.stopped(); blockLo += s.block {
		blockHi := min(blockLo+s.block, shHi)
		for x := range qs {
			sq := &qs[x]
			r0, r1 := max(sq.lo, blockLo), min(sq.hi, blockHi)
			if r0 >= r1 {
				continue
			}
			swept += r1 - r0
			// A full heap admits a row only at or above its worst
			// similarity, i.e. below this distance, and no clip of the
			// query needs a row below its floor. Both bounds hold at the
			// clip's start and only rise within it, so the mask drops no
			// entrant; offerTopK's exact check decides the rest, ties
			// included.
			floor := &b.floors[sq.j]
			f := int(floor.Load())
			limit := s.d - f + 1
			if len(sq.heap) == b.k {
				limit = min(limit, s.d-sq.heap[0].Similarity+1)
			}
			xorPopRows(b.queries[b.plan[sq.j].qi].Words, s.rows[r0*s.words:], s.words, r1-r0, limit, sc.dist, sc.mask)
			// Walk the admitted rows, skipping hidden ones by a merge
			// with the block's cut of the hidden list.
			h := 0
			for w, m := range sc.mask[:maskWords(r1-r0)] {
				for ; m != 0; m &= m - 1 {
					i := w<<6 | bits.TrailingZeros64(m)
					for h < len(hid) && hid[h] < r0+i {
						h++
					}
					if h < len(hid) && hid[h] == r0+i {
						continue
					}
					admitted++
					sq.heap = offerTopK(sq.heap, Match{Index: r0 + i, Similarity: s.d - sc.dist[i]}, b.k)
				}
			}
			if len(sq.heap) == b.k && sq.heap[0].Similarity > f {
				raiseFloor(floor, sq.heap[0].Similarity)
			}
		}
		for len(hid) > 0 && hid[0] < blockHi {
			hid = hid[1:]
		}
	}
	for x := range qs {
		b.hlen[qs[x].part] = len(qs[x].heap)
	}
	s.swept.Add(uint64(swept))
	b.tr.AddRows(int64(swept))
	b.tr.AddAdmitted(int64(admitted))
}
