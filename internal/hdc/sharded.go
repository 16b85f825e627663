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
// activates contiguous runs of mass-sorted rows (Search; one query is
// a batch of one). The reference hypervectors are row-major packed
// blocks — spans, one per crossbar array — read in shards of
// contiguous rows (one per crossbar tile group; no shard crosses a
// span edge), scored in full with a blocked XOR+popcount kernel, and
// the shard-level top-k heaps of a query merge once.
type ShardedSearcher struct {
	d         int // hypervector dimension
	words     int // packed words per hypervector, ceil(d/64)
	n         int // total references
	shardSize int // rows per shard (a span's last shard may be shorter)
	block     int // rows per kernel block (see kernelBlockBytes)
	shards    []shard
	// swept counts, per span, the candidate rows the sweep covered —
	// the serving stack's sweep-volume counter.
	swept []atomic.Uint64
	// hidden lists, ascending, the global rows no search returns.
	hidden []int
	// tie orders two global rows of equal similarity from different
	// spans; nil orders every tie by ascending row.
	tie func(a, b int) int
}

// shard is a run of at most shardSize rows of one span: global rows
// [lo, hi), row lo's words first in rows.
type shard struct {
	rows         []uint64
	lo, hi, span int
}

// NewShardedSearcher builds the engine over packed word blocks — each
// n × WordsPerHV(d) words, row-major in reference order, tail bits
// beyond d zero (core.Library.Rows, PackRows, and the words section of
// a library index file) — swept in shards of shardSize rows (<= 0
// selects DefaultShardSize). Block i's rows follow block i−1's in
// global row space, so a query's range may run across blocks while no
// shard does. The blocks are aliased, not copied, so over a
// memory-mapped block (libindex.Open) construction touches no word
// page; the caller must keep them alive (and mapped) and unmodified
// for the searcher's lifetime.
//
// hidden lists global rows no search returns (any order, repeats
// allowed, rows outside the store ignored): each is scored with its
// kernel block and counted as swept but never offered to a heap. tie
// orders two rows of different blocks whose similarities are equal —
// negative when a ranks first — and must agree with ascending row
// within a block; nil orders every tie by row.
func NewShardedSearcher(d, shardSize int, hidden []int, tie func(a, b int) int, blocks ...[]uint64) (*ShardedSearcher, error) {
	if d <= 0 {
		return nil, fmt.Errorf("hdc: non-positive dimension %d", d)
	}
	if shardSize <= 0 {
		shardSize = DefaultShardSize
	}
	words := WordsPerHV(d)
	s := &ShardedSearcher{d: d, words: words, shardSize: shardSize, block: blockRows(words),
		swept: make([]atomic.Uint64, len(blocks)), hidden: slices.Compact(slices.Sorted(slices.Values(hidden))), tie: tie}
	for i, block := range blocks {
		if len(block) == 0 || len(block)%words != 0 {
			return nil, fmt.Errorf("hdc: packed block of %d words is not a positive multiple of %d words per row", len(block), words)
		}
		start := s.n
		s.n += len(block) / words
		for lo := start; lo < s.n; lo += shardSize {
			s.shards = append(s.shards, shard{rows: block[(lo-start)*words : len(block) : len(block)], lo: lo, hi: min(lo+shardSize, s.n), span: i})
		}
	}
	if s.n == 0 {
		return nil, fmt.Errorf("hdc: no packed blocks")
	}
	return s, nil
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

// Len returns the number of references.
func (s *ShardedSearcher) Len() int { return s.n }

// RowsSwept returns the cumulative candidate rows the sweep covered in
// span i (block i of NewShardedSearcher) since construction.
func (s *ShardedSearcher) RowsSwept(i int) uint64 { return s.swept[i].Load() }

// checkQuery panics on a dimensionality mismatch: a query of the wrong
// width is a caller bug, and scoring it would read out of bounds.
func (s *ShardedSearcher) checkQuery(q BinaryHV) {
	if q.D != s.d {
		panic(fmt.Sprintf("hdc: query D=%d, searcher D=%d", q.D, s.d))
	}
}

// shardOf returns the index of the shard holding global row r.
func (s *ShardedSearcher) shardOf(r int) int {
	return sort.Search(len(s.shards), func(i int) bool { return s.shards[i].hi > r })
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

// SimilaritiesRangeInto scores the query against global rows [lo, hi)
// (clamped to [0, Len())) through the blocked kernel, writing row
// lo+j's similarity D − HammingDistance to dst[j]. dst is grown as needed; the
// (possibly reallocated) slice of length max(0, hi-lo) is returned, so
// callers can reuse one buffer across queries. Its kernel calls admit
// nothing (limit 0): the mask they write is scratch.
func (s *ShardedSearcher) SimilaritiesRangeInto(q BinaryHV, lo, hi int, dst []int) []int {
	s.checkQuery(q)
	r := RowRange{Lo: lo, Hi: hi}.Clamp(s.n)
	dst = grown(dst, r.Len())
	sc := scratchPool.Get().(*searchScratch)
	defer scratchPool.Put(sc)
	sc.mask = grown(sc.mask, maskWords(s.block))
	for _, sh := range s.shards[s.shardOf(r.Lo):] {
		if sh.lo >= r.Hi {
			break
		}
		for b := max(r.Lo, sh.lo); b < min(r.Hi, sh.hi); b += s.block {
			xorPopRows(q.Words, sh.rows[(b-sh.lo)*s.words:], s.words, min(s.block, r.Hi-b, sh.hi-b), 0, dst[b-r.Lo:], sc.mask)
		}
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
// tie is worse's: nil within a shard, the searcher's in the merge.

func heapPushMatch(h []Match, m Match, tie func(a, b int) int) []Match {
	h = append(h, m)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !worse(h[i], h[p], tie) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	return h
}

func heapFixRoot(h []Match, tie func(a, b int) int) {
	i, n := 0, len(h)
	for {
		smallest := i
		if l := 2*i + 1; l < n && worse(h[l], h[smallest], tie) {
			smallest = l
		}
		if r := 2*i + 2; r < n && worse(h[r], h[smallest], tie) {
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
func offerTopK(h []Match, m Match, k int, tie func(a, b int) int) []Match {
	if len(h) < k {
		return heapPushMatch(h, m, tie)
	}
	if worse(h[0], m, tie) {
		h[0] = m
		heapFixRoot(h, tie)
	}
	return h
}

// sortedMatches drains a heap into a fresh rank-sorted result slice:
// the root is the worst of what remains, so popping fills the result
// back to front. The heap is consumed.
func sortedMatches(h []Match, tie func(a, b int) int) []Match {
	out := make([]Match, len(h))
	for n := len(h); n > 0; n-- {
		out[n-1] = h[0]
		h[0] = h[n-1]
		heapFixRoot(h[:n-1], tie)
	}
	return out
}

// TopK returns the k best of rows lo, lo+1, … scored sims[0],
// sims[1], …, ranked as one span's Search ranks them: similarity
// descending, ties by ascending index. k <= 0 yields an empty list.
func TopK(sims []int, lo, k int) []Match {
	h := make([]Match, 0, max(0, min(k, len(sims))))
	for j := 0; k > 0 && j < len(sims); j++ {
		h = offerTopK(h, Match{Index: lo + j, Similarity: sims[j]}, k, nil)
	}
	return sortedMatches(h, nil)
}

// rangeQuery is one active range of a batch: a clamped, non-empty
// global row range of query qi and the arena position of its per-shard
// heaps. A contiguous range intersects a contiguous shard run, so
// shard si's heap is arena part part+si-first.
type rangeQuery struct {
	qi    int // the query's position in the caller's batch
	r     RowRange
	first int // first shard the range intersects
	part  int // arena part of shard first's heap
}

// shardQuery is one range's clip onto the shard being visited.
type shardQuery struct {
	qi     int // the query's position in the caller's batch
	lo, hi int // range ∩ shard, global rows
	part   int // arena part of this (range, shard) heap
	heap   []Match
}

// spanTrace sums a traced call's swept rows and shard-visit time in
// one span.
type spanTrace struct{ rows, nanos atomic.Int64 }

// batch is the state of one Search call, pooled so a
// steady-state call allocates only the match lists it returns. Every
// (range, shard) pair owns one fixed-capacity heap carved from the
// heaps arena — workers fill disjoint parts, the merge reads them all.
type batch struct {
	ctx     context.Context
	queries []BinaryHV
	tr      *obsv.Trace
	k       int          // result depth
	hcap    int          // arena slots per part: min(k, shardSize)
	plan    []rangeQuery // active ranges, sorted by range start
	heaps   []Match
	hlen    []int // per part: the heap's fill after the sweep
	// qparts holds, per query, its first arena part: query qi's heaps,
	// over all of its ranges, are parts qparts[qi] up to qparts[qi+1].
	qparts []int
	// floors holds, per query, its admission floor: the highest worst
	// similarity any of its full (range, shard) heaps has published, −1
	// while none has filled. Its k-th best row is at least that similar,
	// so every clip of the query admits no row below it.
	floors []atomic.Int64
	spanTr []spanTrace // per span
	s      *ShardedSearcher
	first  int             // first shard of the run the ranges cover
	last   int             // last shard of that run
	shard  func(int) error // sweepShard, bound once in batchPool.New
}

var batchPool = sync.Pool{New: func() any { b := new(batch); b.shard = b.sweepShard; return b }}

// release returns the batch to the pool without pinning caller memory.
// Search calls it only after every worker has returned.
func (b *batch) release() {
	b.ctx, b.queries, b.tr, b.s = nil, nil, nil, nil
	batchPool.Put(b)
}

// sweepShard sweeps the run's i-th shard with pooled scratch, or
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

// Search is the engine's one search entry point. ranges holds m ≥ 1
// disjoint global row ranges per query, query i's at
// ranges[i*m : (i+1)*m]: for every query it returns the k most similar
// visible rows of its ranges (clamped to the reference count), by
// descending similarity, ties in the tie order. A query whose ranges
// are all empty yields an empty, non-nil list; k <= 0, nil lists.
//
// The scan is block-major: within a shard every cache-resident row
// block is swept by all queries whose ranges cover it before the scan
// advances, so the packed store streams from memory once per batch.
// Only the shard run the ranges cover is visited, its shards, in
// whichever span, claimed through one ForEach. Per range and shard a
// top-k heap survives, and each query's heaps merge once: a top-k
// member is in its own shard's top-k. A clip's kernel
// call admits only rows that can still enter its heap: none below the
// heap's worst once it is full, and none below the query's floor, the
// best worst similarity any of its full heaps, in whichever span, has
// published. A full heap holds k visible candidates, so the query's
// top-k lies at or above the floor; ties are admitted, so the tie
// order is unaffected.
//
// Shards poll ctx.Done() when claimed and per row block: once ctx is
// done, each stops at its next block and Search returns ctx.Err()
// and no lists (RowsSwept keeps the rows swept before the stop). A
// non-nil tr accumulates the swept and admitted rows, the merge time
// and one partition record per span reached (its rows and summed
// shard-visit time); timing never alters control flow.
func (s *ShardedSearcher) Search(ctx context.Context, queries []BinaryHV, ranges []RowRange, k int, tr *obsv.Trace) ([][]Match, error) {
	if len(ranges) < len(queries) || len(ranges) > 0 && (len(queries) == 0 || len(ranges)%len(queries) != 0) {
		panic(fmt.Sprintf("hdc: %d queries with %d ranges", len(queries), len(ranges)))
	}
	for i := range queries {
		s.checkQuery(queries[i])
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out := make([][]Match, len(queries))
	if k <= 0 || len(queries) == 0 {
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
// ranges (a query with none has its empty list set in out here), their
// heap arena, laid out so each query's parts are one run, and the
// per-query floors and per-span trace sums, reset. It reports whether
// any range is active.
func (s *ShardedSearcher) prepare(b *batch, queries []BinaryHV, ranges []RowRange, k int, tr *obsv.Trace, out [][]Match) bool {
	b.s, b.queries, b.tr, b.k = s, queries, tr, k
	b.hcap = min(k, s.shardSize)
	b.plan = b.plan[:0]
	b.qparts = grown(b.qparts, len(queries)+1)
	m, parts := len(ranges)/len(queries), 0
	b.last = 0
	for qi := range queries {
		b.qparts[qi] = parts
		for _, r := range ranges[qi*m : (qi+1)*m] {
			if r = r.Clamp(s.n); r.Empty() {
				continue
			}
			first, end := s.shardOf(r.Lo), s.shardOf(r.Hi-1)
			b.plan = append(b.plan, rangeQuery{qi: qi, r: r, first: first, part: parts})
			parts += end - first + 1
			b.last = max(b.last, end)
		}
		if parts == b.qparts[qi] {
			out[qi] = []Match{}
		}
	}
	b.qparts[len(queries)] = parts
	if len(b.plan) == 0 {
		return false
	}
	// Sort by range start so each shard sees its ranges as a
	// near-contiguous run (mass-sorted query batches arrive almost
	// sorted already); stable so equal starts keep query order.
	slices.SortStableFunc(b.plan, func(x, y rangeQuery) int { return cmp.Compare(x.r.Lo, y.r.Lo) })
	b.first = b.plan[0].first
	b.heaps = grown(b.heaps, parts*b.hcap)
	b.hlen = grown(b.hlen, parts)
	b.floors = grown(b.floors, len(queries))
	for j := range b.floors {
		b.floors[j].Store(-1)
	}
	b.spanTr = grown(b.spanTr, len(s.swept))
	clear(b.spanTr)
	return true
}

// merge folds each query's heaps, over all of its ranges and spans,
// into its result list, and records the per-span sweeps of a traced
// call.
func (s *ShardedSearcher) merge(b *batch, out [][]Match) {
	var mergeT0 time.Time
	if b.tr != nil {
		mergeT0 = time.Now()
	}
	for qi := range out {
		p0, p1 := b.qparts[qi], b.qparts[qi+1]
		if p0 == p1 {
			continue
		}
		// The first part's heap is the merge heap, grown in place over
		// the query's arena run: a write lands at or before the slot of
		// the match just read, so no unread match is overwritten. Its rows
		// share one span, where the tie order is the row order, so it is
		// a heap under the tie order as it stands.
		h := b.heaps[p0*b.hcap : p0*b.hcap+b.hlen[p0] : p1*b.hcap]
		for p := p0 + 1; p < p1; p++ {
			for _, m := range b.heaps[p*b.hcap:][:b.hlen[p]] {
				h = offerTopK(h, m, b.k, s.tie)
			}
		}
		out[qi] = sortedMatches(h, s.tie)
	}
	if b.tr != nil {
		b.tr.AddNanos(obsv.StageMerge, int64(time.Since(mergeT0)))
		for i := range s.swept {
			if st := &b.spanTr[i]; st.rows.Load() > 0 {
				b.tr.AddPartition(i, int(st.rows.Load()), st.nanos.Load())
			}
		}
	}
}

// raiseFloor lifts a query's floor to sim unless it is already as high.
func raiseFloor(floor *atomic.Int64, sim int) {
	for old := floor.Load(); int64(sim) > old && !floor.CompareAndSwap(old, int64(sim)); old = floor.Load() {
	}
}

// scanShard sweeps one shard's kernel blocks with every range that
// intersects the shard, leaving each (range, shard) top-k heap in the
// batch arena.
func (s *ShardedSearcher) scanShard(b *batch, si int, sc *searchScratch) {
	var t0 time.Time
	if b.tr != nil {
		t0 = time.Now()
	}
	sh := &s.shards[si]
	// The plan is sorted by range start: entries at or past this bound
	// begin after the shard ends and cannot intersect it.
	end := sort.Search(len(b.plan), func(j int) bool { return b.plan[j].r.Lo >= sh.hi })
	qs := sc.qs[:0]
	lo, hi := sh.hi, sh.lo // hull of the clips: the rows any range covers
	for j := 0; j < end; j++ {
		pq := &b.plan[j]
		if pq.r.Hi <= sh.lo {
			continue
		}
		part := pq.part + si - pq.first
		sq := shardQuery{qi: pq.qi, lo: max(pq.r.Lo, sh.lo), hi: min(pq.r.Hi, sh.hi), part: part}
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
	for blockLo := lo - (lo-sh.lo)%s.block; blockLo < hi && !b.stopped(); blockLo += s.block {
		blockHi := min(blockLo+s.block, sh.hi)
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
			floor := &b.floors[sq.qi]
			f := int(floor.Load())
			limit := s.d - f + 1
			if len(sq.heap) == b.k {
				limit = min(limit, s.d-sq.heap[0].Similarity+1)
			}
			xorPopRows(b.queries[sq.qi].Words, sh.rows[(r0-sh.lo)*s.words:], s.words, r1-r0, limit, sc.dist, sc.mask)
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
					sq.heap = offerTopK(sq.heap, Match{Index: r0 + i, Similarity: s.d - sc.dist[i]}, b.k, nil)
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
	s.swept[sh.span].Add(uint64(swept))
	b.tr.AddRows(int64(swept))
	b.tr.AddAdmitted(int64(admitted))
	if b.tr != nil {
		b.spanTr[sh.span].rows.Add(int64(swept))
		b.spanTr[sh.span].nanos.Add(int64(time.Since(t0)))
	}
}
