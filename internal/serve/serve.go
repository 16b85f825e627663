// Package serve is the request-coalescing serving layer over the OMS
// engine: it accepts single searches and whole request bodies from
// arbitrarily many concurrent goroutines and flushes their queries
// through one block-major batched top-k sweep per batch — the same
// once-per-batch memory stream the offline batch path enjoys. A body
// (SearchMany) is prepared through core.ForEach and queued
// as requests of at most MaxBatch queries each, so it reaches the
// batcher in a handful of hand-offs rather than one per query.
// Batching is group commit, not a timed window: the single dispatcher
// goroutine blocks for a request, takes whatever else is already
// queued (up to MaxBatch queries) and sweeps; requests that arrive
// during a sweep form the next batch. An idle server therefore answers
// a lone request at once, and batch size rises with load on its own.
// The paper's deployment story is a resident accelerator that
// amortizes one expensive library write across millions of searches
// and broadcasts a batch of queries to its arrays in one activation;
// this package is the software articulation of that story's serving
// half.
//
// Guarantees:
//
//   - With an exact engine (what omsd runs) per-query results are
//     bit-identical to a batch of one: a query's PSM does not depend
//     on which batch it lands in, on the batch's composition, or on
//     its position within the batch. A core.BuildNoisy engine draws
//     its error streams in batch order, so its serving results vary with
//     traffic timing — acceptable for robustness studies, not for the
//     deterministic serving contract.
//   - Admission is bounded: at most MaxQueue queries are outstanding
//     (queued or being scored); a submission admits what fits and the
//     rest fail fast with ErrQueueFull instead of building an unbounded
//     backlog.
//   - Every submission carries a context: a caller that gives up stops
//     waiting immediately, and its requests are skipped at flush time
//     if their batch has not started scoring yet. A flush that holds
//     one request sweeps under its context and stops at the next row
//     block.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fdr"
	"repro/internal/obsv"
	"repro/internal/spectrum"
)

// ErrQueueFull is returned when admission control rejects a query
// because MaxQueue queries are already outstanding.
var ErrQueueFull = errors.New("serve: request queue full")

// ErrClosed is returned for requests submitted to (or still waiting
// on) a server that has been closed.
var ErrClosed = errors.New("serve: server closed")

// Config tunes the micro-batcher.
type Config struct {
	// MaxBatch caps how many queued queries one sweep takes; the rest
	// wait for the next (default 64 — one full sweep of queries per
	// pass over the packed store is the knee of the
	// bandwidth-amortization curve). There is no minimum and no wait:
	// a batch is whatever was queued when the dispatcher came free.
	MaxBatch int
	// MaxQueue bounds outstanding queries — queued plus being scored
	// — for admission control (default 4096).
	MaxQueue int
	// SlowQueryThreshold marks a query slow when its enqueue→scored
	// latency reaches it, counting it in Stats.SlowQueries and firing
	// OnSlowQuery. 0 disables the threshold (the slow ring still keeps
	// the worst traces).
	SlowQueryThreshold time.Duration
	// OnSlowQuery, when set, is called from the dispatcher goroutine
	// with a copy of each threshold-exceeding trace — keep it cheap
	// (e.g. one structured log line); it runs between batches.
	OnSlowQuery func(obsv.QueryTrace)
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 4096
	}
	return c
}

// Result is one query's outcome. OK is false when the query was
// rejected by preprocessing, found no visible candidate in the
// precursor window, or found no match. Err is non-nil for encoding
// failures, admission rejection (ErrQueueFull), cancellation (the
// context's error) and shutdown (ErrClosed).
type Result struct {
	PSM fdr.PSM
	OK  bool
	Err error
}

// request is one queued hand-off: up to MaxBatch prepared queries of
// one submission plus the plumbing to deliver their results.
type request struct {
	pqs []core.PreparedQuery
	// encNanos is each query's caller-side preparation time
	// (preprocess + encode + range resolution) and reqID the propagated
	// request ID; both feed the queries' trace records.
	encNanos []int64
	ctx      context.Context
	enqueued time.Time
	reqID    string
	// res receives the dispatcher's results, one per query, before it
	// signals done; done is buffered (capacity 1) so the dispatcher
	// never blocks on a waiter that already gave up.
	res  []core.SearchResult
	done chan struct{}
}

// Server coalesces concurrent searches into batched engine sweeps.
type Server struct {
	engine core.SearchEngine
	cfg    Config

	in   chan *request
	quit chan struct{}
	done chan struct{}

	// pending counts outstanding queries for admission control.
	pending atomic.Int64

	closeOnce sync.Once
	stats     collector

	// held is a request fill took off the queue that would have pushed
	// its flush past MaxBatch queries; it heads the next flush. Only
	// the dispatcher goroutine touches it.
	held *request

	// preps is the flush loop's reusable prepared-query scratch. Only
	// the dispatcher goroutine touches it, so no lock: it grows to
	// MaxBatch once and steady-state flushes allocate nothing.
	preps []core.PreparedQuery

	// trace and qt are the dispatcher-owned tracing scratch: one Trace
	// reset per flush (no allocation per batch) and one QueryTrace
	// record reused per delivered query. batchSeq numbers flushes for
	// the access-log ↔ slow-trace join.
	trace    obsv.Trace
	qt       obsv.QueryTrace
	batchSeq uint64
}

// New starts the micro-batcher over an engine (*core.Engine, or a
// test's stand-in). The returned server must be Closed to stop its
// dispatcher goroutine.
func New(engine core.SearchEngine, cfg Config) (*Server, error) {
	if engine == nil {
		return nil, fmt.Errorf("serve: nil engine")
	}
	cfg = cfg.withDefaults()
	s := &Server{
		engine: engine,
		cfg:    cfg,
		// Every request holds at least one admitted query, so MaxQueue
		// requests is as many as can be outstanding.
		in:   make(chan *request, cfg.MaxQueue),
		quit: make(chan struct{}),
		done: make(chan struct{}),
	}
	s.stats.init(cfg)
	go s.dispatch()
	return s, nil
}

// Search searches one query: SearchMany of one.
func (s *Server) Search(ctx context.Context, q *spectrum.Spectrum) (fdr.PSM, bool, error) {
	r := s.SearchMany(ctx, []*spectrum.Spectrum{q})[0]
	return r.PSM, r.OK, r.Err
}

// SearchMany searches a request body as one submission and returns
// one Result per query, in input order. The queries are prepared
// (preprocessing, encoding, candidate-range selection) through
// core.ForEach, inline for a single query; those that pass
// are admitted as far as MaxQueue allows and queued back to back as
// requests of at most MaxBatch queries. It returns when every admitted
// query has its result, the context is done, or the server closes.
func (s *Server) SearchMany(ctx context.Context, qs []*spectrum.Spectrum) []Result {
	out := make([]Result, len(qs))
	pqs, enc, pos := s.prepare(qs, out)
	s.submit(ctx, pqs, enc, pos, out)
	return out
}

// SearchPrepared submits an already prepared query for batched
// scoring and blocks until its batch is flushed, the context is done,
// or the server closes. The query's trace records zero encode time
// (preparation happened outside the server); a request ID attached to
// ctx via WithRequestID is carried into the trace.
func (s *Server) SearchPrepared(ctx context.Context, pq core.PreparedQuery) (fdr.PSM, bool, error) {
	var out [1]Result
	s.submit(ctx, []core.PreparedQuery{pq}, []int64{0}, []int{0}, out[:])
	return out[0].PSM, out[0].OK, out[0].Err
}

// prepare runs Prepare over qs through core.ForEach. It books skips
// and encoding failures (the latter into out: fn never fails, so no
// query's failure stops another's preparation) and returns the queries
// that passed, in input order, with their preparation times and input
// positions.
func (s *Server) prepare(qs []*spectrum.Spectrum, out []Result) (pqs []core.PreparedQuery, enc []int64, pos []int) {
	n := len(qs)
	pqs = make([]core.PreparedQuery, n)
	enc = make([]int64, n)
	ok := make([]bool, n)
	_ = core.ForEach(n, false, func(i int) error {
		start := time.Now()
		pqs[i], ok[i], out[i].Err = s.engine.Prepare(qs[i])
		enc[i] = int64(time.Since(start))
		return nil
	})

	pos = make([]int, 0, n)
	var skipped, failed int
	for i := range qs {
		switch {
		case out[i].Err != nil:
			failed++
		case !ok[i]:
			skipped++
		default:
			pqs[len(pos)], enc[len(pos)] = pqs[i], enc[i]
			pos = append(pos, i)
		}
	}
	s.stats.prepared(skipped, failed)
	return pqs[:len(pos)], enc[:len(pos)], pos
}

// submit admits as many of the prepared queries as fit under
// MaxQueue, queues them as requests of at most MaxBatch queries, and
// waits for each in turn; query i's outcome lands in out[pos[i]].
func (s *Server) submit(ctx context.Context, pqs []core.PreparedQuery, enc []int64, pos []int, out []Result) {
	n := len(pqs)
	if n == 0 {
		return
	}
	s.stats.admit(n)
	admitted := s.reserve(n)
	refuse := func(from int, err error) {
		for _, p := range pos[from:] {
			out[p].Err = err
		}
		if err == ErrClosed {
			s.stats.closedReject(n - from)
		} else {
			s.stats.reject(n - from)
		}
	}
	if admitted < n {
		refuse(admitted, ErrQueueFull)
	}
	if admitted == 0 {
		return
	}

	res := make([]core.SearchResult, admitted)
	reqs := make([]request, (admitted+s.cfg.MaxBatch-1)/s.cfg.MaxBatch)
	enqueued, reqID := time.Now(), RequestIDFrom(ctx)
	sent := 0
	for lo := 0; lo < admitted; lo += s.cfg.MaxBatch {
		hi := min(lo+s.cfg.MaxBatch, admitted)
		r := &reqs[sent]
		*r = request{pqs: pqs[lo:hi], encNanos: enc[lo:hi], ctx: ctx, enqueued: enqueued,
			reqID: reqID, res: res[lo:hi], done: make(chan struct{}, 1)}
		if err := s.enqueue(r); err != nil {
			s.pending.Add(int64(lo - admitted))
			refuse(lo, err)
			break
		}
		sent++
	}

	lo := 0
	for i := range reqs[:sent] {
		r := &reqs[i]
		err := s.wait(ctx, r)
		s.pending.Add(-int64(len(r.pqs)))
		for j, p := range pos[lo : lo+len(r.pqs)] {
			if err != nil {
				out[p].Err = err
				continue
			}
			out[p] = Result{PSM: r.res[j].PSM, OK: len(r.res[j].Top) > 0}
		}
		lo += len(r.pqs)
	}
}

// reserve claims up to n admission slots and returns how many it got.
func (s *Server) reserve(n int) int {
	for {
		cur := s.pending.Load()
		k := min(int64(n), int64(s.cfg.MaxQueue)-cur)
		if k <= 0 {
			return 0
		}
		if s.pending.CompareAndSwap(cur, cur+k) {
			return int(k)
		}
	}
}

// enqueue hands one request to the dispatcher without blocking.
func (s *Server) enqueue(r *request) error {
	select {
	case s.in <- r:
		return nil
	case <-s.done:
		return ErrClosed
	default:
		// pending admits at most MaxQueue queries and the channel holds
		// MaxQueue requests, so the only way the send can fail is a
		// canceled waiter whose request is still queued; treat it as the
		// bound it is.
		return ErrQueueFull
	}
}

// wait blocks until r's results are delivered (nil), its context is
// done (the context's error) or the server closes (ErrClosed). A
// result that is already waiting wins over either: Close flushes
// admitted requests before done closes, and select picks ready cases
// at random.
func (s *Server) wait(ctx context.Context, r *request) error {
	select {
	case <-r.done:
		return nil
	case <-ctx.Done():
	case <-s.done:
	}
	select {
	case <-r.done:
		return nil
	default:
	}
	if err := ctx.Err(); err != nil {
		s.stats.cancel(len(r.pqs))
		return err
	}
	s.stats.closedReject(len(r.pqs))
	return ErrClosed
}

// Stats returns a snapshot of the serving counters.
func (s *Server) Stats() Stats {
	return s.stats.snapshot(int(s.pending.Load()))
}

// Close stops the dispatcher after flushing every request already
// queued, then releases any remaining waiters with ErrClosed. It is
// idempotent and safe to call concurrently with Search.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		close(s.quit)
		<-s.done
	})
}

// dispatch is the coalescing loop. It is the only goroutine that
// touches the engine's batch path, so "no sweep in flight" is simply
// "the dispatcher is here, blocked": it takes the first request the
// moment it arrives, adds whatever queued up behind it — while the
// previous sweep ran — and flushes; no timer is needed to bound the
// wait because nothing ever waits on an idle dispatcher.
func (s *Server) dispatch() {
	defer close(s.done)
	batch := make([]*request, 0, s.cfg.MaxBatch)
	for {
		if s.held == nil {
			select {
			case s.held = <-s.in:
			case <-s.quit:
				// Flush whatever was admitted before shutdown, still in
				// MaxBatch-sized sweeps (the backlog can approach
				// MaxQueue); anything submitted after done closes gets
				// ErrClosed.
				for {
					batch = s.fill(batch[:0])
					if len(batch) == 0 {
						return
					}
					s.flush(batch)
				}
			}
		}
		batch = s.fill(batch[:0])
		s.flush(batch)
	}
}

// fill starts a batch with the held request, if any, and tops it up
// to MaxBatch queries with requests that are already queued, without
// waiting for more. A request that does not fit is held for the next
// batch.
func (s *Server) fill(batch []*request) []*request {
	for n := 0; n < s.cfg.MaxBatch; {
		r := s.held
		if r == nil {
			select {
			case r = <-s.in:
			default:
				return batch
			}
		}
		if n+len(r.pqs) > s.cfg.MaxBatch {
			s.held = r
			return batch
		}
		s.held = nil
		batch = append(batch, r)
		n += len(r.pqs)
	}
	return batch
}

// flush scores one batch through the engine's batched search and
// delivers each request's results to its waiter. Requests whose
// context is already done are skipped — their waiters have left. A
// batch of one request sweeps under that request's context, any other
// batch uncancellably, so a failed sweep is a lone request's whose
// waiter has left too.
//
// Every flush is traced into the dispatcher-owned Trace (reset here,
// never allocated): assembly and sweep wall times plus whatever row
// and partition detail the engine's traced sweep records. The
// batch-level trace is snapshot once into the reusable QueryTrace
// record; each delivered query overlays its own identity, queue-wait
// and encode times, and feeds the latency stats and the slow-query
// ring.
func (s *Server) flush(batch []*request) {
	flushStart := time.Now()
	live := batch[:0:len(batch)]
	preps := s.preps[:0]
	for _, r := range batch {
		if r.ctx.Err() != nil {
			continue
		}
		live = append(live, r)
		preps = append(preps, r.pqs...)
	}
	s.preps = preps[:0]
	if len(live) == 0 {
		return
	}
	tr := &s.trace
	tr.Reset()
	tr.AddNanos(obsv.StageAssemble, int64(time.Since(flushStart)))
	ctx := context.Background()
	if len(live) == 1 {
		ctx = live[0].ctx
	}
	sweepStart := time.Now()
	res, err := s.engine.Search(ctx, preps, tr)
	if err != nil {
		return
	}
	tr.AddNanos(obsv.StageSweep, int64(time.Since(sweepStart)))
	s.batchSeq++
	now := time.Now()
	tr.Snapshot(&s.qt)
	s.qt.BatchID = s.batchSeq
	s.qt.BatchSize = len(preps)
	for _, r := range live {
		n := copy(r.res, res)
		res = res[n:]
		r.done <- struct{}{}
		lat := now.Sub(r.enqueued)
		s.qt.RequestID = r.reqID
		s.qt.Enqueued = r.enqueued
		s.qt.Total = lat
		s.qt.StageNanos[obsv.StageQueueWait] = int64(flushStart.Sub(r.enqueued))
		for i, pq := range r.pqs {
			s.qt.QueryID = pq.QueryID
			s.qt.StageNanos[obsv.StageEncode] = r.encNanos[i]
			if s.stats.observeRequest(lat, len(r.res[i].Top) > 0, &s.qt) && s.cfg.OnSlowQuery != nil {
				s.cfg.OnSlowQuery(s.qt)
			}
		}
	}
	s.stats.observeBatch(len(preps), tr)
}
