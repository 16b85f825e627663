// Package serve is the request-coalescing serving layer over the OMS
// engine: it accepts individual Search calls from arbitrarily many
// concurrent goroutines and flushes them through one block-major
// batched top-k sweep per batch — turning N concurrent single-query
// requests into the same once-per-batch memory stream the offline
// batch path enjoys. Batching is group commit, not a timed window: the
// single dispatcher goroutine blocks for a request, takes whatever
// else is already queued (up to MaxBatch) and sweeps; requests that
// arrive during a sweep form the next batch. An idle server therefore
// answers a lone request at once, and batch size rises with load on
// its own. The paper's deployment story is a resident accelerator that
// amortizes one expensive library write across millions of searches
// and answers a query as soon as its rows are activated; this package
// is the software articulation of that story's serving half.
//
// Guarantees:
//
//   - With a deterministic searcher (the exact sharded engine — what
//     omsd runs) per-request results are bit-identical to a batch of
//     one: a query's PSM does not depend on which batch it lands in,
//     on the batch's composition, or on its position within the
//     batch. An engine wired to a noisy searcher draws its
//     error stream in batch order, so its serving results vary with
//     traffic timing — acceptable for robustness studies, not for the
//     deterministic serving contract.
//   - Admission is bounded: at most MaxQueue requests are outstanding
//     (queued or being scored); beyond that Search fails fast with
//     ErrQueueFull instead of building an unbounded backlog.
//   - Every request carries a context: a caller that gives up stops
//     waiting immediately, and its slot is skipped at flush time if
//     the batch has not started scoring yet. A lone request's sweep
//     runs under its context and stops at the next row block.
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

// ErrQueueFull is returned when admission control rejects a request
// because MaxQueue requests are already outstanding.
var ErrQueueFull = errors.New("serve: request queue full")

// ErrClosed is returned for requests submitted to (or still waiting
// on) a server that has been closed.
var ErrClosed = errors.New("serve: server closed")

// Config tunes the micro-batcher.
type Config struct {
	// MaxBatch caps how many queued requests one sweep takes; the rest
	// wait for the next (default 64 — one full sweep of queries per
	// pass over the packed store is the knee of the
	// bandwidth-amortization curve). There is no minimum and no wait:
	// a batch is whatever was queued when the dispatcher came free.
	MaxBatch int
	// MaxQueue bounds outstanding requests — queued plus being scored
	// — for admission control (default 4096).
	MaxQueue int
	// SlowQueryThreshold marks a request slow when its enqueue→scored
	// latency reaches it, counting it in Stats.SlowQueries and firing
	// OnSlowQuery. 0 disables the threshold (the slow ring still keeps
	// the worst traces).
	SlowQueryThreshold time.Duration
	// SlowRingSize is how many worst-latency query traces the server
	// retains for Slowest (default 16).
	SlowRingSize int
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
	if c.SlowRingSize <= 0 {
		c.SlowRingSize = 16
	}
	return c
}

// request is one queued search: a prepared query plus the plumbing to
// deliver its result.
type request struct {
	pq       core.PreparedQuery
	ctx      context.Context
	enqueued time.Time
	// encNanos is the caller-side preparation time (preprocess + encode
	// + range resolution) and reqID the propagated request ID; both feed
	// the request's trace record.
	encNanos int64
	reqID    string
	// out delivers the result; it is buffered (capacity 1) so the
	// dispatcher never blocks on a waiter that already gave up.
	out chan core.SearchResult
}

// Server coalesces concurrent searches into batched engine sweeps.
type Server struct {
	engine core.SearchEngine
	cfg    Config

	in   chan *request
	quit chan struct{}
	done chan struct{}

	// pending counts outstanding requests for admission control.
	pending atomic.Int64

	closeOnce sync.Once
	stats     collector

	// preps is the flush loop's reusable prepared-query scratch. Only
	// the dispatcher goroutine touches it, so no lock: it grows to
	// MaxBatch once and steady-state flushes allocate nothing.
	preps []core.PreparedQuery

	// trace and qt are the dispatcher-owned tracing scratch: one Trace
	// reset per flush (no allocation per batch) and one QueryTrace
	// record reused per delivered request. batchSeq numbers flushes for
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
		in:     make(chan *request, cfg.MaxQueue),
		quit:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	s.stats.init(cfg)
	go s.dispatch()
	return s, nil
}

// Search prepares one query in the caller's goroutine (preprocessing,
// encoding and candidate-range selection parallelize naturally across
// clients) and submits it for batched scoring. ok is false when the
// query is rejected by preprocessing, finds no visible candidate in
// the precursor window, or finds no match. The error is non-nil for
// encoding failures, admission rejection (ErrQueueFull), cancellation
// (the context's error) and shutdown (ErrClosed).
func (s *Server) Search(ctx context.Context, q *spectrum.Spectrum) (fdr.PSM, bool, error) {
	encStart := time.Now()
	pq, ok, err := s.engine.Prepare(q)
	encNanos := int64(time.Since(encStart))
	if err != nil {
		s.stats.prepareError()
		return fdr.PSM{}, false, err
	}
	if !ok {
		s.stats.skip()
		return fdr.PSM{}, false, nil
	}
	return s.searchPrepared(ctx, pq, encNanos)
}

// SearchPrepared submits an already prepared query for batched
// scoring and blocks until its batch is flushed, the context is done,
// or the server closes. The query's trace records zero encode time
// (preparation happened outside the server); a request ID attached to
// ctx via WithRequestID is carried into the trace.
func (s *Server) SearchPrepared(ctx context.Context, pq core.PreparedQuery) (fdr.PSM, bool, error) {
	return s.searchPrepared(ctx, pq, 0)
}

// searchPrepared submits a prepared query with its caller-side encode
// time.
func (s *Server) searchPrepared(ctx context.Context, pq core.PreparedQuery, encNanos int64) (fdr.PSM, bool, error) {
	s.stats.admit()
	if n := s.pending.Add(1); n > int64(s.cfg.MaxQueue) {
		s.pending.Add(-1)
		s.stats.reject()
		return fdr.PSM{}, false, ErrQueueFull
	}
	defer s.pending.Add(-1)

	r := &request{pq: pq, ctx: ctx, enqueued: time.Now(), encNanos: encNanos,
		reqID: RequestIDFrom(ctx), out: make(chan core.SearchResult, 1)}
	select {
	case s.in <- r:
	case <-s.done:
		s.stats.closedReject()
		return fdr.PSM{}, false, ErrClosed
	default:
		// pending admits at most MaxQueue requests and the channel holds
		// MaxQueue, so the only way the send can fail is a dispatcher
		// mid-drain race; treat it as the bound it is.
		s.stats.reject()
		return fdr.PSM{}, false, ErrQueueFull
	}
	select {
	case res := <-r.out:
		return res.PSM, len(res.Top) > 0, nil
	case <-ctx.Done():
		s.stats.cancel()
		return fdr.PSM{}, false, ctx.Err()
	case <-s.done:
		// Close drains and flushes admitted requests before done
		// closes, so this request's result may already be waiting —
		// prefer it over ErrClosed (select picks ready cases at
		// random, so the race is real).
		select {
		case res := <-r.out:
			return res.PSM, len(res.Top) > 0, nil
		default:
		}
		s.stats.closedReject()
		return fdr.PSM{}, false, ErrClosed
	}
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
		select {
		case r := <-s.in:
			batch = s.fill(append(batch[:0], r))
			s.flush(batch)
		case <-s.quit:
			// Flush whatever was admitted before shutdown, still in
			// MaxBatch-sized sweeps (the backlog can approach MaxQueue);
			// anything submitted after done closes gets ErrClosed.
			for {
				batch = s.fill(batch[:0])
				if len(batch) == 0 {
					return
				}
				s.flush(batch)
			}
		}
	}
}

// fill tops batch up to MaxBatch with requests that are already
// queued, without waiting for more.
func (s *Server) fill(batch []*request) []*request {
	for len(batch) < s.cfg.MaxBatch {
		select {
		case r := <-s.in:
			batch = append(batch, r)
		default:
			return batch
		}
	}
	return batch
}

// flush scores one batch through the engine's batched search and
// delivers each result to its waiter. Requests whose context is
// already done are skipped — their waiters have left. A batch of one
// sweeps under its request's context, any other batch uncancellably,
// so a failed sweep is a lone request's whose waiter has left too.
//
// Every flush is traced into the dispatcher-owned Trace (reset here,
// never allocated): assembly and sweep wall times plus whatever row
// and partition detail the engine's traced sweep records. Each
// delivered request snapshots the batch-level trace into the reusable
// QueryTrace record, overlays its own queue-wait and encode times, and
// feeds the latency stats and the slow-query ring.
func (s *Server) flush(batch []*request) {
	flushStart := time.Now()
	live := batch[:0:len(batch)]
	for _, r := range batch {
		if r.ctx.Err() != nil {
			continue
		}
		live = append(live, r)
	}
	if len(live) == 0 {
		return
	}
	if cap(s.preps) < len(live) {
		s.preps = make([]core.PreparedQuery, len(live))
	}
	preps := s.preps[:len(live)]
	for i, r := range live {
		preps[i] = r.pq
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
	for i, r := range live {
		r.out <- res[i]
		lat := now.Sub(r.enqueued)
		tr.Snapshot(&s.qt)
		s.qt.QueryID = r.pq.QueryID
		s.qt.RequestID = r.reqID
		s.qt.BatchID = s.batchSeq
		s.qt.BatchSize = len(live)
		s.qt.Enqueued = r.enqueued
		s.qt.Total = lat
		s.qt.StageNanos[obsv.StageQueueWait] = int64(flushStart.Sub(r.enqueued))
		s.qt.StageNanos[obsv.StageEncode] = r.encNanos
		if s.stats.observeRequest(lat, len(res[i].Top) > 0, &s.qt) && s.cfg.OnSlowQuery != nil {
			s.cfg.OnSlowQuery(s.qt)
		}
	}
	s.stats.observeBatch(len(live), tr)
}
