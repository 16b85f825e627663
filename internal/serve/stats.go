package serve

import (
	"sync"
	"time"

	"repro/internal/obsv"
)

// Stats is a snapshot of the serving counters.
type Stats struct {
	// Requests counts every submitted query exactly once: those that
	// fail preparation (Skipped/Errors) plus every one offered to
	// admission control.
	Requests uint64
	// Completed counts queries whose batch delivered a result —
	// including waiters that had already given up, so a cancellation
	// racing a shared batch's sweep may appear in both Completed and
	// Canceled (a lone request's sweep stops, so it is only Canceled).
	Completed uint64
	// Matched counts completed queries that produced a PSM.
	Matched uint64
	// Skipped counts queries rejected before batching: failed
	// preprocessing or an empty precursor window.
	Skipped uint64
	// Rejected counts queries refused by admission control
	// (ErrQueueFull).
	Rejected uint64
	// Canceled counts queries whose waiter's context ended before they
	// received a result.
	Canceled uint64
	// Closed counts queries released by server shutdown.
	Closed uint64
	// Errors counts query encoding failures.
	Errors uint64
	// Batches counts flushed batches.
	Batches uint64
	// QueueDepth is the number of queries outstanding right now.
	QueueDepth int
	// MeanBatchSize is Completed / Batches.
	MeanBatchSize float64
	// BatchSizes is the batch-size histogram in power-of-two buckets:
	// BatchSizes[i] counts batches with size in (2^(i-1), 2^i].
	BatchSizes []BucketCount
	// LatencyP50 and LatencyP99 are approximate query latency
	// quantiles (enqueue → batch scored), resolved to the upper bound
	// of exponential histogram buckets.
	LatencyP50, LatencyP99 time.Duration
	// LatencyBuckets is the raw latency histogram: power-of-two
	// microsecond buckets, LatencyBuckets[i] counting queries with
	// latency in (2^(i-1), 2^i] µs, plus a final overflow bucket.
	LatencyBuckets []BucketCount
	// LatencySum is the total enqueue→scored latency across completed
	// queries — with Completed, the histogram's _sum/_count pair.
	LatencySum time.Duration
	// StageTotals is the cumulative per-stage time across all traced
	// queries/batches, one entry per obsv stage in stage order.
	StageTotals []StageTotal
	// RowsSwept is the cumulative candidate-row counter of the traced
	// sweeps, RowsAdmitted that of the swept rows their kernel admitted
	// to a top-k heap.
	RowsSwept, RowsAdmitted uint64
	// SlowQueries counts queries at or above Config.SlowQueryThreshold
	// (0 while the threshold is unset).
	SlowQueries uint64
}

// BucketCount is one histogram bucket: Count observations with value
// at most Le (and greater than the previous bucket's Le).
type BucketCount struct {
	Le    int    `json:"le"`
	Count uint64 `json:"count"`
}

// StageTotal is one pipeline stage's cumulative time.
type StageTotal struct {
	Stage string `json:"stage"`
	Nanos int64  `json:"nanos"`
}

// latency histogram buckets: powers of two from 1µs to ~8.6s, with a
// final overflow bucket.
const latBuckets = 24

// slowRingSize is how many worst-latency query traces a server retains
// for Slowest.
const slowRingSize = 16

// collector accumulates the counters. Counter increments come from
// many goroutines; histogram writes come only from the dispatcher.
// One mutex keeps it simple — none of this is on the per-word hot
// path, and a flush touches it once per batch.
type collector struct {
	mu sync.Mutex

	requests, completed, matched uint64
	skipped, rejected, canceled  uint64
	closed, errors, batches      uint64

	batchHist []uint64 // power-of-two buckets, index i ⇒ size ≤ 2^i
	latHist   [latBuckets + 1]uint64

	latSumNanos             int64
	stageNanos              [obsv.NumStages]int64
	rowsSwept, rowsAdmitted uint64
	slow                    uint64

	// ring holds the worst-latency query traces (preallocated to
	// slowRingSize once; inserts replace the current minimum), and
	// slowThresh mirrors Config.SlowQueryThreshold.
	ring       []obsv.QueryTrace
	slowThresh time.Duration
}

func (c *collector) init(cfg Config) {
	buckets := 1
	for 1<<buckets < cfg.MaxBatch {
		buckets++
	}
	c.batchHist = make([]uint64, buckets+1)
	c.ring = make([]obsv.QueryTrace, 0, slowRingSize)
	c.slowThresh = cfg.SlowQueryThreshold
}

// admit counts n prepared queries offered to admission control; all
// later outcomes (rejected, canceled, closed, completed) refer back to
// them.
func (c *collector) admit(n int) {
	c.mu.Lock()
	c.requests += uint64(n)
	c.mu.Unlock()
}

func (c *collector) reject(n int) {
	c.mu.Lock()
	c.rejected += uint64(n)
	c.mu.Unlock()
}

func (c *collector) cancel(n int) {
	c.mu.Lock()
	c.canceled += uint64(n)
	c.mu.Unlock()
}

func (c *collector) closedReject(n int) {
	c.mu.Lock()
	c.closed += uint64(n)
	c.mu.Unlock()
}

// prepared counts the queries of a submission that never reach
// admission: skipped by preprocessing or the precursor window, or
// failed to encode.
func (c *collector) prepared(skipped, failed int) {
	c.mu.Lock()
	c.requests += uint64(skipped + failed)
	c.skipped += uint64(skipped)
	c.errors += uint64(failed)
	c.mu.Unlock()
}

// observeRequest records one query's delivered result: latency histogram and
// sum, the query's own trace stages (queue wait, encode), the
// slow-query counter, and a slow-ring slot when the trace is among the
// worst seen. It reports whether the query crossed the slow
// threshold so the dispatcher can fire OnSlowQuery outside the lock.
func (c *collector) observeRequest(lat time.Duration, matched bool, qt *obsv.QueryTrace) bool {
	c.mu.Lock()
	c.completed++
	if matched {
		c.matched++
	}
	us := lat.Microseconds()
	b := 0
	for b < latBuckets && us > 1<<b {
		b++
	}
	c.latHist[b]++
	c.latSumNanos += int64(lat)
	c.stageNanos[obsv.StageQueueWait] += qt.StageNanos[obsv.StageQueueWait]
	c.stageNanos[obsv.StageEncode] += qt.StageNanos[obsv.StageEncode]
	slow := c.slowThresh > 0 && lat >= c.slowThresh
	if slow {
		c.slow++
	}
	c.ringOffer(qt)
	c.mu.Unlock()
	return slow
}

// ringOffer inserts a trace into the worst-latency ring: free slots
// fill first, then the trace replaces the current minimum if it is
// worse. The ring is preallocated, so an offer never allocates; the
// O(slowRingSize) scan runs under the collector lock once per query.
func (c *collector) ringOffer(qt *obsv.QueryTrace) {
	if len(c.ring) < cap(c.ring) {
		c.ring = append(c.ring, *qt)
		return
	}
	minI := 0
	for i := 1; i < len(c.ring); i++ {
		if c.ring[i].Total < c.ring[minI].Total {
			minI = i
		}
	}
	if qt.Total > c.ring[minI].Total {
		c.ring[minI] = *qt
	}
}

// slowestSnapshot copies the slow ring out under the lock (unsorted).
func (c *collector) slowestSnapshot() []obsv.QueryTrace {
	c.mu.Lock()
	out := make([]obsv.QueryTrace, len(c.ring))
	copy(out, c.ring)
	c.mu.Unlock()
	return out
}

// observeBatch records one flushed batch: its size and the batch-level
// trace stages (assemble, sweep, merge) plus the row counters.
func (c *collector) observeBatch(size int, tr *obsv.Trace) {
	c.mu.Lock()
	c.batches++
	b := 0
	for b < len(c.batchHist)-1 && size > 1<<b {
		b++
	}
	c.batchHist[b]++
	for s := obsv.StageAssemble; s < obsv.NumStages; s++ {
		c.stageNanos[s] += tr.StageNanos(s)
	}
	c.rowsSwept += uint64(tr.RowsSwept())
	c.rowsAdmitted += uint64(tr.RowsAdmitted())
	c.mu.Unlock()
}

// snapshot assembles a Stats under the lock.
func (c *collector) snapshot(queueDepth int) Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Stats{
		Requests:   c.requests,
		Completed:  c.completed,
		Matched:    c.matched,
		Skipped:    c.skipped,
		Rejected:   c.rejected,
		Canceled:   c.canceled,
		Closed:     c.closed,
		Errors:     c.errors,
		Batches:    c.batches,
		QueueDepth: queueDepth,
	}
	if c.batches > 0 {
		st.MeanBatchSize = float64(c.completed) / float64(c.batches)
	}
	for i, n := range c.batchHist {
		st.BatchSizes = append(st.BatchSizes, BucketCount{Le: 1 << i, Count: n})
	}
	st.LatencyP50 = latQuantile(&c.latHist, 0.50)
	st.LatencyP99 = latQuantile(&c.latHist, 0.99)
	for i, n := range c.latHist {
		st.LatencyBuckets = append(st.LatencyBuckets, BucketCount{Le: 1 << i, Count: n})
	}
	st.LatencySum = time.Duration(c.latSumNanos)
	for s := obsv.Stage(0); s < obsv.NumStages; s++ {
		st.StageTotals = append(st.StageTotals, StageTotal{Stage: s.String(), Nanos: c.stageNanos[s]})
	}
	st.RowsSwept, st.RowsAdmitted = c.rowsSwept, c.rowsAdmitted
	st.SlowQueries = c.slow
	return st
}

// latQuantile resolves quantile q against the latency histogram,
// returning the upper bound of the bucket where the cumulative count
// crosses q.
func latQuantile(hist *[latBuckets + 1]uint64, q float64) time.Duration {
	var total uint64
	for _, n := range hist {
		total += n
	}
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var cum uint64
	for b, n := range hist {
		cum += n
		if cum > rank {
			if b >= latBuckets {
				b = latBuckets // overflow bucket reports the cap
			}
			return time.Duration(1<<b) * time.Microsecond
		}
	}
	return time.Duration(1<<latBuckets) * time.Microsecond
}
