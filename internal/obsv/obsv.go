// Package obsv is the stdlib-only observability layer of the serving
// stack: a lightweight per-query stage-tracing API (Trace/Span) cheap
// enough for the kernel hot path, the trace record the slow-query ring
// stores, and a small Prometheus text-exposition writer/parser pair
// for the /metrics endpoint and its tests.
//
// The stage model mirrors the serving pipeline. A request waits in the
// coalescing queue (StageQueueWait), its batch is assembled
// (StageAssemble), the engine sweep runs (StageSweep, wall time of the
// batched engine call), inside which the partition/shard results merge
// (StageMerge); query encoding (StageEncode) happens per request before
// admission. Partition times are summed across concurrent workers, so
// they are CPU-time-like and may exceed the wall-clock StageSweep that
// contains them.
//
// Tracing is allocation-free on the hot path by construction: a Trace
// is a fixed block of atomic counters owned by its caller (the serving
// layer reuses one per dispatcher), a Span is a value, and every
// method is nil-safe so untraced paths pay one branch;
// TestSpanZeroAlloc pins the hot-path methods at zero allocations.
package obsv

import (
	"sync/atomic"
	"time"
)

// Stage identifies one pipeline stage of a query's lifetime.
type Stage uint8

const (
	// StageQueueWait is enqueue → batch flush start, per request.
	StageQueueWait Stage = iota
	// StageEncode is preprocessing + hypervector encoding + candidate
	// range resolution, per request.
	StageEncode
	// StageAssemble is the flush loop's batch assembly: liveness
	// filtering and prepared-query copy, per batch.
	StageAssemble
	// StageSweep is the wall time of the batched engine call, per
	// batch.
	StageSweep
	// StageMerge is shard- and partition-level top-k merging.
	StageMerge
	// NumStages bounds the stage enum; valid stages are < NumStages.
	NumStages
)

// stageNames are the stable exposition names, indexed by Stage.
var stageNames = [NumStages]string{
	"queue_wait", "encode", "assemble", "sweep", "merge",
}

// String returns the stage's stable exposition name.
func (s Stage) String() string {
	if s >= NumStages {
		return "invalid"
	}
	return stageNames[s]
}

// MaxTracedPartitions bounds the per-partition sweep records a Trace
// keeps; sweeps of partitions beyond the cap are still timed in the
// stage totals but drop their per-partition record.
const MaxTracedPartitions = 16

// PartSweep is one partition's share of a batch sweep.
type PartSweep struct {
	// Index is the partition index in engine order.
	Index int
	// Rows is the number of candidate rows the batch covered in this
	// partition (summed over the batch's queries).
	Rows int
	// Nanos is the partition's sweep wall time within the batch.
	Nanos int64
}

// Trace accumulates one batch's stage timings, swept-row counter and
// per-partition sweeps. Stage slots are atomics because shard and
// partition workers add concurrently; a Trace must not be copied.
// The zero value is ready to use, and all methods are nil-safe: a nil
// *Trace turns every recording call into a no-op branch, which is how
// untraced scan paths share the traced code.
type Trace struct {
	stages    [NumStages]atomic.Int64
	rowsSwept atomic.Int64
	nparts    atomic.Int32
	parts     [MaxTracedPartitions]PartSweep
}

// Reset clears the trace for reuse by the next batch.
func (t *Trace) Reset() {
	if t == nil {
		return
	}
	for i := range t.stages {
		t.stages[i].Store(0)
	}
	t.rowsSwept.Store(0)
	t.nparts.Store(0)
}

// AddNanos accumulates d nanoseconds into a stage.
func (t *Trace) AddNanos(s Stage, d int64) {
	if t == nil || s >= NumStages {
		return
	}
	t.stages[s].Add(d)
}

// AddRows accumulates the count of candidate rows the sweep scored.
func (t *Trace) AddRows(swept int64) {
	if t == nil {
		return
	}
	t.rowsSwept.Add(swept)
}

// AddPartition records one partition's sweep. Concurrent partition
// workers reserve distinct slots through the atomic counter; records
// past MaxTracedPartitions are dropped (the stage totals still carry
// their time).
func (t *Trace) AddPartition(index, rows int, nanos int64) {
	if t == nil {
		return
	}
	i := t.nparts.Add(1) - 1
	if int(i) < len(t.parts) {
		t.parts[i] = PartSweep{Index: index, Rows: rows, Nanos: nanos}
	}
}

// Start opens a span on a stage; End accumulates its elapsed time.
// The monotonic clock inside time.Now carries through time.Since, so
// spans are immune to wall-clock steps.
func (t *Trace) Start(s Stage) Span {
	if t == nil {
		return Span{}
	}
	return Span{tr: t, stage: s, start: time.Now()}
}

// Span is one open stage measurement: a value, so starting and ending
// a span allocates nothing.
type Span struct {
	tr    *Trace
	stage Stage
	start time.Time
}

// End closes the span, adding its elapsed nanoseconds to the stage.
// Ending the zero Span (from a nil trace) is a no-op.
func (sp Span) End() {
	if sp.tr == nil {
		return
	}
	sp.tr.stages[sp.stage].Add(int64(time.Since(sp.start)))
}

// StageNanos returns the accumulated nanoseconds of one stage.
func (t *Trace) StageNanos(s Stage) int64 {
	if t == nil || s >= NumStages {
		return 0
	}
	return t.stages[s].Load()
}

// RowsSwept returns the accumulated swept-row counter.
func (t *Trace) RowsSwept() int64 {
	if t == nil {
		return 0
	}
	return t.rowsSwept.Load()
}

// Partitions returns a copy of the recorded per-partition sweeps.
func (t *Trace) Partitions() []PartSweep {
	if t == nil {
		return nil
	}
	n := min(int(t.nparts.Load()), len(t.parts))
	out := make([]PartSweep, n)
	copy(out, t.parts[:n])
	return out
}

// QueryTrace is one request's completed trace record — the unit the
// slow-query ring stores and GET /debug/slowest renders. It is a pure
// value (fixed-size arrays, no slices), so recording one into the ring
// is a copy, not an allocation.
type QueryTrace struct {
	// QueryID is the query spectrum ID, RequestID the propagated
	// X-Request-ID of the HTTP request that submitted it (empty when
	// none was sent).
	QueryID   string
	RequestID string
	// BatchID is the dispatcher's flush sequence number; BatchSize the
	// number of live requests scored in that flush.
	BatchID   uint64
	BatchSize int
	// Enqueued is the request's admission time; Total its
	// enqueue → result-delivery latency.
	Enqueued time.Time
	Total    time.Duration
	// StageNanos holds per-stage nanoseconds, indexed by Stage.
	// QueueWait and Encode are this request's own; the batch-level
	// stages are shared with every request in the batch.
	StageNanos [NumStages]int64
	// RowsSwept is the batch's swept-row counter.
	RowsSwept int64
	// Parts[:NumParts] are the batch's per-partition sweeps.
	NumParts int
	Parts    [MaxTracedPartitions]PartSweep
}

// Stage returns one stage's duration.
func (qt *QueryTrace) Stage(s Stage) time.Duration {
	if s >= NumStages {
		return 0
	}
	return time.Duration(qt.StageNanos[s])
}

// Snapshot copies the trace's accumulated batch-level state into a
// query record: stage timings, the row counter and partition sweeps.
// The caller then overwrites the per-request stages (QueueWait,
// Encode) with the request's own values. Snapshotting into a
// caller-owned record keeps the hot path allocation-free.
func (t *Trace) Snapshot(qt *QueryTrace) {
	if t == nil {
		return
	}
	for i := range t.stages {
		qt.StageNanos[i] = t.stages[i].Load()
	}
	qt.RowsSwept = t.rowsSwept.Load()
	qt.NumParts = min(int(t.nparts.Load()), len(t.parts))
	copy(qt.Parts[:], t.parts[:qt.NumParts])
}
