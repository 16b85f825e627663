package main

import (
	"fmt"
	"log"
	"net/http"
	"os"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/obsv"
	"repro/internal/serve"
)

// handleMetrics renders the serving counters in the Prometheus text
// exposition format (version 0.0.4). Families and label names are
// documented in DESIGN.md §10 and pinned by TestMetricsExposition; all
// values come from one Stats snapshot plus the engine's partition
// telemetry, so a scrape never blocks a search beyond the collector
// mutex.
func (d *daemon) handleMetrics(w http.ResponseWriter, sv *serving) {
	st := sv.srv.Stats()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	p := obsv.NewPromWriter(w)

	p.Counter("oms_requests_total", "Query submissions: admissions plus preparation failures.", float64(st.Requests))
	p.Counter("oms_requests_completed_total", "Requests whose batch delivered a result.", float64(st.Completed))
	p.Counter("oms_requests_matched_total", "Completed requests that produced a PSM.", float64(st.Matched))
	p.Counter("oms_requests_skipped_total", "Queries rejected before batching (preprocessing or empty precursor window).", float64(st.Skipped))
	p.Counter("oms_requests_rejected_total", "Admission-control rejections (queue full).", float64(st.Rejected))
	p.Counter("oms_requests_canceled_total", "Waiters whose context ended before a result.", float64(st.Canceled))
	p.Counter("oms_requests_closed_total", "Requests released by server shutdown.", float64(st.Closed))
	p.Counter("oms_request_errors_total", "Query encoding failures.", float64(st.Errors))
	p.Counter("oms_batches_total", "Flushed batches.", float64(st.Batches))
	p.Counter("oms_slow_queries_total", "Requests at or above the -slow-query threshold.", float64(st.SlowQueries))
	p.Gauge("oms_queue_depth", "Requests outstanding right now (queued or being scored).", float64(st.QueueDepth))

	bh := make([]obsv.HistBucket, len(st.BatchSizes))
	for i, b := range st.BatchSizes {
		bh[i] = obsv.HistBucket{Le: float64(b.Le), Count: b.Count}
	}
	// Batch sizes sum to the delivered-request total.
	p.Histogram("oms_batch_size", "Coalesced batch sizes (power-of-two buckets).", bh, float64(st.Completed), "")

	lh := make([]obsv.HistBucket, len(st.LatencyBuckets))
	for i, b := range st.LatencyBuckets {
		lh[i] = obsv.HistBucket{Le: float64(b.Le) / 1e6, Count: b.Count}
	}
	p.Histogram("oms_request_latency_seconds", "Request latency, enqueue to batch scored (power-of-two microsecond buckets).", lh, st.LatencySum.Seconds(), "")

	p.Family("oms_stage_seconds_total", "Cumulative per-stage pipeline time across traced requests and batches.", "counter")
	for _, s := range st.StageTotals {
		p.Sample("oms_stage_seconds_total", obsv.Label("stage", s.Stage), float64(s.Nanos)/1e9)
	}

	p.Counter("oms_search_rows_swept_total", "Candidate rows covered by traced sweeps.", float64(st.RowsSwept))
	p.Counter("oms_search_rows_admitted_total", "Swept rows the sweep kernel admitted to a top-k heap.", float64(st.RowsAdmitted))

	stats := sv.engine.PartitionStats()
	p.Family("oms_partition_refs", "References per partition.", "gauge")
	for i, ps := range stats {
		p.Sample("oms_partition_refs", partLabel(i), float64(ps.Refs))
	}
	p.Family("oms_partition_rows_swept_total", "Candidate rows swept per partition.", "counter")
	for i, ps := range stats {
		p.Sample("oms_partition_rows_swept_total", partLabel(i), float64(ps.RowsSwept))
	}

	ov := sv.engine.OverlayStats()
	p.Gauge("oms_manifest_generation", "Manifest-log generation the current index serves.", float64(ov.Generation))
	p.Gauge("oms_delta_partitions", "Delta-tier partitions in the current generation.", float64(ov.DeltaPartitions))
	p.Gauge("oms_delta_refs", "References in the delta tier.", float64(ov.DeltaRefs))
	p.Gauge("oms_tombstones", "Outstanding retractions (tombstones).", float64(ov.Tombstones))
	p.Gauge("oms_hidden_refs", "Physical rows shadowed by tombstones or newer-generation re-additions.", float64(ov.HiddenRefs))

	p.Gauge("oms_reload_generation", "Serving generation id (1 = initial load, +1 per successful reload).", float64(d.generation.Load()))
	p.Counter("oms_reload_total", "Successful index loads, including the initial one.", float64(d.generation.Load()))
	p.Counter("oms_reload_failures_total", "Failed reload attempts (the previous index kept serving).", float64(d.reloadFailures.Load()))

	p.Gauge("oms_index_references", "Encoded references served by the current generation.", float64(sv.engine.NumRefs()))
	p.Gauge("oms_index_skipped_refs", "Reference spectra rejected by preprocessing at build time.", float64(sv.engine.Skipped()))
	p.Gauge("oms_index_partitions", "Partition count of the current index (a bare index file is one).", float64(len(stats)))
	p.Gauge("oms_index_age_seconds", "Seconds since the current generation loaded.", time.Since(sv.loaded).Seconds())
	p.Gauge("oms_uptime_seconds", "Seconds since daemon start.", time.Since(d.started).Seconds())

	if err := p.Flush(); err != nil {
		log.Printf("omsd: writing /metrics response: %v", err)
	}
}

// partLabel renders the partition label for index i.
func partLabel(i int) string {
	return obsv.Label("partition", strconv.Itoa(i))
}

// slowTraceView is one slow-query trace on the wire: per-stage
// microseconds keyed by stage name, plus the identity joining it to
// the access log (request_id) and its batch (batch_id).
type slowTraceView struct {
	QueryID      string           `json:"query_id"`
	RequestID    string           `json:"request_id,omitempty"`
	BatchID      uint64           `json:"batch_id"`
	BatchSize    int              `json:"batch_size"`
	TotalUS      int64            `json:"total_us"`
	StagesUS     map[string]int64 `json:"stages_us"`
	RowsSwept    int64            `json:"rows_swept"`
	RowsAdmitted int64            `json:"rows_admitted"`
	Partitions   []slowPartView   `json:"partitions,omitempty"`
}

// slowPartView is one partition's share of a slow query's batch sweep.
type slowPartView struct {
	Partition int   `json:"partition"`
	Rows      int   `json:"rows"`
	SweepUS   int64 `json:"sweep_us"`
}

// handleSlowest renders the worst-latency query traces (latency
// descending) with their per-stage timings.
func (d *daemon) handleSlowest(w http.ResponseWriter, sv *serving) {
	traces := sv.srv.Slowest()
	views := make([]slowTraceView, 0, len(traces))
	for i := range traces {
		views = append(views, slowView(&traces[i]))
	}
	writeJSON(w, map[string]any{"slowest": views})
}

// slowView converts a trace record to its wire shape.
func slowView(qt *obsv.QueryTrace) slowTraceView {
	v := slowTraceView{
		QueryID:      qt.QueryID,
		RequestID:    qt.RequestID,
		BatchID:      qt.BatchID,
		BatchSize:    qt.BatchSize,
		TotalUS:      qt.Total.Microseconds(),
		StagesUS:     make(map[string]int64, int(obsv.NumStages)),
		RowsSwept:    qt.RowsSwept,
		RowsAdmitted: qt.RowsAdmitted,
	}
	for s := obsv.Stage(0); s < obsv.NumStages; s++ {
		v.StagesUS[s.String()] = qt.Stage(s).Microseconds()
	}
	for _, ps := range qt.Parts[:qt.NumParts] {
		v.Partitions = append(v.Partitions, slowPartView{
			Partition: ps.Index,
			Rows:      ps.Rows,
			SweepUS:   time.Duration(ps.Nanos).Microseconds(),
		})
	}
	return v
}

// logSlowQuery is the threshold-triggered structured log line, wired
// as the batcher's OnSlowQuery callback (dispatcher goroutine, one
// write, no locks); its stage fields are obsv's, as in /debug/slowest.
func logSlowQuery(qt obsv.QueryTrace) {
	b := fmt.Appendf(nil, "omsd: slow-query query_id=%s request_id=%s batch_id=%d batch_size=%d total_us=%d",
		qt.QueryID, qt.RequestID, qt.BatchID, qt.BatchSize, qt.Total.Microseconds())
	for s := range obsv.NumStages {
		b = fmt.Appendf(b, " %s_us=%d", s, qt.Stage(s).Microseconds())
	}
	os.Stderr.Write(fmt.Appendf(b, " rows_swept=%d rows_admitted=%d\n", qt.RowsSwept, qt.RowsAdmitted))
}

// reqSeq numbers generated request IDs.
var reqSeq atomic.Uint64

// nextRequestID generates a process-unique request ID for requests
// that did not send X-Request-ID.
func nextRequestID() string {
	return fmt.Sprintf("req-%d-%d", os.Getpid(), reqSeq.Add(1))
}

// statusWriter captures the response status and body size for the
// access log.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.status == 0 {
		sw.status = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	n, err := sw.ResponseWriter.Write(b)
	sw.bytes += int64(n)
	return n, err
}

// withRequestID wraps a handler with X-Request-ID propagation: the
// inbound header (or a generated ID) is echoed on the response and
// attached to the request context, so every search the handler submits
// carries it into its trace record — the join key between the access
// log and /debug/slowest. When logLine is set (-access-log), one
// structured line per request goes to stderr; batches are shared
// across requests, so the per-batch ids live in the slow-query traces,
// joined via request_id.
func withRequestID(next http.Handler, logLine bool) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := r.Header.Get("X-Request-ID")
		if id == "" {
			id = nextRequestID()
		}
		w.Header().Set("X-Request-ID", id)
		r = r.WithContext(serve.WithRequestID(r.Context(), id))
		sw := &statusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r)
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		if logLine {
			fmt.Fprintf(os.Stderr, "omsd: access method=%s path=%s status=%d bytes=%d duration_us=%d request_id=%s\n",
				r.Method, r.URL.Path, sw.status, sw.bytes, time.Since(start).Microseconds(), id)
		}
	})
}
