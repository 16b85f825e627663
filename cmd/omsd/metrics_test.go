package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/libindex"
	"repro/internal/msdata"
	"repro/internal/obsv"
	"repro/internal/serve"
	"repro/internal/spectrum"
)

// obsvDaemon is testDaemon with an explicit serve.Config, so
// observability tests can set slow-query thresholds and ring sizes.
func obsvDaemon(t testing.TB, cfg serve.Config) (*daemon, *msdata.Dataset) {
	t.Helper()
	ds, err := msdata.Generate(msdata.IPRG2012(0.001))
	if err != nil {
		t.Fatal(err)
	}
	p := core.DefaultParams()
	p.Accel.D = 1024
	p.Accel.NumChunks = 64
	engine, _, err := core.BuildExact(p, ds.Library)
	if err != nil {
		t.Fatal(err)
	}
	d := newDaemon(func() (*serving, error) {
		srv, err := serve.New(engine, cfg)
		if err != nil {
			return nil, err
		}
		return &serving{srv: srv, engine: engine, loaded: time.Now()}, nil
	})
	if _, err := d.reload(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.shutdown)
	return d, ds
}

// postQueries drives one MGF /search request through the handler.
func postQueries(t *testing.T, h http.Handler, ds *msdata.Dataset, header map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	var buf bytes.Buffer
	if err := spectrum.WriteMGF(&buf, ds.Queries); err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", "/search", bytes.NewReader(buf.Bytes()))
	for k, v := range header {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("search status %d: %s", rec.Code, rec.Body.String())
	}
	return rec
}

// scrape fetches /metrics and parses the exposition text.
func scrape(t *testing.T, h http.Handler) map[string]*obsv.PromFamily {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("metrics content type %q", ct)
	}
	fams, err := obsv.ParseProm(rec.Body)
	if err != nil {
		t.Fatalf("exposition text does not parse: %v", err)
	}
	return fams
}

// TestMetricsExposition is the /metrics golden test: the output must
// parse as Prometheus text format, carry the documented families with
// the right types, and every counter must be monotonic across scrapes
// with traffic in between.
func TestMetricsExposition(t *testing.T) {
	d, ds := obsvDaemon(t, serve.Config{MaxBatch: 16})
	mux := d.mux()
	postQueries(t, mux, ds, nil)
	fams := scrape(t, mux)

	wantType := map[string]string{
		"oms_requests_total":             "counter",
		"oms_requests_completed_total":   "counter",
		"oms_requests_rejected_total":    "counter",
		"oms_requests_canceled_total":    "counter",
		"oms_request_errors_total":       "counter",
		"oms_batches_total":              "counter",
		"oms_slow_queries_total":         "counter",
		"oms_queue_depth":                "gauge",
		"oms_batch_size":                 "histogram",
		"oms_request_latency_seconds":    "histogram",
		"oms_stage_seconds_total":        "counter",
		"oms_search_rows_swept_total":    "counter",
		"oms_search_rows_admitted_total": "counter",
		"oms_reload_generation":          "gauge",
		"oms_reload_total":               "counter",
		"oms_reload_failures_total":      "counter",
		"oms_index_references":           "gauge",
		"oms_uptime_seconds":             "gauge",
	}
	// The K-tier ladder's families went with it; none may come back.
	for _, name := range []string{
		"oms_tier_seconds_total",
		"oms_cascade_rows_total",
		"oms_cascade_prune_rate",
		"oms_cascade_tier_rows_total",
		"oms_cascade_tier_prune_rate",
		"oms_partition_rows_prefiltered_total",
		"oms_partition_rows_completed_total",
		"oms_search_rows_completed_total",
	} {
		if _, ok := fams[name]; ok {
			t.Fatalf("removed family %s is exported", name)
		}
	}
	for name, typ := range wantType {
		f, ok := fams[name]
		if !ok {
			t.Fatalf("family %s missing", name)
		}
		if f.Type != typ {
			t.Fatalf("family %s has type %s, want %s", name, f.Type, typ)
		}
		if f.Help == "" {
			t.Fatalf("family %s has no HELP line", name)
		}
	}
	if v, ok := fams["oms_requests_completed_total"].Sample("oms_requests_completed_total", ""); !ok || v <= 0 {
		t.Fatalf("no completed requests after traffic: %v", v)
	}
	if v, ok := fams["oms_reload_generation"].Sample("oms_reload_generation", ""); !ok || v != 1 {
		t.Fatalf("reload generation %v after initial load, want 1", v)
	}
	// Per-stage rollup: one sample per stage name, sweep nonzero.
	stages := fams["oms_stage_seconds_total"]
	if len(stages.Samples) != int(obsv.NumStages) {
		t.Fatalf("%d stage samples, want %d: %v", len(stages.Samples), obsv.NumStages, stages.Samples)
	}
	if v, ok := stages.Sample("oms_stage_seconds_total", `stage="sweep"`); !ok || v <= 0 {
		t.Fatalf("no sweep time in stage rollup: %v", stages.Samples)
	}
	// Histogram integrity: bucket counts cumulative, _count equals the
	// +Inf bucket.
	lat := fams["oms_request_latency_seconds"]
	count, _ := lat.Sample("oms_request_latency_seconds_count", "")
	inf, _ := lat.Sample("oms_request_latency_seconds_bucket", `le="+Inf"`)
	if count <= 0 || count != inf {
		t.Fatalf("latency histogram count %v != +Inf bucket %v", count, inf)
	}

	// Monotonicity: more traffic, then every counter value must be >=
	// its first reading.
	postQueries(t, mux, ds, nil)
	fams2 := scrape(t, mux)
	for _, name := range obsv.CounterNames(fams) {
		f1, f2 := fams[name], fams2[name]
		if f2 == nil {
			t.Fatalf("counter family %s vanished on rescrape", name)
		}
		for sample, v1 := range f1.Samples {
			if v2, ok := f2.Samples[sample]; !ok || v2 < v1 {
				t.Fatalf("counter %s went backwards: %v -> %v", sample, v1, v2)
			}
		}
	}
	was, _ := fams["oms_requests_completed_total"].Sample("oms_requests_completed_total", "")
	if got, _ := fams2["oms_requests_completed_total"].Sample("oms_requests_completed_total", ""); got <= was {
		t.Fatalf("completed counter did not advance with traffic: %v -> %v", was, got)
	}
}

// TestMetricsConcurrentWithSearch hammers /metrics while /search
// traffic runs — the scrape path must be race-free against the
// dispatcher and engine counters (run under -race in CI).
func TestMetricsConcurrentWithSearch(t *testing.T) {
	d, ds := obsvDaemon(t, serve.Config{MaxBatch: 16})
	mux := d.mux()
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				postQueries(t, mux, ds, nil)
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				scrape(t, mux)
				rec := httptest.NewRecorder()
				mux.ServeHTTP(rec, httptest.NewRequest("GET", "/stats", nil))
				if rec.Code != http.StatusOK {
					t.Errorf("stats status %d", rec.Code)
				}
			}
		}()
	}
	wg.Wait()
}

// TestStatsVsReloadRace snapshots Stats and scrapes /metrics
// concurrently with generation reloads — pinning that a stats read
// never tears against a SIGHUP swap (run under -race in CI).
func TestStatsVsReloadRace(t *testing.T) {
	d, ds := obsvDaemon(t, serve.Config{MaxBatch: 16})
	mux := d.mux()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if _, err := d.reload(); err != nil {
				t.Errorf("reload: %v", err)
			}
		}
		close(stop)
	}()
	for w := 0; w < 2; w++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				sv := d.acquire()
				if sv == nil {
					return
				}
				st := sv.srv.Stats()
				if st.Completed > st.Requests {
					t.Errorf("torn stats: completed %d > requests %d", st.Completed, st.Requests)
				}
				sv.release()
			}
		}()
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				scrape(t, mux)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		postQueries(t, mux, ds, nil)
	}()
	wg.Wait()
	// The generation counter saw the initial load plus ten reloads.
	if g := d.generation.Load(); g != 11 {
		t.Fatalf("generation %d after 1 load + 10 reloads", g)
	}
}

// TestSlowestEndpoint drives traffic with a 1ns threshold (everything
// is slow) and checks /debug/slowest reports per-stage timings joined
// to the inbound request ID.
func TestSlowestEndpoint(t *testing.T) {
	d, ds := obsvDaemon(t, serve.Config{
		MaxBatch:           16,
		SlowQueryThreshold: time.Nanosecond,
	})
	// Route through the middleware so X-Request-ID lands in traces.
	h := withRequestID(d.mux(), false)
	postQueries(t, h, ds, map[string]string{"X-Request-ID": "req-slowest"})

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/slowest", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("slowest status %d", rec.Code)
	}
	var body struct {
		Slowest []slowTraceView `json:"slowest"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if len(body.Slowest) == 0 {
		t.Fatal("no slow traces after traffic with a 1ns threshold")
	}
	for i, v := range body.Slowest {
		if i > 0 && v.TotalUS > body.Slowest[i-1].TotalUS {
			t.Fatalf("slowest not sorted by latency: %d above %d", v.TotalUS, body.Slowest[i-1].TotalUS)
		}
		if v.QueryID == "" || v.BatchID == 0 {
			t.Fatalf("trace %d missing identity: %+v", i, v)
		}
		if v.RequestID != "req-slowest" {
			t.Fatalf("trace %d request id %q, want req-slowest", i, v.RequestID)
		}
		if v.RowsAdmitted > v.RowsSwept {
			t.Fatalf("trace %d admits %d rows of %d swept", i, v.RowsAdmitted, v.RowsSwept)
		}
		for s := obsv.Stage(0); s < obsv.NumStages; s++ {
			if _, ok := v.StagesUS[s.String()]; !ok {
				t.Fatalf("trace %d missing stage %q: %v", i, s, v.StagesUS)
			}
		}
	}
	// The slow counter is visible on /metrics too.
	fams := scrape(t, h)
	if v, ok := fams["oms_slow_queries_total"].Sample("oms_slow_queries_total", ""); !ok || v <= 0 {
		t.Fatalf("oms_slow_queries_total %v after slow traffic", v)
	}
}

// TestRequestIDMiddleware pins header echo, ID generation and the
// access-log line format.
func TestRequestIDMiddleware(t *testing.T) {
	var gotCtxID string
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotCtxID = serve.RequestIDFrom(r.Context())
		w.WriteHeader(http.StatusTeapot)
		fmt.Fprint(w, "short and stout")
	})

	// Inbound ID: echoed and propagated.
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("GET", "/healthz", nil)
	req.Header.Set("X-Request-ID", "req-inbound")
	withRequestID(inner, false).ServeHTTP(rec, req)
	if got := rec.Header().Get("X-Request-ID"); got != "req-inbound" {
		t.Fatalf("response echoes %q, want req-inbound", got)
	}
	if gotCtxID != "req-inbound" {
		t.Fatalf("context carries %q, want req-inbound", gotCtxID)
	}

	// No inbound ID: one is generated, echoed and propagated.
	rec = httptest.NewRecorder()
	withRequestID(inner, false).ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	gen := rec.Header().Get("X-Request-ID")
	if !strings.HasPrefix(gen, "req-") || gen != gotCtxID {
		t.Fatalf("generated id %q (context %q)", gen, gotCtxID)
	}

	// Access-log line: swap stderr for a pipe and check the fields.
	old := os.Stderr
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stderr = pw
	rec = httptest.NewRecorder()
	req = httptest.NewRequest("GET", "/stats", nil)
	req.Header.Set("X-Request-ID", "req-logged")
	withRequestID(inner, true).ServeHTTP(rec, req)
	closeErr := pw.Close()
	os.Stderr = old
	if closeErr != nil {
		t.Fatal(closeErr)
	}
	line, err := io.ReadAll(pr)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"omsd: access", "method=GET", "path=/stats", "status=418",
		fmt.Sprintf("bytes=%d", len("short and stout")), "duration_us=", "request_id=req-logged",
	} {
		if !strings.Contains(string(line), want) {
			t.Fatalf("access log line %q missing %q", line, want)
		}
	}
}

// TestBareFileReportsOnePartition pins that a daemon over a bare index
// file reports what a one-partition generation-1 manifest reports, on
// every surface: /healthz, /stats and /metrics.
func TestBareFileReportsOnePartition(t *testing.T) {
	ds, err := msdata.Generate(msdata.IPRG2012(0.001))
	if err != nil {
		t.Fatal(err)
	}
	p := core.DefaultParams()
	p.Accel.D = 1024
	p.Accel.NumChunks = 64
	engine, _, err := core.BuildExact(p, ds.Library)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "lib.omsidx")
	if err := libindex.SaveFile(path, p, engine.Library()); err != nil {
		t.Fatal(err)
	}
	cfg := servingConfig{indexPath: path, maxBatch: 8, maxQueue: 1024}
	d := newDaemon(func() (*serving, error) { return buildServing(cfg) })
	sv, err := d.reload()
	if err != nil {
		t.Fatal(err)
	}
	defer d.shutdown()
	if !strings.Contains(sv.desc, "manifest generation 1, ") || !strings.Contains(sv.desc, " in 1 partitions (0 deltas, 0 tombstones)") {
		t.Fatalf("load line %q", sv.desc)
	}
	mux := d.mux()

	get := func(path string, v any) {
		t.Helper()
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if err := json.Unmarshal(rec.Body.Bytes(), v); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
	}
	var health map[string]any
	get("/healthz", &health)
	if health["partitions"] != 1.0 || health["manifest_generation"] != 1.0 || health["delta_partitions"] != 0.0 {
		t.Fatalf("healthz %v, want one partition at generation 1", health)
	}
	var stats statsView
	get("/stats", &stats)
	if len(stats.Partitions) != 1 || stats.Partitions[0].Refs != engine.NumRefs() || stats.Overlay.Generation != 1 {
		t.Fatalf("stats partitions %+v overlay %+v, want one partition of %d refs at generation 1",
			stats.Partitions, stats.Overlay, engine.NumRefs())
	}

	fams := scrape(t, mux)
	for _, want := range []struct {
		family, labels string
		v              float64
	}{
		{"oms_index_partitions", "", 1},
		{"oms_manifest_generation", "", 1},
		{"oms_partition_refs", `partition="0"`, float64(engine.NumRefs())},
	} {
		f := fams[want.family]
		if f == nil {
			t.Fatalf("family %s missing", want.family)
		}
		if v, ok := f.Sample(want.family, want.labels); !ok || v != want.v {
			t.Fatalf("%s{%s} = %v (present %v), want %v", want.family, want.labels, v, ok, want.v)
		}
	}
	if n := len(fams["oms_partition_refs"].Samples); n != 1 {
		t.Fatalf("%d oms_partition_refs series, want 1", n)
	}
}

// TestSlowQueryLine pins the slow-query log line byte for byte: its
// field names and order are what operators grep for, and its stage
// fields are obsv's stages under their exposition names.
func TestSlowQueryLine(t *testing.T) {
	qt := obsv.QueryTrace{
		QueryID:      "q-7",
		RequestID:    "req-ci",
		BatchID:      42,
		BatchSize:    3,
		Total:        1234567 * time.Nanosecond,
		RowsSwept:    9000,
		RowsAdmitted: 17,
	}
	for s := range qt.StageNanos {
		qt.StageNanos[s] = int64(s+1)*1001000 + 999
	}
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	stderr := os.Stderr
	os.Stderr = w
	logSlowQuery(qt)
	os.Stderr = stderr
	w.Close()
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	const want = "omsd: slow-query query_id=q-7 request_id=req-ci batch_id=42 batch_size=3 total_us=1234 " +
		"queue_wait_us=1001 encode_us=2002 assemble_us=3003 sweep_us=4004 merge_us=5005 rows_swept=9000 rows_admitted=17\n"
	if string(got) != want {
		t.Errorf("slow-query line\n got %q\nwant %q", got, want)
	}
}
