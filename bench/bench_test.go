//go:build linux

package main

import (
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

func TestPercentileAndMedian(t *testing.T) {
	vs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, tc := range []struct{ p, want float64 }{{0, 1}, {10, 1}, {50, 5}, {90, 9}, {99, 10}, {100, 10}} {
		if got := percentile(vs, tc.p); got != tc.want {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := median(vs); got != 5.5 {
		t.Errorf("median of ten = %v, want 5.5", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of three = %v, want 2", got)
	}
	if percentile(nil, 50) != 0 || median(nil) != 0 || mean(nil) != 0 {
		t.Error("empty samples must yield 0")
	}
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25].
	if got := iqr(vs); math.Abs(got-5.5) > 1e-12 {
		t.Errorf("iqr = %v, want 5.5", got)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0].
	if got := iqr([]float64{4, 1, 2}); math.Abs(got-3) > 1e-12 {
		t.Errorf("iqr of three = %v, want 3", got)
	}
	m := medianOfWindows([]float64{4, 1, 2})
	if m.Value != 2 || m.IQR != 3 || len(m.Windows) != 3 {
		t.Errorf("medianOfWindows = %+v", m)
	}
	if got := quietDecile(vs, true).Value; got != 1 {
		t.Errorf("quiet decile of a time = %v, want 1", got)
	}
	if got := quietDecile(vs, false).Value; got != 9 {
		t.Errorf("quiet decile of a rate = %v, want 9", got)
	}
}

// A timing taken while the machine ran at half the reference speed
// must come out as the reference machine would have shown it, whatever
// the other windows of the run looked like.
func TestReferenceSpeedScaling(t *testing.T) {
	var w windows
	w.add(10, 0.5)
	w.add(20, 1)
	w.add(9, 0.5)
	if got := atReferenceSpeed(w, true); !reflect.DeepEqual(got.Windows, []float64{5, 20, 4.5}) || got.Value != 5 {
		t.Errorf("times at reference speed = %+v", got)
	}
	if got := atReferenceSpeed(w, false); !reflect.DeepEqual(got.Windows, []float64{20, 20, 18}) || got.Value != 20 {
		t.Errorf("rates at reference speed = %+v", got)
	}
	slow := w.keep(func(i int) bool { return w.speed[i] < 1 })
	if !reflect.DeepEqual(slow, windows{raw: []float64{10, 9}, speed: []float64{0.5, 0.5}}) {
		t.Errorf("keep = %+v", slow)
	}
	s := &speedometer{speeds: []float64{0.5, 0.7, 0.9}}
	if got := s.between(0, 2); math.Abs(got-0.6) > 1e-12 {
		t.Errorf("speed over two bursts = %v, want 0.6", got)
	}
	if got := s.between(3, 3); got != 1 {
		t.Errorf("speed over no burst = %v, want 1 (reported as measured)", got)
	}
}

// The library file and everything serve-churn cuts from it are runs of
// per-spectrum texts, and the oracle works from those texts parsed
// back: whatever the number of CPUs the rendering was shared over.
func TestRenderRoundTrips(t *testing.T) {
	dir := t.TempDir()
	sz := sizing{targets: 30, queries: 5}
	one, err := generate(dir, 3, sz, 1)
	if err != nil {
		t.Fatal(err)
	}
	four, err := generate(t.TempDir(), 3, sz, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(one.libraryText, four.libraryText) || !reflect.DeepEqual(one.library, four.library) || !reflect.DeepEqual(one.bodies, four.bodies) {
		t.Error("inputs depend on the number of CPUs")
	}
	raw, err := os.ReadFile(one.libraryPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	for _, text := range one.libraryText {
		want = append(want, text...)
	}
	if len(one.library) != 60 || !reflect.DeepEqual(raw, want) {
		t.Errorf("library file holds %d bytes, its %d texts %d", len(raw), len(one.library), len(want))
	}
	other, err := generate(t.TempDir(), 4, sz, 1)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(one.libraryText, other.libraryText) {
		t.Error("different seeds gave the same library")
	}
}

func TestPoissonScheduleIsSeeded(t *testing.T) {
	a := poissonSchedule(rand.New(rand.NewSource(7)), 500, time.Second)
	b := poissonSchedule(rand.New(rand.NewSource(7)), 500, time.Second)
	c := poissonSchedule(rand.New(rand.NewSource(8)), 500, time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed gave different schedules")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds gave the same schedule")
	}
	if len(a) != 500 || a[len(a)-1] != time.Second {
		t.Errorf("schedule has %d arrivals ending at %v, want 500 ending at 1s", len(a), a[len(a)-1])
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatalf("schedule not ascending at %d", i)
		}
	}
}

// A server stall must show in the requests that came due during it,
// not only in the one request that was in flight, and must not be
// booked as the generator's own lateness.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const stall = 200 * time.Millisecond
	var served atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body) // a test stub; the body is irrelevant
		if served.Add(1) == 3 {
			time.Sleep(stall)
		}
	}))
	defer srv.Close()
	c := newLoadClient(srv.URL, "/", 1)
	defer c.close()
	offsets := make([]time.Duration, 30)
	for i := range offsets {
		offsets[i] = time.Duration(i) * 10 * time.Millisecond
	}
	samples, lateMax := c.openLoop(offsets, func(int) request {
		return request{body: []byte("x"), spectra: 1, verify: func([]byte) int { return 0 }}
	})
	// Request 2 (due at 20 ms) stalls until ≈ 220 ms; request 5 was due
	// at 50 ms and cannot be answered before the stall ends.
	if got := samples[5].latency(); got < stall-60*time.Millisecond {
		t.Errorf("request due during the stall took %v, want at least %v", got, stall-60*time.Millisecond)
	}
	if got := samples[0].latency(); got > stall/2 {
		t.Errorf("request before the stall took %v", got)
	}
	if lateMax > stall/2 {
		t.Errorf("generator lateness %v includes the server's stall", lateMax)
	}
	if a, f := tally(samples); a != 30 || f != 0 {
		t.Errorf("tally = %d attempted, %d failed", a, f)
	}
}

func TestWindowGoodSharesStraddlingRequests(t *testing.T) {
	samples := []sample{
		{start: 0, end: 500 * time.Millisecond, spectra: 64},
		{start: 500 * time.Millisecond, end: 1500 * time.Millisecond, spectra: 64},
		{start: 1500 * time.Millisecond, end: 2 * time.Second, spectra: 64, failed: 64},
	}
	got := windowGood(samples, []time.Duration{0, time.Second, 2 * time.Second})
	if math.Abs(got[0]-96) > 1e-9 || math.Abs(got[1]-32) > 1e-9 {
		t.Errorf("windowGood = %v, want [96 32]", got)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "request", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "parse", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "prepare", Start: 30, End: 90},
		{ID: 4, Parent: 3, Name: "encode", Start: 40, End: 80},
		{ID: 5, Parent: 1, Name: "parse", Start: 90, End: 95},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{"request": 15, "parse": 25, "prepare": 20, "encode": 40}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	rec := newRecorder()
	endOuter := rec.begin("outer", 1)
	endInner := rec.begin("inner", 1)
	endInner()
	endOuter()
	if rec.spans[1].Parent != rec.spans[0].ID || rec.spans[0].Parent != 0 {
		t.Errorf("recorder parentage = %+v", rec.spans)
	}
	var none *recorder
	none.begin("ignored", 0)() // a nil recorder must be usable
}

func TestMetricsDelta(t *testing.T) {
	text := func(completed, batches, wait, encode, latSum, rejected, requests float64) []byte {
		doc := `# HELP oms_requests_total r
# TYPE oms_requests_total counter
oms_requests_total ` + ftoa(requests) + `
# HELP oms_requests_completed_total c
# TYPE oms_requests_completed_total counter
oms_requests_completed_total ` + ftoa(completed) + `
# HELP oms_requests_rejected_total c
# TYPE oms_requests_rejected_total counter
oms_requests_rejected_total ` + ftoa(rejected) + `
# HELP oms_batches_total b
# TYPE oms_batches_total counter
oms_batches_total ` + ftoa(batches) + `
# HELP oms_request_latency_seconds l
# TYPE oms_request_latency_seconds histogram
oms_request_latency_seconds_bucket{le="+Inf"} ` + ftoa(completed) + `
oms_request_latency_seconds_sum ` + ftoa(latSum) + `
oms_request_latency_seconds_count ` + ftoa(completed) + `
# HELP oms_stage_seconds_total s
# TYPE oms_stage_seconds_total counter
oms_stage_seconds_total{stage="queue_wait"} ` + ftoa(wait) + `
oms_stage_seconds_total{stage="encode"} ` + ftoa(encode) + `
`
		return []byte(doc)
	}
	scrapes := make([]scrape, 3)
	for i, raw := range [][]byte{
		text(100, 10, 1, 1, 2, 0, 100),
		text(300, 110, 1.2, 1.1, 2.5, 0, 300),
		text(1300, 135, 9, 9, 9, 10, 1310),
	} {
		var err error
		if scrapes[i], err = parseScrape(raw); err != nil {
			t.Fatal(err)
		}
	}
	lat, thr := scrape{}, scrape{}
	lat.add(scrapes[1], scrapes[0])
	thr.add(scrapes[2], scrapes[1])
	thr.add(scrapes[2], scrapes[2]) // a window in which nothing happened adds nothing
	got := serveLayer(lat, thr, 5)
	for name, want := range map[string]float64{
		"serve.queue_wait_ms":   1,               // 0.2 s over 200 requests
		"omsd.edge_ms":          5 - (2.5 + 0.5), // client 5 ms − (latency 2.5 ms + encode 0.5 ms)
		"serve.batch_size_mean": 40,              // 1000 requests in 25 batches
		"serve.rejected_ratio":  10.0 / (1310 - 100),
	} {
		if math.Abs(got[name]-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got[name], want)
		}
	}
	if _, err := parseScrape([]byte("oms_orphan 1\n")); err == nil {
		t.Error("a sample without its TYPE block must be rejected")
	}
}

func ftoa(v float64) string {
	raw, _ := json.Marshal(v) // a finite float always marshals
	return string(raw)
}

func TestParseProcStatCPU(t *testing.T) {
	line := "4242 (omsd (v2) x) S 1 4242 4242 0 -1 4194304 100 0 0 0 250 50 0 0 20 0 7 0 100 1000 200 18446744073709551615\n"
	got, err := parseProcStatCPU(line)
	if err != nil || got != 3*time.Second {
		t.Errorf("parseProcStatCPU = %v, %v; want 3s", got, err)
	}
	if _, err := parseProcStatCPU("garbage"); err == nil {
		t.Error("malformed line accepted")
	}
}

func TestCompareFlagsRegressions(t *testing.T) {
	doc := func(p50, rate float64, correct bool) resultFile {
		e2e := map[string]measure{}
		for _, def := range endToEndMetrics {
			e2e[def.Name] = measure{Value: 1}
		}
		e2e["search_p50_ms"] = measure{Value: p50}
		e2e["spectra_per_s"] = measure{Value: rate}
		return resultFile{Schema: resultSchema, Workloads: []workloadResult{{Name: "serve-open", Correct: correct, EndToEnd: e2e}}}
	}
	base := doc(2, 1000, true)
	for _, tc := range []struct {
		name string
		b    resultFile
		want int
	}{
		{"same", doc(2, 1000, true), 0},
		{"better", doc(1, 2000, true), 0},
		{"inside the bound", doc(2.1, 980, true), 0},
		{"latency beyond the bound", doc(3, 1000, true), 1},
		{"throughput beyond the bound", doc(2, 500, true), 1},
		{"incorrect", doc(2, 1000, false), 1},
		{"workload missing", resultFile{Schema: resultSchema}, 1},
	} {
		if got := compareDocs(io.Discard, base, tc.b); got != tc.want {
			t.Errorf("%s: compare = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// benchmarkJSON mirrors the contract's BENCHMARK.json layout.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// BENCHMARK.json declares what this program measures; the two must
// not drift apart.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var got benchmarkJSON
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	want := benchmarkJSON{
		Command:    []string{"go", "run", "./bench"},
		Paths:      []string{"bench"},
		RunSeconds: 10,
		EndToEnd:   endToEndMetrics,
		PerLayer:   perLayerMetrics,
	}
	for _, w := range workloads {
		want.Workloads = append(want.Workloads, struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		}{w.name, w.why})
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, at most 200 allowed", w.name, len(w.why))
		}
	}
	if !reflect.DeepEqual(got, want) {
		exp, _ := json.MarshalIndent(want, "", "  ") // plain structs always marshal
		t.Errorf("BENCHMARK.json differs from the metric tables; expected:\n%s", exp)
	}
}

// TestSmokeAllWorkloads runs every workload end to end — real
// binaries, oracle, traced replay — on a 400-reference library with
// half-second phases (three times that for serve-churn, whose write timetable must
// leave whole windows between its first and last reload). Everything
// it builds and writes stays in the test's temp dir. The workloads run
// one after another: the kernel probe changes GOMAXPROCS, which is
// process-wide.
func TestSmokeAllWorkloads(t *testing.T) {
	e, err := newEnv("..", t.TempDir(), t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.close)
	sz := sizing{targets: 200, queries: 64, churnQueries: 32, body: 16,
		latencyRate: 200, churnRate: 100, retract: 10,
		replayQueries: 64, probeQueries: 32, probe: 20 * time.Millisecond}
	seconds := map[string]time.Duration{"serve-churn": 1500 * time.Millisecond}
	// What each workload must have measured above zero, beyond the
	// end-to-end metrics (which every workload must).
	mustMove := map[string][]string{
		"serve-open":     {"hdc.encode_us", "hdc.sweep_ns_per_word", "hdc.rows_swept", "core.batch64_us", "serve.batch_size_mean", "omsd.ready_ms", "libindex.open_ms", "libindex.bytes_per_ref", "serve.inproc_p50_ms", "loadgen.search_p99_ms"},
		"serve-standard": {"spectrum.parse_us", "hdc.encode_us", "serve.queue_wait_ms", "omsbuild.refs_per_s"},
		"serve-churn":    {"libindex.publish_visible_s", "libindex.append_s", "libindex.compact_s", "omsd.reload_ms", "core.hidden_refs", "libindex.delta_partitions", "loadgen.churn_p99_ms"},
		"batch-offline":  {"omsearch.startup_ms", "fdr.ids_at_fdr01", "fdr.filter_us_per_psm", "trace.overhead_ratio", "loadgen.search_p99_ms", "loadgen.machine_speed"},
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := execute(e, w, sz, 1, max(seconds[w.name], 500*time.Millisecond), true)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Errorf("correctness gate failed: %d of %d, %v", res.Failed, res.Attempted, res.Problems)
			}
			for _, def := range endToEndMetrics {
				if res.EndToEnd[def.Name].Value <= 0 {
					t.Errorf("end-to-end %s = %v, must be positive", def.Name, res.EndToEnd[def.Name].Value)
				}
			}
			if len(res.PerLayer) != len(perLayerMetrics) {
				t.Errorf("%d per-layer metrics reported, %d declared", len(res.PerLayer), len(perLayerMetrics))
			}
			for _, name := range mustMove[w.name] {
				if res.PerLayer[name].Value <= 0 {
					t.Errorf("per-layer %s = %v, must be positive on this workload", name, res.PerLayer[name].Value)
				}
			}
			raw, err := os.ReadFile(filepath.Join(e.out, "trace-"+w.name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var tf traceFile
			if err := json.Unmarshal(raw, &tf); err != nil {
				t.Fatal(err)
			}
			var self int64
			for _, ns := range tf.SelfNS {
				self += ns
			}
			if tf.WallNS <= 0 || math.Abs(float64(self-tf.WallNS)) > 0.1*float64(tf.WallNS) {
				t.Errorf("self times sum to %d ns, replay wall is %d ns", self, tf.WallNS)
			}
		})
	}
}
