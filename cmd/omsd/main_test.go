package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fdr"
	"repro/internal/msdata"
	"repro/internal/obsv"
	"repro/internal/serve"
	"repro/internal/spectrum"
)

// testDaemon builds a daemon over a small exact engine, wired through
// the same reload machinery main uses.
func testDaemon(t *testing.T) (*daemon, *core.Engine, *msdata.Dataset) {
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
		srv, err := serve.New(engine, serve.Config{MaxBatch: 16})
		if err != nil {
			return nil, err
		}
		return &serving{srv: srv, engine: engine, loaded: time.Now()}, nil
	})
	if _, err := d.reload(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.shutdown)
	return d, engine, ds
}

func TestHealthz(t *testing.T) {
	d, _, _ := testDaemon(t)
	rec := httptest.NewRecorder()
	d.mux().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz status %d", rec.Code)
	}
	var body map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body["status"] != "ok" || body["references"].(float64) <= 0 {
		t.Fatalf("unexpected healthz body %v", body)
	}
}

// TestSearchMGF posts the query set as MGF and pins that responses
// agree with direct engine search.
func TestSearchMGF(t *testing.T) {
	d, engine, ds := testDaemon(t)
	var buf bytes.Buffer
	if err := spectrum.WriteMGF(&buf, ds.Queries); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	d.mux().ServeHTTP(rec, httptest.NewRequest("POST", "/search", bytes.NewReader(buf.Bytes())))
	if rec.Code != http.StatusOK {
		t.Fatalf("search status %d: %s", rec.Code, rec.Body.String())
	}
	var resp searchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != len(ds.Queries) {
		t.Fatalf("%d results for %d queries", len(resp.Results), len(ds.Queries))
	}
	byID := make(map[string]searchResult)
	var matched int
	for _, res := range resp.Results {
		if res.Error != "" {
			t.Fatalf("result %s carries error %q", res.QueryID, res.Error)
		}
		if res.Matched {
			matched++
		}
		byID[res.QueryID] = res
	}
	if matched == 0 {
		t.Fatal("no query matched")
	}
	for _, q := range ds.Queries {
		psm, ok, err := searchOne(engine, q)
		if err != nil {
			t.Fatal(err)
		}
		res := byID[q.ID]
		if res.Matched != ok {
			t.Fatalf("query %s matched=%v, engine says %v", q.ID, res.Matched, ok)
		}
		if ok && (res.Peptide != psm.Peptide || res.Score != psm.Score) {
			t.Fatalf("query %s: served %+v, engine %+v", q.ID, res, psm)
		}
	}

	// Stats must reflect the traffic.
	rec = httptest.NewRecorder()
	d.mux().ServeHTTP(rec, httptest.NewRequest("GET", "/stats", nil))
	var st statsView
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Completed == 0 || st.Batches == 0 {
		t.Fatalf("stats did not count the traffic: %+v", st)
	}
}

// TestSearchBodyLengths pins that how a body's length is declared does
// not show in the answer: unknown (chunked), and longer than what a
// Content-Length may preallocate.
func TestSearchBodyLengths(t *testing.T) {
	d, _, ds := testDaemon(t)
	var buf bytes.Buffer
	if err := spectrum.WriteMGF(&buf, ds.Queries); err != nil {
		t.Fatal(err)
	}
	post := func(body io.Reader) []byte {
		t.Helper()
		rec := httptest.NewRecorder()
		d.mux().ServeHTTP(rec, httptest.NewRequest("POST", "/search", body))
		if rec.Code != http.StatusOK {
			t.Fatalf("search status %d: %s", rec.Code, rec.Body.String())
		}
		return rec.Body.Bytes()
	}
	want := post(bytes.NewReader(buf.Bytes()))
	unknown := struct{ io.Reader }{bytes.NewReader(buf.Bytes())} // httptest sees no Len: ContentLength -1
	if got := post(unknown); !bytes.Equal(got, want) {
		t.Errorf("body of undeclared length answered differently:\n%s\nwant\n%s", got, want)
	}
	padded := append(buf.Bytes(), bytes.Repeat([]byte("# padding\n"), maxBodyPrealloc/10+1)...)
	if got := post(bytes.NewReader(padded)); !bytes.Equal(got, want) {
		t.Errorf("body longer than maxBodyPrealloc answered differently:\n%s\nwant\n%s", got, want)
	}
}

// TestSearchJSON posts one spectrum as a JSON peak list.
func TestSearchJSON(t *testing.T) {
	d, engine, ds := testDaemon(t)
	q := ds.Queries[0]
	js := jsonSpectrum{ID: q.ID, PrecursorMZ: q.PrecursorMZ, Charge: q.Charge}
	for _, p := range q.Peaks {
		js.Peaks = append(js.Peaks, [2]float64{p.MZ, p.Intensity})
	}
	body, err := json.Marshal(searchRequest{Spectra: []jsonSpectrum{js}})
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", "/search", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	d.mux().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("search status %d: %s", rec.Code, rec.Body.String())
	}
	var resp searchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 1 || resp.Results[0].QueryID != q.ID {
		t.Fatalf("unexpected results %+v", resp.Results)
	}
	psm, ok, err := searchOne(engine, q)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Results[0].Matched != ok || (ok && resp.Results[0].Peptide != psm.Peptide) {
		t.Fatalf("served %+v, engine ok=%v psm=%+v", resp.Results[0], ok, psm)
	}
}

// TestSearchTSV exercises the TSV response shape.
func TestSearchTSV(t *testing.T) {
	d, _, ds := testDaemon(t)
	var buf bytes.Buffer
	if err := spectrum.WriteMGF(&buf, ds.Queries[:3]); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	d.mux().ServeHTTP(rec, httptest.NewRequest("POST", "/search?format=tsv", bytes.NewReader(buf.Bytes())))
	if rec.Code != http.StatusOK {
		t.Fatalf("search status %d", rec.Code)
	}
	lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
	if len(lines) != 4 { // header + 3 rows
		t.Fatalf("TSV has %d lines, want 4:\n%s", len(lines), rec.Body.String())
	}
	if !strings.HasPrefix(lines[0], "query_id\tmatched\tpeptide") {
		t.Fatalf("bad TSV header %q", lines[0])
	}
}

// TestServeUntilShutdownGraceful is the graceful-shutdown regression
// test: a signal must drain in-flight handlers (not cut them off) and
// serveUntilShutdown must return nil on a clean stop — the seed
// compared the Serve error with != instead of errors.Is and discarded
// the Shutdown outcome entirely.
func TestServeUntilShutdownGraceful(t *testing.T) {
	inHandler := make(chan struct{})
	release := make(chan struct{})
	httpSrv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(inHandler)
		<-release
		fmt.Fprint(w, "drained")
	})}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan os.Signal, 1)
	served := make(chan error, 1)
	go func() { served <- serveUntilShutdown(httpSrv, ln, stop, 5*time.Second) }()

	body := make(chan string, 1)
	go func() {
		resp, err := http.Get("http://" + ln.Addr().String() + "/")
		if err != nil {
			body <- "error: " + err.Error()
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		body <- string(b)
	}()

	<-inHandler
	stop <- syscall.SIGTERM // shutdown begins with the request in flight
	select {
	case err := <-served:
		t.Fatalf("serveUntilShutdown returned %v before the in-flight handler finished", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if got := <-body; got != "drained" {
		t.Fatalf("in-flight request got %q, want %q", got, "drained")
	}
	if err := <-served; err != nil {
		t.Fatalf("clean shutdown returned %v, want nil", err)
	}
}

// TestServeUntilShutdownTimeout pins that a Shutdown that cannot
// drain in time surfaces its error instead of being discarded.
func TestServeUntilShutdownTimeout(t *testing.T) {
	inHandler := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	httpSrv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(inHandler)
		<-release
	})}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan os.Signal, 1)
	served := make(chan error, 1)
	go func() { served <- serveUntilShutdown(httpSrv, ln, stop, 20*time.Millisecond) }()
	go http.Get("http://" + ln.Addr().String() + "/")

	<-inHandler
	stop <- syscall.SIGTERM
	if err := <-served; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("stuck handler shutdown returned %v, want context.DeadlineExceeded", err)
	}
}

// TestServeUntilShutdownServeError pins that a real serving failure is
// returned directly rather than masked as a shutdown.
func TestServeUntilShutdownServeError(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := ln.Close(); err != nil { // Serve on a closed listener fails immediately
		t.Fatal(err)
	}
	stop := make(chan os.Signal, 1)
	defer close(stop)
	if err := serveUntilShutdown(&http.Server{}, ln, stop, time.Second); err == nil || errors.Is(err, http.ErrServerClosed) {
		t.Fatalf("serve on closed listener returned %v, want a real error", err)
	}
}

// TestStalledHeadersAreCutOff pins the edge timeout: a connection that
// never finishes its request headers is closed by the daemon after
// readHeaderTimeout, and while it stalls a /search on another
// connection is answered as usual.
func TestStalledHeadersAreCutOff(t *testing.T) {
	if testing.Short() {
		t.Skip("waits out the header timeout")
	}
	d, _, ds := testDaemon(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan os.Signal, 1)
	served := make(chan error, 1)
	go func() { served <- serveUntilShutdown(newHTTPServer(d.mux()), ln, stop, 5*time.Second) }()

	// The daemon's header deadline starts at accept, which can precede
	// Dial's return: start the clock before dialing.
	start := time.Now()
	stalled, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	if _, err := io.WriteString(stalled, "POST /search HTTP/1.1\r\nHost: omsd\r\n"); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := spectrum.WriteMGF(&buf, ds.Queries); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post("http://"+ln.Addr().String()+"/search", "", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/search beside a stalled connection: status %d", resp.StatusCode)
	}

	// The daemon hangs up without a response; a daemon that waits
	// forever runs into the read deadline instead.
	stalled.SetReadDeadline(start.Add(readHeaderTimeout + 5*time.Second))
	if n, err := stalled.Read(make([]byte, 1)); n != 0 || !errors.Is(err, io.EOF) {
		t.Fatalf("stalled connection read %d bytes, err %v; want it closed by the daemon", n, err)
	}
	if waited := time.Since(start); waited < readHeaderTimeout {
		t.Fatalf("connection closed after %v, before the %v header timeout", waited, readHeaderTimeout)
	}
	stop <- syscall.SIGTERM
	if err := <-served; err != nil {
		t.Fatal(err)
	}
}

// TestSearchBadBodies pins 400s for malformed input.
func TestSearchBadBodies(t *testing.T) {
	d, _, _ := testDaemon(t)
	cases := []struct {
		name, ctype, body string
	}{
		{"empty", "", ""},
		{"bad MGF", "", "BEGIN IONS\nTITLE=x\nnot a peak\nEND IONS\n"},
		{"bad JSON", "application/json", "{"},
		{"invalid spectrum", "application/json", `{"spectra":[{"id":"x","precursor_mz":-5,"charge":1,"peaks":[[100,1]]}]}`},
		// An MGF body is held to the same Validate as a JSON one.
		{"MGF NaN m/z", "", "BEGIN IONS\nTITLE=x\nPEPMASS=500\nNaN 10\nEND IONS\n"},
		{"MGF NaN intensity", "", "BEGIN IONS\nTITLE=x\nPEPMASS=500\n190 NaN\nEND IONS\n"},
		{"MGF negative intensity", "", "BEGIN IONS\nTITLE=x\nPEPMASS=500\n190 -4\nEND IONS\n"},
		{"MGF NaN precursor", "", "BEGIN IONS\nTITLE=x\nPEPMASS=NaN\n190 4\nEND IONS\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := httptest.NewRequest("POST", "/search", strings.NewReader(tc.body))
			if tc.ctype != "" {
				req.Header.Set("Content-Type", tc.ctype)
			}
			rec := httptest.NewRecorder()
			d.mux().ServeHTTP(rec, req)
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("status %d, want 400", rec.Code)
			}
		})
	}
}

// heldEngine parks every sweep until hold is closed.
type heldEngine struct {
	core.SearchEngine
	hold chan struct{}
}

func (e heldEngine) Search(ctx context.Context, qs []core.PreparedQuery, tr *obsv.Trace) ([]core.SearchResult, error) {
	<-e.hold
	return e.SearchEngine.Search(ctx, qs, tr)
}

// searchOne is one query searched alone: a batch of one.
func searchOne(e *core.Engine, q *spectrum.Spectrum) (fdr.PSM, bool, error) {
	psms, err := e.SearchAll([]*spectrum.Spectrum{q})
	if err != nil || len(psms) == 0 {
		return fdr.PSM{}, false, err
	}
	return psms[0], true, nil
}

// TestSearchBackpressure pins the queue-full contract: one rejected
// search anywhere in a body turns the response into a 503 with
// Retry-After, and the body still carries every query's outcome.
func TestSearchBackpressure(t *testing.T) {
	// One admission slot, held by the first search for as long as its
	// sweep is parked: of a body's concurrent submissions the others
	// are refused until the sweep is let go.
	_, engine, ds := testDaemon(t)
	held := heldEngine{SearchEngine: engine, hold: make(chan struct{})}
	srv, err := serve.New(held, serve.Config{MaxBatch: 64, MaxQueue: 1})
	if err != nil {
		t.Fatal(err)
	}
	d := newDaemon(func() (*serving, error) {
		return &serving{srv: srv, engine: engine, loaded: time.Now()}, nil
	})
	if _, err := d.reload(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.shutdown)
	var buf bytes.Buffer
	if err := spectrum.WriteMGF(&buf, ds.Queries); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	served := make(chan struct{})
	go func() {
		defer close(served)
		d.mux().ServeHTTP(rec, httptest.NewRequest("POST", "/search", &buf))
	}()
	for deadline := time.Now().Add(5 * time.Second); srv.Stats().Rejected == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			close(held.hold)
			t.Fatal("no search was refused while the only slot was held")
		}
	}
	close(held.hold)
	<-served
	if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") != "1" {
		t.Fatalf("status %d, Retry-After %q; want 503 and 1", rec.Code, rec.Header().Get("Retry-After"))
	}
	var resp searchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != len(ds.Queries) {
		t.Fatalf("%d results for %d queries", len(resp.Results), len(ds.Queries))
	}
	rejected := 0
	for _, r := range resp.Results {
		if r.Error == serve.ErrQueueFull.Error() {
			rejected++
		}
	}
	if rejected == 0 || rejected == len(resp.Results) {
		t.Errorf("%d of %d results rejected; want some refused, some served", rejected, len(resp.Results))
	}
}
