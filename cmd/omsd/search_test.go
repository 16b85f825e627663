package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/libindex"
	"repro/internal/msdata"
	"repro/internal/serve"
	"repro/internal/spectrum"
)

// bodyMGF renders the request body BenchmarkSearchBodies posts:
// bodySpectra of ds's queries, as MGF.
func bodyMGF(tb testing.TB, ds *msdata.Dataset) []byte {
	tb.Helper()
	body := make([]*spectrum.Spectrum, bodySpectra)
	for i := range body {
		body[i] = ds.Queries[i%len(ds.Queries)]
	}
	var mgf bytes.Buffer
	if err := spectrum.WriteMGF(&mgf, body); err != nil {
		tb.Fatal(err)
	}
	return mgf.Bytes()
}

// TestServedGolden serves testdata/golden as CI's omsd smoke does —
// the index omsbuild -d 2048 writes, omsd's default batcher — and
// requires its JSON and TSV answers to queries.mgf to be served.json
// and served.tsv byte for byte.
func TestServedGolden(t *testing.T) {
	const golden = "../../testdata/golden"
	library, err := spectrum.ReadSpectraFile(filepath.Join(golden, "library.mgf"))
	if err != nil {
		t.Fatal(err)
	}
	p := core.DefaultParams()
	p.Accel.D = 2048
	p.Accel.NumChunks = core.NumChunksFor(2048)
	p.Accel.IDPrecision = 3
	p.Accel.Seed = 1
	lib, err := libindex.BuildLibrary(library, p)
	if err != nil {
		t.Fatal(err)
	}
	index := filepath.Join(t.TempDir(), "golden.omsidx")
	if err := libindex.SaveFile(index, p, lib); err != nil {
		t.Fatal(err)
	}
	cfg := servingConfig{indexPath: index, maxBatch: 64, maxQueue: 4096}
	var d *daemon
	d = newDaemon(func() (*serving, error) { return buildNext(cfg, d.acquire()) })
	if _, err := d.reload(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.shutdown)
	queries, err := os.ReadFile(filepath.Join(golden, "queries.mgf"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ target, want string }{
		{"/search", "served.json"},
		{"/search?format=tsv", "served.tsv"},
	} {
		want, err := os.ReadFile(filepath.Join(golden, tc.want))
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		d.mux().ServeHTTP(rec, httptest.NewRequest("POST", tc.target, bytes.NewReader(queries)))
		if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
			t.Errorf("POST %s: status %d, body\n%s\nwant %s:\n%s", tc.target, rec.Code, rec.Body.Bytes(), tc.want, want)
		}
	}
}

// FuzzSearchResponseJSON holds the JSON writer to encoding/json: for
// every response, appendSearchResponse appends exactly what
// json.Encoder.Encode writes, and fails with its error, appending
// nothing, where Encode fails (a NaN or infinite float).
func FuzzSearchResponseJSON(f *testing.F) {
	served, err := os.ReadFile("../../testdata/golden/served.json")
	if err != nil {
		f.Fatal(err)
	}
	var resp searchResponse
	if err := json.Unmarshal(served, &resp); err != nil {
		f.Fatal(err)
	}
	for i, r := range resp.Results {
		f.Add(r.QueryID, r.Peptide, r.Error, r.Matched, r.Decoy, r.Score, r.MassShift, uint8(i))
	}
	f.Add("q\xff\xfe<a&b>", "PEP\u2028TIDE\u2029", "\x00\x01\x1f\x7f \b\f\n\r\t\"\\ é", true, true, math.Copysign(0, -1), 0.0, uint8(2))
	f.Add("\xed\xa0\x80", "\xf4\x90\x80\x80", "\xc3", false, true, 5e-324, -1e-310, uint8(3))
	f.Add("", "", "", true, false, 1e-7, 1e21, uint8(3))
	f.Add("a", "b", "c", true, false, 1e-6, 999999999999999999999.0, uint8(2))
	f.Add("a", "b", serve.ErrQueueFull.Error(), false, false, -123456.789, 1e300, uint8(1))
	f.Add("a", "b", "", true, false, math.NaN(), 0.5, uint8(2))
	f.Add("a", "b", "", true, false, 0.5, math.Inf(1), uint8(3))
	f.Add("a", "b", "", true, false, math.Inf(-1), 0.5, uint8(0))
	f.Fuzz(func(t *testing.T, id, peptide, errStr string, matched, decoy bool, score, shift float64, shape uint8) {
		res := searchResult{QueryID: id, Matched: matched, Peptide: peptide, Score: score, MassShift: shift, Decoy: decoy, Error: errStr}
		var resp searchResponse
		switch shape % 4 {
		case 1:
			resp.Results = []searchResult{}
		case 2:
			resp.Results = []searchResult{res}
		case 3:
			resp.Results = []searchResult{res, {QueryID: errStr, Matched: !matched, Peptide: id,
				Score: shift, MassShift: score, Decoy: !decoy, Error: peptide}}
		}
		var enc bytes.Buffer
		werr := json.NewEncoder(&enc).Encode(resp)
		want := append([]byte("in front"), enc.Bytes()...)
		got, gerr := appendSearchResponse([]byte("in front"), resp)
		if (werr == nil) != (gerr == nil) || werr != nil && werr.Error() != gerr.Error() {
			t.Fatalf("error %v, encoding/json: %v", gerr, werr)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("appended\n%q\nencoding/json\n%q", got, want)
		}
	})
}

// TestSearchBodyAllocs pins what one 64-spectrum MGF body costs the
// heap through the handler (the request and the writer reused): a
// pooled buffer for the body and one for the answer, and per spectrum
// only what outlives the request — its Spectrum, ID, hypervector and
// match list. The limits are the measured cost plus what the prepare
// workers add per P; the bytes stay under 40 % of the ≈ 490 KB a body
// cost when nothing was pooled.
func TestSearchBodyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-detector instrumentation")
	}
	d, ds := obsvDaemon(t, serve.Config{})
	mgf := bodyMGF(t, ds)
	body := &rewindBody{Reader: bytes.NewReader(mgf)}
	req := httptest.NewRequest("POST", "/search", nil)
	req.ContentLength = int64(len(mgf))
	w := &discardWriter{header: http.Header{}}
	h := d.mux()
	post := func() {
		body.Reset(mgf)
		req.Body = body
		h.ServeHTTP(w, req)
		if w.code != http.StatusOK {
			t.Fatalf("search status %d", w.code)
		}
	}
	for range 5 {
		post()
	}
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		post()
	}
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / runs
	kib := float64(after.TotalAlloc-before.TotalAlloc) / runs / 1024
	procs := float64(runtime.GOMAXPROCS(0))
	t.Logf("%.1f allocations, %.1f KiB per %d-spectrum body of %d bytes", allocs, kib, bodySpectra, len(mgf))
	if limit := 292 + 3*procs; allocs > limit {
		t.Errorf("%.1f allocations per body, want at most %v", allocs, limit)
	}
	if limit := 132 + 3*procs; kib > limit {
		t.Errorf("%.1f KiB per body, want at most %v", kib, limit)
	}
}

// rewindBody is a request body the allocation pin rewinds and reuses.
type rewindBody struct{ *bytes.Reader }

func (*rewindBody) Close() error { return nil }

// discardWriter is a ResponseWriter that keeps the status and drops
// the body.
type discardWriter struct {
	header http.Header
	code   int
}

func (w *discardWriter) Header() http.Header         { return w.header }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }

// TestSearchBodyTooLarge pins that a body over maxBodyBytes answers
// 413, not a 400 that blames the client's syntax.
func TestSearchBodyTooLarge(t *testing.T) {
	if raceEnabled || testing.Short() {
		t.Skip("buffers maxBodyBytes of body")
	}
	d, _, _ := testDaemon(t)
	huge := io.LimitReader(comments{}, maxBodyBytes+1)
	rec := httptest.NewRecorder()
	d.mux().ServeHTTP(rec, httptest.NewRequest("POST", "/search", huge))
	if want := "reading body: http: request body too large"; rec.Code != http.StatusRequestEntityTooLarge ||
		strings.TrimSpace(rec.Body.String()) != want {
		t.Fatalf("status %d, body %q; want 413, %q", rec.Code, rec.Body.String(), want)
	}
}

// TestSearchBodyDeclaredTooLarge pins that a declared Content-Length
// over maxBodyBytes answers the same 413 before a byte is read.
func TestSearchBodyDeclaredTooLarge(t *testing.T) {
	d, _, _ := testDaemon(t)
	body := &countingReader{r: comments{}}
	req := httptest.NewRequest("POST", "/search", body)
	req.ContentLength = maxBodyBytes + 1
	rec := httptest.NewRecorder()
	d.mux().ServeHTTP(rec, req)
	if want := "reading body: http: request body too large"; rec.Code != http.StatusRequestEntityTooLarge ||
		strings.TrimSpace(rec.Body.String()) != want {
		t.Fatalf("status %d, body %q; want 413, %q", rec.Code, rec.Body.String(), want)
	}
	if body.n != 0 {
		t.Fatalf("read %d body bytes before answering 413; want 0", body.n)
	}
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// comments is an endless MGF text of comment lines.
type comments struct{}

func (comments) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = "#\n"[i%2]
	}
	return len(p), nil
}
