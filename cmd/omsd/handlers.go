package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
	"unicode/utf8"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/spectrum"
)

// maxBodyBytes bounds a /search request body, maxBodyPrealloc what a
// declared length makes the daemon allocate before any of it arrives.
const (
	maxBodyBytes    = 64 << 20
	maxBodyPrealloc = 1 << 20
)

// bufPool recycles /search's byte buffers: a request body until it is
// parsed, then a JSON answer until it is written. A buffer goes back
// only while its capacity is at most what a declared length
// preallocates, so the pool never holds a large body.
var bufPool = sync.Pool{New: func() any { return new([]byte) }}

func putBuf(b *[]byte) {
	if cap(*b) <= maxBodyPrealloc+bytes.MinRead {
		*b = (*b)[:0]
		bufPool.Put(b)
	}
}

// mux routes the daemon's endpoints.
func (d *daemon) mux() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /search", d.handleSearch)
	mux.HandleFunc("GET /healthz", d.rendering(writeHealthz))
	mux.HandleFunc("GET /stats", d.rendering(func(w http.ResponseWriter, st *snapshot) { writeJSON(w, st) }))
	mux.HandleFunc("GET /metrics", d.rendering(writeMetrics))
	mux.HandleFunc("GET /debug/slowest", d.reading(d.handleSlowest))
	return mux
}

// reading wraps a read handler: it runs under a reference to the
// current serving generation, released once it returns, and after
// shutdown the request answers 503 "shutting down" instead.
func (d *daemon) reading(h func(http.ResponseWriter, *serving)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sv := d.acquire()
		if sv == nil {
			http.Error(w, "shutting down", http.StatusServiceUnavailable)
			return
		}
		defer sv.release()
		h(w, sv)
	}
}

// jsonSpectrum is one query spectrum in the JSON request body.
type jsonSpectrum struct {
	ID          string       `json:"id"`
	PrecursorMZ float64      `json:"precursor_mz"`
	Charge      int          `json:"charge"`
	Peaks       [][2]float64 `json:"peaks"`
}

// searchRequest is the JSON request envelope; a bare array of spectra
// is accepted too.
type searchRequest struct {
	Spectra []jsonSpectrum `json:"spectra"`
}

// searchResult is one query's outcome in the JSON response. Score and
// mass shift are always present: a legitimate shift of exactly zero
// (unmodified peptide) must be distinguishable from an absent field.
type searchResult struct {
	QueryID   string  `json:"query_id"`
	Matched   bool    `json:"matched"`
	Peptide   string  `json:"peptide,omitempty"`
	Score     float64 `json:"score"`
	MassShift float64 `json:"mass_shift"`
	Decoy     bool    `json:"decoy,omitempty"`
	Error     string  `json:"error,omitempty"`
}

// searchResponse is the JSON response envelope.
type searchResponse struct {
	Results []searchResult `json:"results"`
}

// handleSearch parses the query spectra (MGF by default, JSON when the
// Content-Type says so), searches them as one submission to the
// micro-batcher on the request's context, and renders per-query
// results. The body pins one serving generation for its whole search,
// so a SIGHUP swap mid-body never mixes indexes within one response,
// and the old index stays mapped until its last body returns.
func (d *daemon) handleSearch(w http.ResponseWriter, r *http.Request) {
	// A declared length over the limit is refused unread. Any other
	// body is read into one pooled buffer, which the parsed spectra do
	// not point into.
	if r.ContentLength > maxBodyBytes {
		http.Error(w, fmt.Sprintf("reading body: %v", &http.MaxBytesError{Limit: maxBodyBytes}), http.StatusRequestEntityTooLarge)
		return
	}
	buf := bufPool.Get().(*[]byte)
	var err error
	*buf = slices.Grow(*buf, int(min(max(r.ContentLength, 0), maxBodyPrealloc))+bytes.MinRead)
	*buf, err = readBody(*buf, http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		putBuf(buf)
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		http.Error(w, fmt.Sprintf("reading body: %v", err), status)
		return
	}
	queries, err := parseQueries(r.Header.Get("Content-Type"), *buf)
	putBuf(buf)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if len(queries) == 0 {
		http.Error(w, "no query spectra in request body", http.StatusBadRequest)
		return
	}

	results := make([]searchResult, len(queries))
	var found []serve.Result
	if sv := d.acquire(); sv != nil {
		found = sv.srv.SearchMany(r.Context(), queries)
		sv.release()
	}
	queueFull := false
	for i, q := range queries {
		res := searchResult{QueryID: q.ID}
		switch {
		case found == nil:
			res.Error = serve.ErrClosed.Error()
		case found[i].Err != nil:
			res.Error = found[i].Err.Error()
			queueFull = queueFull || errors.Is(found[i].Err, serve.ErrQueueFull)
		case found[i].OK:
			psm := found[i].PSM
			res.Matched = true
			res.Peptide = psm.Peptide
			res.Score = psm.Score
			res.MassShift = psm.MassShift
			res.Decoy = psm.IsDecoy
		}
		results[i] = res
	}

	// A queue-full rejection anywhere signals backpressure for the
	// whole response; partial results still ship in the body.
	status := http.StatusOK
	if queueFull {
		status = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", "1")
	}
	if r.URL.Query().Get("format") == "tsv" {
		w.Header().Set("Content-Type", "text/tab-separated-values")
		w.WriteHeader(status)
		if err := writeTSV(w, results); err != nil {
			// Status is already on the wire; all that's left is to note
			// the truncated response.
			logger.Printf("writing TSV response: %v", err)
		}
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	buf = bufPool.Get().(*[]byte)
	defer putBuf(buf)
	*buf, err = appendSearchResponse(*buf, searchResponse{Results: results})
	if err == nil {
		_, err = w.Write(*buf)
	}
	if err != nil {
		logger.Printf("writing JSON response: %v", err)
	}
}

// readBody appends r to dst until EOF. A full buffer doubles, but never
// past maxBodyBytes+1: room for one byte more than the MaxBytesReader
// r lets through before it fails.
func readBody(dst []byte, r io.Reader) ([]byte, error) {
	for {
		if len(dst) == cap(dst) {
			grown := make([]byte, len(dst), min(max(2*len(dst), bytes.MinRead), maxBodyBytes+1))
			dst = grown[:copy(grown, dst)]
		}
		n, err := r.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
}

// parseQueries decodes the request body: JSON when the content type
// says application/json, MGF text otherwise.
func parseQueries(contentType string, body []byte) ([]*spectrum.Spectrum, error) {
	var queries []*spectrum.Spectrum
	if strings.HasPrefix(contentType, "application/json") {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		var req searchRequest
		if err := dec.Decode(&req); err != nil {
			// A bare array of spectra is accepted as shorthand.
			dec = json.NewDecoder(bytes.NewReader(body))
			dec.DisallowUnknownFields()
			if aerr := dec.Decode(&req.Spectra); aerr != nil {
				return nil, fmt.Errorf("decoding JSON spectra: %v", err)
			}
		}
		queries = make([]*spectrum.Spectrum, 0, len(req.Spectra))
		for i, js := range req.Spectra {
			s := &spectrum.Spectrum{
				ID:          js.ID,
				PrecursorMZ: js.PrecursorMZ,
				Charge:      js.Charge,
			}
			if s.ID == "" {
				s.ID = fmt.Sprintf("query-%d", i)
			}
			if s.Charge == 0 {
				s.Charge = 1
			}
			for _, p := range js.Peaks {
				s.Peaks = append(s.Peaks, spectrum.Peak{MZ: p[0], Intensity: p[1]})
			}
			s.SortPeaks()
			queries = append(queries, s)
		}
	} else {
		var err error
		if queries, err = spectrum.ParseMGF(body); err != nil {
			return nil, fmt.Errorf("parsing MGF body: %v", err)
		}
	}
	for i, s := range queries {
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("spectrum %d: %v", i, err)
		}
	}
	return queries, nil
}

// writeTSV renders results in omsearch's TSV shape plus a matched
// column (the daemon reports per-query outcomes, not an FDR-filtered
// collection).
func writeTSV(w io.Writer, results []searchResult) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "query_id\tmatched\tpeptide\tscore\tmass_shift"); err != nil {
		return err
	}
	for _, res := range results {
		if _, err := fmt.Fprintf(bw, "%s\t%t\t%s\t%.4f\t%+.4f\n",
			res.QueryID, res.Matched, res.Peptide, res.Score, res.MassShift); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// appendSearchResponse appends resp to dst as
// json.NewEncoder(w).Encode(resp) writes it — HTML-escaped strings,
// floats as ES6 numbers, omitempty fields left out, a trailing newline
// — and fails where it fails, on a NaN or infinite float, with its
// error and nothing appended.
func appendSearchResponse(dst []byte, resp searchResponse) ([]byte, error) {
	if resp.Results == nil {
		return append(dst, "{\"results\":null}\n"...), nil
	}
	n0 := len(dst)
	dst = append(dst, `{"results":[`...)
	for i, res := range resp.Results {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendJSONString(append(dst, `{"query_id":`...), res.QueryID)
		dst = strconv.AppendBool(append(dst, `,"matched":`...), res.Matched)
		if res.Peptide != "" {
			dst = appendJSONString(append(dst, `,"peptide":`...), res.Peptide)
		}
		var err error
		if dst, err = appendJSONFloat(append(dst, `,"score":`...), res.Score); err != nil {
			return dst[:n0], err
		}
		if dst, err = appendJSONFloat(append(dst, `,"mass_shift":`...), res.MassShift); err != nil {
			return dst[:n0], err
		}
		if res.Decoy {
			dst = append(dst, `,"decoy":true`...)
		}
		if res.Error != "" {
			dst = appendJSONString(append(dst, `,"error":`...), res.Error)
		}
		dst = append(dst, '}')
	}
	return append(dst, "]}\n"...), nil
}

// appendJSONFloat appends f as encoding/json writes a float64: 'f'
// format, 'e' (with no zero-padded exponent) below 1e-6 and from 1e21
// up in magnitude.
func appendJSONFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1] // e-09 to e-9
		dst = dst[:n-1]
	}
	return dst, nil
}

// appendJSONString appends s quoted as encoding/json quotes a string
// with HTML escaping on: control bytes, '"', '\\', '<', '>' and '&'
// escaped, invalid UTF-8 as \ufffd, and U+2028/U+2029 escaped.
func appendJSONString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(append(dst, s[start:i]...), `\ufffd`...)
		} else if c == '\u2028' || c == '\u2029' {
			dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hex[c&0xF])
		} else {
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(dst, s[start:]...), '"')
}

// snapshot is one reading of a serving generation and the daemon
// around it, taken once per read request: /healthz, /stats and
// /metrics each render one. Its JSON encoding is the /stats body, under
// the wire names that serve.Stats, core.PartitionStat and
// core.OverlayStats carry as tags; the unexported fields are not shown.
type snapshot struct {
	serve.Stats
	Partitions []core.PartitionStat `json:"partitions"`
	Overlay    core.OverlayStats    `json:"overlay"`

	refs, skippedRefs          int
	generation, reloadFailures uint64
	indexAge, uptime           time.Duration
}

// read takes a snapshot of sv and of the daemon's reload counters.
func (d *daemon) read(sv *serving) *snapshot {
	return &snapshot{
		Stats:          sv.srv.Stats(),
		Partitions:     sv.engine.PartitionStats(),
		Overlay:        sv.engine.OverlayStats(),
		refs:           sv.engine.NumRefs(),
		skippedRefs:    sv.engine.Skipped(),
		generation:     d.generation.Load(),
		reloadFailures: d.reloadFailures.Load(),
		indexAge:       time.Since(sv.loaded),
		uptime:         time.Since(d.started),
	}
}

// rendering is reading for an endpoint that renders one snapshot.
func (d *daemon) rendering(render func(http.ResponseWriter, *snapshot)) http.HandlerFunc {
	return d.reading(func(w http.ResponseWriter, sv *serving) { render(w, d.read(sv)) })
}

// writeHealthz reports liveness and library identity.
func writeHealthz(w http.ResponseWriter, st *snapshot) {
	writeJSON(w, map[string]any{
		"status":              "ok",
		"references":          st.refs,
		"skipped":             st.skippedRefs,
		"partitions":          len(st.Partitions),
		"manifest_generation": st.Overlay.Generation,
		"delta_partitions":    st.Overlay.DeltaPartitions,
		"tombstones":          st.Overlay.Tombstones,
		"index_age_seconds":   int64(st.indexAge.Seconds()),
		"uptime_seconds":      int64(st.uptime.Seconds()),
	})
}

// writeJSON writes v as a JSON response.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v) // a failed write: the client is gone, no one is left to tell
}
