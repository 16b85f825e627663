package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
	"repro/internal/spectrum"
)

// maxBodyBytes bounds a /search request body, maxBodyPrealloc what a
// declared length makes the daemon allocate before any of it arrives.
const (
	maxBodyBytes    = 64 << 20
	maxBodyPrealloc = 1 << 20
)

// maxConcurrentSearches bounds one request body's concurrent
// submissions into the micro-batcher: several MaxBatch windows' worth
// of traffic to coalesce, but far below the default MaxQueue.
const maxConcurrentSearches = 256

// mux routes the daemon's endpoints.
func (d *daemon) mux() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /search", d.handleSearch)
	mux.HandleFunc("GET /healthz", d.handleHealthz)
	mux.HandleFunc("GET /stats", d.handleStats)
	mux.HandleFunc("GET /metrics", d.handleMetrics)
	mux.HandleFunc("GET /debug/slowest", d.handleSlowest)
	return mux
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
// Content-Type says so), submits each through the micro-batcher on the
// request's context, and renders per-query results. Concurrent HTTP
// requests and multi-spectrum bodies coalesce into shared engine
// sweeps.
func (d *daemon) handleSearch(w http.ResponseWriter, r *http.Request) {
	// A body of the declared length is read into one allocation.
	var body bytes.Buffer
	body.Grow(int(min(max(r.ContentLength, 0), maxBodyPrealloc)) + bytes.MinRead)
	if _, err := body.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes)); err != nil {
		http.Error(w, fmt.Sprintf("reading body: %v", err), http.StatusBadRequest)
		return
	}
	queries, err := parseQueries(r.Header.Get("Content-Type"), body.Bytes())
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if len(queries) == 0 {
		http.Error(w, "no query spectra in request body", http.StatusBadRequest)
		return
	}

	// A bounded worker pool keeps one request body's in-flight
	// submissions well under the batcher's admission limit (default
	// MaxQueue 4096), so a large body saturates the coalescing window
	// without tripping queue-full against itself, while leaving
	// headroom for other clients.
	results := make([]searchResult, len(queries))
	var queueFull atomic.Bool
	workers := min(len(queries), maxConcurrentSearches)
	next := make(chan int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				q := queries[i]
				res := searchResult{QueryID: q.ID}
				// Each search pins the serving generation it was admitted
				// to: a SIGHUP swap mid-body never mixes indexes within
				// one search, and the old index stays mapped until its
				// last search returns.
				sv := d.acquire()
				if sv == nil {
					res.Error = serve.ErrClosed.Error()
					results[i] = res
					continue
				}
				psm, ok, err := sv.srv.Search(r.Context(), q)
				sv.release()
				res.Matched = ok
				switch {
				case err != nil:
					res.Error = err.Error()
					if errors.Is(err, serve.ErrQueueFull) {
						queueFull.Store(true)
					}
				case ok:
					res.Peptide = psm.Peptide
					res.Score = psm.Score
					res.MassShift = psm.MassShift
					res.Decoy = psm.IsDecoy
				}
				results[i] = res
			}
		}()
	}
	for i := range queries {
		next <- i
	}
	close(next)
	wg.Wait()

	// A queue-full rejection anywhere signals backpressure for the
	// whole response; partial results still ship in the body.
	status := http.StatusOK
	if queueFull.Load() {
		status = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", "1")
	}
	if r.URL.Query().Get("format") == "tsv" {
		w.Header().Set("Content-Type", "text/tab-separated-values")
		w.WriteHeader(status)
		if err := writeTSV(w, results); err != nil {
			// Status is already on the wire; all that's left is to note
			// the truncated response.
			log.Printf("omsd: writing TSV response: %v", err)
		}
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(searchResponse{Results: results}); err != nil {
		log.Printf("omsd: writing JSON response: %v", err)
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
		if queries, err = spectrum.ReadMGF(bytes.NewReader(body)); err != nil {
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

// handleHealthz reports liveness and library identity.
func (d *daemon) handleHealthz(w http.ResponseWriter, r *http.Request) {
	sv := d.acquire()
	if sv == nil {
		http.Error(w, "shutting down", http.StatusServiceUnavailable)
		return
	}
	defer sv.release()
	ov := sv.engine.OverlayStats()
	writeJSON(w, map[string]any{
		"status":              "ok",
		"references":          sv.engine.NumRefs(),
		"skipped":             sv.engine.Skipped(),
		"partitions":          len(sv.engine.PartitionStats()),
		"manifest_generation": ov.Generation,
		"delta_partitions":    ov.DeltaPartitions,
		"tombstones":          ov.Tombstones,
		"index_age_seconds":   int64(time.Since(sv.loaded).Seconds()),
		"uptime_seconds":      int64(time.Since(d.started).Seconds()),
	})
}

// statsView maps serve.Stats onto stable wire names.
type statsView struct {
	Requests      uint64              `json:"requests"`
	Completed     uint64              `json:"completed"`
	Matched       uint64              `json:"matched"`
	Skipped       uint64              `json:"skipped"`
	Rejected      uint64              `json:"rejected"`
	Canceled      uint64              `json:"canceled"`
	Closed        uint64              `json:"closed"`
	Errors        uint64              `json:"errors"`
	Batches       uint64              `json:"batches"`
	QueueDepth    int                 `json:"queue_depth"`
	MeanBatchSize float64             `json:"mean_batch_size"`
	BatchSizes    []serve.BucketCount `json:"batch_size_histogram"`
	LatencyP50US  int64               `json:"latency_p50_us"`
	LatencyP99US  int64               `json:"latency_p99_us"`

	// Partitions has one entry per partition with its global row span,
	// mass fences and shadowed rows.
	Partitions []partitionView `json:"partitions"`

	// Overlay is the incremental-update state the generation serves
	// (manifest generation, delta tier, outstanding tombstones and the
	// rows they shadow).
	Overlay overlayView `json:"overlay"`
}

// partitionView maps core.PartitionStat onto stable wire names.
type partitionView struct {
	StartRow   int     `json:"start_row"`
	Refs       int     `json:"refs"`
	MinMass    float64 `json:"min_mass"`
	MaxMass    float64 `json:"max_mass"`
	Generation uint64  `json:"generation"`
	Delta      bool    `json:"delta,omitempty"`
	HiddenRefs int     `json:"hidden_refs,omitempty"`
}

// overlayView maps core.OverlayStats onto stable wire names.
type overlayView struct {
	Generation      uint64 `json:"generation"`
	DeltaPartitions int    `json:"delta_partitions"`
	DeltaRefs       int    `json:"delta_refs"`
	Tombstones      int    `json:"tombstones"`
	HiddenRefs      int    `json:"hidden_refs"`
}

// handleStats renders the serving counters.
func (d *daemon) handleStats(w http.ResponseWriter, r *http.Request) {
	sv := d.acquire()
	if sv == nil {
		http.Error(w, "shutting down", http.StatusServiceUnavailable)
		return
	}
	defer sv.release()
	st := sv.srv.Stats()
	view := statsView{
		Requests:      st.Requests,
		Completed:     st.Completed,
		Matched:       st.Matched,
		Skipped:       st.Skipped,
		Rejected:      st.Rejected,
		Canceled:      st.Canceled,
		Closed:        st.Closed,
		Errors:        st.Errors,
		Batches:       st.Batches,
		QueueDepth:    st.QueueDepth,
		MeanBatchSize: st.MeanBatchSize,
		BatchSizes:    st.BatchSizes,
		LatencyP50US:  st.LatencyP50.Microseconds(),
		LatencyP99US:  st.LatencyP99.Microseconds(),
	}
	for _, ps := range sv.engine.PartitionStats() {
		view.Partitions = append(view.Partitions, partitionView{
			StartRow:   ps.StartRow,
			Refs:       ps.Refs,
			MinMass:    ps.MinMass,
			MaxMass:    ps.MaxMass,
			Generation: ps.Gen,
			Delta:      ps.Delta,
			HiddenRefs: ps.HiddenRefs,
		})
	}
	ov := sv.engine.OverlayStats()
	view.Overlay = overlayView{
		Generation:      ov.Generation,
		DeltaPartitions: ov.DeltaPartitions,
		DeltaRefs:       ov.DeltaRefs,
		Tombstones:      ov.Tombstones,
		HiddenRefs:      ov.HiddenRefs,
	}
	writeJSON(w, view)
}

// writeJSON writes v as a JSON response.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil && !errors.Is(err, io.EOF) {
		// The connection is gone; nothing useful left to do.
		return
	}
}
