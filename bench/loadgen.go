//go:build linux

package main

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// latencyLimit is the stated limit for a single-spectrum search at
// the stated rate; the share of sent requests over it (failures
// count as over) is loadgen.over_50ms_ratio.
const latencyLimit = 50 * time.Millisecond

// poissonSchedule returns n arrival offsets of a Poisson process —
// exponential gaps from the seeded stream — rescaled so the last
// arrival falls exactly at span: every seed offers the same number of
// requests over the same time, only their spacing differs.
func poissonSchedule(rng *rand.Rand, n int, span time.Duration) []time.Duration {
	at := make([]float64, n)
	var t float64
	for i := range at {
		t += rng.ExpFloat64()
		at[i] = t
	}
	out := make([]time.Duration, n)
	for i, a := range at {
		out[i] = time.Duration(a / t * float64(span))
	}
	return out
}

// request is one POST the generator sends and how its response is
// checked: verify returns how many of the body's spectra came back
// wrong.
type request struct {
	body    []byte
	spectra int
	verify  func(respBody []byte) int
}

// sample is one completed request.
type sample struct {
	// start is when the request was due (open loop) or sent (closed
	// loop), end when its response had been read, both relative to
	// the phase start.
	start, end time.Duration
	spectra    int
	// failed counts spectra lost to a transport error, a non-200
	// status, a per-query error or an oracle mismatch.
	failed int
}

func (s sample) latency() time.Duration { return s.end - s.start }

// loadClient posts search requests over a bounded set of kept-alive
// connections.
type loadClient struct {
	url   string
	conns int
	http  *http.Client
}

func newLoadClient(base, path string, conns int) *loadClient {
	return &loadClient{
		url:   base + path,
		conns: conns,
		http: &http.Client{
			Timeout: 60 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     conns,
				MaxIdleConnsPerHost: conns,
			},
		},
	}
}

func (c *loadClient) close() { c.http.CloseIdleConnections() }

// post sends one request and returns the number of failed spectra.
func (c *loadClient) post(r request) int {
	resp, err := c.http.Post(c.url, "text/plain", bytes.NewReader(r.body))
	if err != nil {
		return r.spectra
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		return r.spectra
	}
	return r.verify(body)
}

// openLoop sends request i at offsets[i] after the call, whatever
// happened to the earlier ones, over at most c.conns connections and
// never with more requests in flight than connections. Each request
// is timed from when it was due, so a stall shows in every request
// that came due during it. lateMax is the generator's own worst
// lateness: how long after max(due time, the moment a connection
// could take it) a request was handed over.
func (c *loadClient) openLoop(offsets []time.Duration, next func(i int) request) (samples []sample, lateMax time.Duration) {
	type job struct {
		i   int
		due time.Duration
	}
	samples = make([]sample, len(offsets))
	jobs := make(chan job)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < c.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				r := next(j.i)
				failed := c.post(r)
				samples[j.i] = sample{start: j.due, end: time.Since(start), spectra: r.spectra, failed: failed}
			}
		}()
	}
	var free time.Duration // when the previous hand-over completed
	for i, due := range offsets {
		if d := due - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		woke := time.Since(start)
		lateMax = max(lateMax, woke-max(due, free))
		jobs <- job{i: i, due: due}
		free = time.Since(start)
	}
	close(jobs)
	wg.Wait()
	return samples, lateMax
}

// closedLoop runs c.conns clients, each sending its next request as
// soon as the previous response has been read, for the given time.
func (c *loadClient) closedLoop(span time.Duration, next func(i int) request) []sample {
	var (
		mu      sync.Mutex
		samples []sample
		seq     atomic.Int64
		wg      sync.WaitGroup
	)
	start := time.Now()
	for w := 0; w < c.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				sent := time.Since(start)
				if sent >= span {
					return
				}
				r := next(int(seq.Add(1) - 1))
				failed := c.post(r)
				s := sample{start: sent, end: time.Since(start), spectra: r.spectra, failed: failed}
				mu.Lock()
				samples = append(samples, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return samples
}

// windowGood returns the correctly answered spectra in each window
// [edges[k], edges[k+1]). A request's spectra are spread evenly over
// its own [start, end) interval, so a 64-spectrum body that straddles
// a boundary is shared between the two windows instead of landing
// wholly in one.
func windowGood(samples []sample, edges []time.Duration) []float64 {
	good := make([]float64, len(edges)-1)
	for _, s := range samples {
		n := float64(s.spectra - s.failed)
		a, b := float64(s.start), float64(s.end)
		if n == 0 || b <= a {
			continue
		}
		for k := range good {
			lo, hi := float64(edges[k]), float64(edges[k+1])
			if overlap := math.Min(b, hi) - math.Max(a, lo); overlap > 0 {
				good[k] += n * overlap / (b - a)
			}
		}
	}
	return good
}

// latenciesMS returns the samples' latencies in milliseconds.
func latenciesMS(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = float64(s.latency()) / float64(time.Millisecond)
	}
	return out
}

// tally sums attempted and failed spectra.
func tally(samples []sample) (attempted, failed int) {
	for _, s := range samples {
		attempted += s.spectra
		failed += s.failed
	}
	return attempted, failed
}
