package main

import (
	"bytes"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/serve"
)

// bodySpectra is how many spectra one BenchmarkSearchBodies request
// body carries: the shape of a closed-loop client's search window.
const bodySpectra = 64

// BenchmarkSearchBodies is the daemon's closed-loop loopback harness:
// the test daemon with omsd's default batcher settings serves its
// handler stack on a real 127.0.0.1 listener, and one client per CPU
// posts 64-spectrum MGF bodies back to back, each waiting for its
// answer before sending the next — over the open window, and over the
// standard one, where the sweep is small and the front end (parse,
// preprocess, encode, respond) is most of the work. b.N counts bodies;
// each leg reports the spectra answered per second, the daemon's mean
// batch (queries per sweep) and the heap allocations per spectrum of
// the whole process, client included.
func BenchmarkSearchBodies(b *testing.B) {
	for _, leg := range []struct {
		name string
		open bool
	}{{"open", true}, {"standard", false}} {
		b.Run(leg.name, func(b *testing.B) {
			d, ds := searchDaemon(b, serve.Config{}, leg.open)
			benchmarkBodies(b, d, bodyMGF(b, ds))
		})
	}
}

// benchmarkBodies posts b.N copies of mgf to d from one closed-loop
// client per CPU.
func benchmarkBodies(b *testing.B, d *daemon, mgf []byte) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	hs := newHTTPServer(withRequestID(d.mux(), false))
	go hs.Serve(ln)
	defer hs.Close()
	url := "http://" + ln.Addr().String() + "/search"
	clients := runtime.NumCPU()
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}}
	defer client.CloseIdleConnections()

	var next atomic.Int64
	var wg sync.WaitGroup
	var before, after runtime.MemStats
	b.ResetTimer()
	runtime.ReadMemStats(&before)
	start := time.Now()
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for next.Add(1) <= int64(b.N) {
				resp, err := client.Post(url, "chemical/x-mgf", bytes.NewReader(mgf))
				if err != nil {
					b.Error(err)
					return
				}
				_, err = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					b.Errorf("status %d, %v", resp.StatusCode, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	b.StopTimer()
	sv := d.acquire()
	st := sv.srv.Stats()
	sv.release()
	spectra := float64(b.N * bodySpectra)
	b.ReportMetric(spectra/elapsed.Seconds(), "spectra/s")
	b.ReportMetric(st.MeanBatchSize, "batch")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/spectra, "allocs/spectrum")
}
