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
	"repro/internal/spectrum"
)

// bodySpectra is how many spectra one BenchmarkSearchBodies request
// body carries: the shape of a closed-loop client's search window.
const bodySpectra = 64

// BenchmarkSearchBodies is the daemon's closed-loop loopback harness:
// the test daemon with omsd's default batcher settings serves its
// handler stack on a real 127.0.0.1 listener, and one client per CPU
// posts 64-spectrum MGF bodies back to back, each waiting for its
// answer before sending the next. b.N counts bodies; it reports the
// spectra answered per second and the daemon's mean batch (queries per
// sweep).
func BenchmarkSearchBodies(b *testing.B) {
	d, ds := obsvDaemon(b, serve.Config{})
	body := make([]*spectrum.Spectrum, bodySpectra)
	for i := range body {
		body[i] = ds.Queries[i%len(ds.Queries)]
	}
	var mgf bytes.Buffer
	if err := spectrum.WriteMGF(&mgf, body); err != nil {
		b.Fatal(err)
	}
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
	b.ResetTimer()
	start := time.Now()
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for next.Add(1) <= int64(b.N) {
				resp, err := client.Post(url, "chemical/x-mgf", bytes.NewReader(mgf.Bytes()))
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
	b.StopTimer()
	sv := d.acquire()
	st := sv.srv.Stats()
	sv.release()
	b.ReportMetric(float64(b.N*bodySpectra)/elapsed.Seconds(), "spectra/s")
	b.ReportMetric(st.MeanBatchSize, "batch")
}
