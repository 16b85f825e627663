// Command omsd is the resident open-modification-search daemon. It
// memory-maps a library index built by omsbuild, so startup costs
// metadata, not library size, and serves queries over HTTP, coalescing
// concurrent requests into batched sweeps of the packed store:
//
//	omsd -index lib.omsidx [-addr :8993] [-maxbatch 64] \
//	     [-maxqueue 4096] [-standard]
//
// -index takes a partition manifest (omsbuild -partitions) or a bare
// index file, served as a one-partition generation 1; per-partition
// top-k lists merge exactly, bit-identical over any partitioning.
//
// omsd only reads its index and never takes the manifest's writer
// lock; the writers are omsbuild -append/-retract and omscompact.
// SIGHUP reloads the index path under live traffic: every search
// completes against the one generation that admitted it, an old
// mapping is released after its last search returns, and a failed
// reload keeps the current one.
//
// Endpoints:
//
//	POST /search   MGF body (default) or JSON peak lists
//	               ({"spectra":[{"id","precursor_mz","charge","peaks":[[mz,intensity],...]}]});
//	               responds with PSM JSON, or TSV with ?format=tsv
//	GET  /healthz  liveness + library identity
//	GET  /stats    queue depth, batch sizes, latency quantiles,
//	               per-partition rows/fences/shadowed rows
//	GET  /metrics  the same in Prometheus text format, plus per-stage
//	               timings and reload counters (DESIGN.md §10)
//	GET  /debug/slowest
//	               the slowest query traces with per-stage timings
//
// -slow-query D logs requests at or above D (the slowest land in
// /debug/slowest either way); -access-log logs one line per request,
// with its X-Request-ID (honored or generated, echoed, and joined to
// slow-query traces); -debug-addr serves net/http/pprof on a second
// listener, off the query port.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/hdc"
)

// Edge timeouts: a client gets readHeaderTimeout to finish its request
// headers, and a keep-alive connection idleTimeout between requests,
// before the daemon takes the connection back. Bodies and responses
// are not timed here — a large MGF upload or a long sweep is legitimate.
const (
	readHeaderTimeout = 5 * time.Second
	idleTimeout       = 2 * time.Minute
)

// logger is omsd's one stderr sink: every line starts "omsd: ". Tests
// read what it writes by swapping its writer (SetOutput).
var logger = log.New(os.Stderr, "omsd: ", 0)

// newHTTPServer is the query listener's server over the given handler.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

func main() {
	indexPath := flag.String("index", "", "library index or partition manifest path (required; build with omsbuild)")
	addr := flag.String("addr", ":8993", "HTTP listen address")
	maxBatch := flag.Int("maxbatch", 64, "most queued queries one batched sweep takes")
	maxQueue := flag.Int("maxqueue", 4096, "admission bound on outstanding queries")
	standard := flag.Bool("standard", false, "narrow-window standard search instead of open search")
	slowQuery := flag.Duration("slow-query", 0, "log a structured line for requests at or above this latency (0 = off)")
	accessLog := flag.Bool("access-log", false, "log one structured line per HTTP request")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof on this address (empty = off)")
	flag.Parse()

	if *indexPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	cfg := servingConfig{
		indexPath: *indexPath,
		maxBatch:  *maxBatch,
		maxQueue:  *maxQueue,
		standard:  *standard,
		slowQuery: *slowQuery,
	}
	var d *daemon
	d = newDaemon(func() (*serving, error) { return buildNext(cfg, d.acquire()) })
	start := time.Now()
	sv, err := d.reload()
	fatalIf(err)
	logger.Printf("loaded %s, engine up in %v, sweep kernel %s", sv.desc, time.Since(start).Round(time.Millisecond), hdc.KernelName())

	httpSrv := newHTTPServer(withRequestID(d.mux(), *accessLog))
	ln, err := net.Listen("tcp", *addr)
	fatalIf(err)
	if *debugAddr != "" {
		// pprof stays off the query port: a profile scrape must never
		// contend with /search on the same listener, and the debug
		// surface can be firewalled separately.
		debugMux := http.NewServeMux()
		debugMux.HandleFunc("/debug/pprof/", pprof.Index)
		debugMux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		debugMux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		debugMux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		debugMux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dln, err := net.Listen("tcp", *debugAddr)
		fatalIf(err)
		logger.Printf("pprof on %s", dln.Addr())
		go func() {
			if err := http.Serve(dln, debugMux); err != nil && !errors.Is(err, net.ErrClosed) {
				logger.Printf("pprof server: %v", err)
			}
		}()
	}
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			reloadStart := time.Now()
			nsv, err := d.reload()
			if err != nil {
				logger.Printf("SIGHUP reload failed, keeping current index: %v", err)
				continue
			}
			logger.Printf("SIGHUP reloaded %s in %v", nsv.desc, time.Since(reloadStart).Round(time.Millisecond))
		}
	}()
	logger.Printf("listening on %s", ln.Addr())
	fatalIf(serveUntilShutdown(httpSrv, ln, stop, 10*time.Second))
	d.shutdown()
}

// serveUntilShutdown serves httpSrv on ln until stop delivers a
// signal, then shuts the server down gracefully — waiting up to
// timeout for in-flight handlers to drain — and reports the Shutdown
// outcome. It returns nil on a clean shutdown, the serve error when
// serving fails outright, and the Shutdown error (e.g. the deadline
// expiring with handlers still running) otherwise. The caller must
// only stop downstream components (the micro-batcher) after it
// returns, or a mid-request drain would fail those searches with
// ErrClosed.
func serveUntilShutdown(httpSrv *http.Server, ln net.Listener, stop <-chan os.Signal, timeout time.Duration) error {
	shutdownErr := make(chan error, 1)
	go func() {
		<-stop
		logger.Print("shutting down")
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		defer cancel()
		shutdownErr <- httpSrv.Shutdown(ctx)
	}()
	// Serve returns ErrServerClosed (possibly wrapped) the moment
	// Shutdown begins; any other error is a real serving failure and
	// Shutdown never ran.
	if err := httpSrv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return <-shutdownErr
}

func fatalIf(err error) {
	if err != nil {
		logger.Fatal(err)
	}
}
