// Command omsd is the resident open-modification-search daemon: it
// opens a persistent library index (built by omsbuild) at startup —
// memory-mapped, so startup is metadata-bound even for libraries far
// bigger than RAM — and serves continuous query traffic over HTTP,
// coalescing concurrent requests into block-major batched sweeps of
// the packed reference store:
//
//	omsd -index lib.omsidx [-addr :8993] [-maxbatch 64] \
//	     [-maxqueue 4096] [-standard] [-topk 5]
//
// -index accepts a partition manifest written by omsbuild -partitions
// or a bare index file, which is served as a one-partition generation
// 1 and reported as one on every endpoint. Each query's precursor
// window is routed through the partitions' mass fences, the batched
// search fans out across the partitions it reaches, and per-partition
// top-k lists merge exactly — bit-identical over any partitioning.
//
// SIGHUP hot-reloads the index: the daemon rebuilds the engine from
// the (possibly rewritten) index path and swaps it under live traffic.
// Every in-flight search completes against exactly the generation that
// admitted it — never a mix — and the old mapping is released only
// after its last search returns. A failed reload leaves the current
// index serving.
//
// A partitioned index is incrementally updatable while omsd serves it:
// omsbuild -append publishes delta partitions (SIGHUP picks them up),
// and -compact-interval D runs the in-process compactor every D,
// folding accumulated deltas and tombstones back into the base tier
// and hot-reloading the compacted generation — all without dropping a
// query. Each pass publishes under the manifest's writer lock, so a
// pass that meets another writer (omsbuild -append, omscompact) fails,
// leaves the index unchanged, and is retried at the next interval.
//
// Endpoints:
//
//	POST /search   MGF body (default) or JSON peak lists
//	               ({"spectra":[{"id","precursor_mz","charge","peaks":[[mz,intensity],...]}]});
//	               responds with PSM JSON, or TSV with ?format=tsv
//	GET  /healthz  liveness + library identity
//	GET  /stats    serving counters: queue depth, batch size
//	               histogram, latency quantiles, per-partition
//	               rows/fences/shadowed rows
//	GET  /metrics  the same telemetry in Prometheus text exposition
//	               format, plus per-stage pipeline timings, reload
//	               generation and slow-query counters (DESIGN.md §10)
//	GET  /debug/slowest
//	               the worst-latency query traces with per-stage
//	               timings, latency descending
//
// Observability flags: -slow-query DURATION marks and logs requests at
// or above the threshold (they surface in /debug/slowest and
// oms_slow_queries_total either way); -access-log writes one
// structured line per HTTP request with X-Request-ID propagation
// (inbound header honored, generated otherwise, echoed on the
// response, and joined to slow-query traces via request_id);
// -debug-addr ADDR serves net/http/pprof on a second listener kept off
// the query port.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/hdc"
	"repro/internal/libindex"
)

// Edge timeouts: a client gets readHeaderTimeout to finish its request
// headers, and a keep-alive connection idleTimeout between requests,
// before the daemon takes the connection back. Bodies and responses
// are not timed here — a large MGF upload or a long sweep is legitimate.
const (
	readHeaderTimeout = 5 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer is the query listener's server over the given handler.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

func main() {
	indexPath := flag.String("index", "", "library index or partition manifest path (required; build with omsbuild)")
	addr := flag.String("addr", ":8993", "HTTP listen address")
	maxBatch := flag.Int("maxbatch", 64, "most queued requests one batched sweep takes")
	maxQueue := flag.Int("maxqueue", 4096, "admission bound on outstanding requests")
	standard := flag.Bool("standard", false, "narrow-window standard search instead of open search")
	topk := flag.Int("topk", 0, "matches retrieved per query (0 = index setting)")
	slowQuery := flag.Duration("slow-query", 0, "log a structured line for requests at or above this latency (0 = off)")
	accessLog := flag.Bool("access-log", false, "log one structured line per HTTP request")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof on this address (empty = off)")
	compactInterval := flag.Duration("compact-interval", 0, "run the in-process compactor this often on a partitioned index, folding delta partitions and tombstones into the base tier and hot-reloading the result (0 = off; a pass that meets another manifest writer fails and is retried next interval)")
	compactMaxRefs := flag.Int("compact-max-part-refs", 0, "with -compact-interval: max references per compacted partition (0 = one partition per mass gap)")
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
		topk:      *topk,
		slowQuery: *slowQuery,
	}
	var d *daemon
	d = newDaemon(func() (*serving, error) { return buildNext(cfg, d.acquire()) })
	start := time.Now()
	sv, err := d.reload()
	fatalIf(err)
	fmt.Fprintf(os.Stderr, "omsd: loaded %s, engine up in %v, sweep kernel %s\n", sv.desc, time.Since(start).Round(time.Millisecond), hdc.KernelName())

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
		fmt.Fprintf(os.Stderr, "omsd: pprof on %s\n", dln.Addr())
		go func() {
			if err := http.Serve(dln, debugMux); err != nil && !errors.Is(err, net.ErrClosed) {
				fmt.Fprintf(os.Stderr, "omsd: pprof server: %v\n", err)
			}
		}()
	}
	if *compactInterval > 0 {
		// Only a manifest has a log to compact.
		_, err = libindex.LoadManifestLog(*indexPath)
		fatalIf(err)
		go func() {
			// A pass that finds another writer holding the manifest's
			// lock fails and is counted; the next tick retries. Each
			// pass that actually publishes a generation is followed by
			// a hot reload, exactly like a SIGHUP — in-flight searches
			// finish against the generation that admitted them.
			ticker := time.NewTicker(*compactInterval)
			defer ticker.Stop()
			for range ticker.C {
				stats, err := libindex.Compact(*indexPath, *compactMaxRefs)
				if err != nil {
					d.compactFailures.Add(1)
					fmt.Fprintf(os.Stderr, "omsd: compaction failed, index unchanged: %v\n", err)
					continue
				}
				if stats.Noop {
					continue
				}
				d.compactions.Add(1)
				fmt.Fprintf(os.Stderr,
					"omsd: compacted to generation %d: %d partitions -> %d (%d refs merged, %d shadowed refs dropped, %d tombstones cleared)\n",
					stats.Generation, stats.DroppedPartitions, stats.NewPartitions,
					stats.MergedRefs, stats.RemovedRefs, stats.ClearedTombstones)
				nsv, err := d.reload()
				if err != nil {
					fmt.Fprintf(os.Stderr, "omsd: post-compaction reload failed, keeping current index: %v\n", err)
					continue
				}
				fmt.Fprintf(os.Stderr, "omsd: reloaded %s\n", nsv.desc)
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
				fmt.Fprintf(os.Stderr, "omsd: SIGHUP reload failed, keeping current index: %v\n", err)
				continue
			}
			fmt.Fprintf(os.Stderr, "omsd: SIGHUP reloaded %s in %v\n", nsv.desc, time.Since(reloadStart).Round(time.Millisecond))
		}
	}()
	fmt.Fprintf(os.Stderr, "omsd: listening on %s\n", ln.Addr())
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
		fmt.Fprintln(os.Stderr, "omsd: shutting down")
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
		fmt.Fprintf(os.Stderr, "omsd: %v\n", err)
		os.Exit(1)
	}
}
