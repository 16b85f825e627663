//go:build linux

package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// workload is one of the four benchmark workloads.
type workload struct {
	name string
	why  string
	run  func(*run) error
}

var workloads = []workload{
	{"serve-open",
		"omsd over a 4-partition manifest, open window: the production shape; the hdc sweep is the largest cost, hdc encode next, partition routing+merge and serve coalescing are on the path",
		func(r *run) error { return r.serve(false) }},
	{"serve-standard",
		"same daemon with -standard: a handful of rows per query, so the sweep is bypassed and spectrum parse/preprocess, hdc encode, the MaxDelay wait and the HTTP edge do all the work",
		func(r *run) error { return r.serve(true) }},
	{"serve-churn",
		"serve-open's windows while omsbuild -retract/-append, SIGHUP reloads and omscompact rewrite the index, timed through the live delta overlay: tombstone dedup, generation swap, writes beside reads",
		(*run).churn},
	{"batch-offline",
		"omsearch -parallel, file in and TSV out, on a single-file 3-tier entropy-layout index: single-store engine, ladder kernel, FDR, TSV writing; omsd serves the same file for the latency figure",
		(*run).batch},
}

// Every timing is taken over many short windows spread over the whole
// run (README.md, "Noise protocol"). latencyWindow is one open-loop
// window and loadWindow one closed-loop window of the serve workloads;
// the two alternate. minRuns is the least number of process runs
// batch-offline's medians are taken over, minWindows the least number
// of latency windows behind a served search_p50_ms.
const (
	latencyWindow = 250 * time.Millisecond
	loadWindow    = 250 * time.Millisecond
	minRuns       = 5
	minWindows    = 4
)

// run is one workload execution: its inputs, and the outcome it
// accumulates.
type run struct {
	env     *env
	sz      sizing
	seed    int64
	seconds time.Duration
	// dir holds everything this execution writes: inputs, indexes,
	// outputs.
	dir string
	ds  *dataset
	// speed scales CPU-bound timings to the reference machine's speed;
	// it runs only while the untraced phases do.
	speed *speedometer
	// toReplay is what the workload leaves for the traced replay: the
	// index it ended on, the window mode and the oracle's answers.
	toReplay replayInput

	attempted, failed int
	endToEnd          map[string]measure
	perLayer          map[string]float64
	// problems are correctness-gate failures beyond per-spectrum
	// mismatches (a TSV pass that is not byte-identical, …).
	problems []string
	spans    *recorder
}

func (r *run) count(attempted, failed int) {
	r.attempted += attempted
	r.failed += failed
}

func (r *run) problemf(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// buildIndex runs omsbuild over a library file at the benchmark's
// operating point.
func (r *run) buildIndex(library, out string, layout ...string) (usage, error) {
	args := append([]string{"-library", library, "-out", out,
		"-d", fmt.Sprint(hdDim), "-precision", fmt.Sprint(idPrecision)}, layout...)
	return r.env.run("omsbuild", args...)
}

// setupServed is a serve workload's set-up: omsbuild of the
// 4-partition manifest, then omsd from exec to its first /healthz 200.
// It is done once: the build is serial and takes most of the time a
// run has outside its measured seconds, and its several seconds hold
// thousands of speedometer bursts, so one set-up is already a long
// average.
func (r *run) setupServed(library string, refs int, omsdArgs ...string) (*daemon, string, error) {
	mark := r.speed.mark()
	index := filepath.Join(r.dir, "library.manifest")
	build, err := r.buildIndex(library, index, "-partitions", "4")
	if err != nil {
		return nil, "", err
	}
	d, err := r.env.startOmsd(append([]string{"-index", index}, omsdArgs...)...)
	if err != nil {
		return nil, "", err
	}
	var setup windows
	setup.add((build.wall + d.ready).Seconds(), r.speed.since(mark))
	r.endToEnd["setup_s"] = atReferenceSpeed(setup, true)
	r.perLayer["omsbuild.refs_per_s"] = float64(refs) / build.wall.Seconds()
	r.perLayer["omsd.ready_ms"] = ms(d.ready)
	return d, index, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// checker is called when a request is sent and returns the check of
// its response: how many of the member queries came back wrong.
type checker func() func(resp []byte, members []int) int

// against checks every response against one set of expectations.
func against(exp []expected) checker {
	return func() func([]byte, []int) int {
		return func(resp []byte, members []int) int { return countMismatches(resp, members, [][]expected{exp}) }
	}
}

// single returns the open-loop request source: request i carries
// query i (mod the first n queries) alone.
func (r *run) single(n int, chk checker) func(i int) request {
	return func(i int) request {
		q := i % n
		verify := chk()
		return request{body: r.ds.bodies[q], spectra: 1,
			verify: func(resp []byte) int { return verify(resp, []int{q}) }}
	}
}

// bodies returns the closed-loop request source: request i carries
// the next sz.body of the first n queries, wrapping around.
func (r *run) bodies(n int, chk checker) func(i int) request {
	return func(i int) request {
		body, members := r.ds.body(i*r.sz.body%n, r.sz.body, n)
		verify := chk()
		return request{body: body, spectra: len(members),
			verify: func(resp []byte) int { return verify(resp, members) }}
	}
}

// interval is a stretch of a phase's own clock.
type interval struct{ from, to time.Duration }

// openPhase is an open-loop single-spectrum phase, run one window at
// a time. It accumulates, per kept window, when it ran and its median
// latency, every kept sample on the phase's own clock, and the
// generator's own worst lateness.
type openPhase struct {
	r    *run
	c    *loadClient
	rng  *rand.Rand
	n    int
	next func(i int) request

	began time.Time
	sent  int
	// rerun is how many late windows may still be discarded.
	rerun int

	at      []interval
	p50s    []float64
	samples []sample
	lateMax time.Duration
}

// openPhase prepares a phase of latencyWindow-long windows at the
// given rate; its clock starts now.
func (r *run) openPhase(c *loadClient, rate float64, salt int64, next func(i int) request) *openPhase {
	return &openPhase{r: r, c: c, rng: rand.New(rand.NewSource(r.seed*7919 + salt)),
		n: max(int(rate*latencyWindow.Seconds()), 1), next: next, began: time.Now(), rerun: 1}
}

// window runs one window and drains it. A window in which the
// generator itself ran later than the window's own median latency is
// discarded and run again, once per phase.
func (ph *openPhase) window() {
	for {
		base := ph.sent
		from := time.Since(ph.began)
		samples, late := ph.c.openLoop(poissonSchedule(ph.rng, ph.n, latencyWindow), func(i int) request { return ph.next(base + i) })
		ph.sent += ph.n
		ph.r.count(tally(samples))
		p50 := median(latenciesMS(samples))
		if ms(late) > p50 && ph.rerun > 0 {
			ph.rerun--
			continue
		}
		for _, s := range samples {
			s.start += from
			s.end += from
			ph.samples = append(ph.samples, s)
		}
		ph.at = append(ph.at, interval{from, time.Since(ph.began)})
		ph.p50s = append(ph.p50s, p50)
		ph.lateMax = max(ph.lateMax, late)
		return
	}
}

// report records the generator's own health figures and the tail of
// the phase's latencies under the given per-layer name.
func (ph *openPhase) report(p99Name string) {
	ph.r.perLayer[p99Name] = percentile(latenciesMS(ph.samples), 99)
	ph.r.perLayer["loadgen.over_50ms_ratio"] = overLimitRatio(ph.samples)
	ph.r.perLayer["loadgen.late_ms_max"] = ms(ph.lateMax)
}

// loadPhase is the closed-loop side of a serve workload: nproc
// clients POSTing sz.body-spectrum bodies back to back, one window at
// a time, with the daemon's CPU read outside each window. It
// accumulates, per window, when it ran, the spectra answered correctly
// per second and the daemon's CPU milliseconds per such spectrum.
type loadPhase struct {
	r     *run
	d     *daemon
	c     *loadClient
	next  func(i int) request
	began time.Time
	sent  int

	at           []interval
	rates, cpuMS windows
}

func (lp *loadPhase) window() error {
	cpu0, err := lp.d.cpuTime()
	if err != nil {
		return err
	}
	base := lp.sent
	from := time.Since(lp.began)
	mark := lp.r.speed.mark()
	samples := lp.c.closedLoop(loadWindow, func(i int) request { return lp.next(base + i) })
	speed := lp.r.speed.since(mark)
	to := time.Since(lp.began)
	cpu1, err := lp.d.cpuTime()
	if err != nil {
		return err
	}
	lp.sent += len(samples)
	attempted, failed := tally(samples)
	lp.r.count(attempted, failed)
	lp.at = append(lp.at, interval{from, to})
	// A body still in flight when the window closes is answered after
	// it; only the share of it inside the window counts.
	lp.rates.add(windowGood(samples, []time.Duration{0, loadWindow})[0]/loadWindow.Seconds(), speed)
	lp.cpuMS.add(ms(cpu1-cpu0)/float64(max(attempted-failed, 1)), speed)
	return nil
}

// overLimitRatio is the share of sent requests that missed the
// latency limit; a failed request misses it.
func overLimitRatio(samples []sample) float64 {
	over := 0
	for _, s := range samples {
		if s.failed > 0 || s.latency() > latencyLimit {
			over++
		}
	}
	return float64(over) / float64(max(len(samples), 1))
}

// warmUp posts the first n queries once in sz.body-spectrum bodies:
// it faults the mapped index in and lets the daemon's lazy set-up
// finish before anything is timed, and every response is checked.
func (r *run) warmUp(c *loadClient, n int, chk checker) {
	next := r.bodies(n, chk)
	for i := 0; i*r.sz.body < n; i++ {
		req := next(i)
		r.count(req.spectra, c.post(req))
	}
}

// serve is serve-open and serve-standard: open-loop latency windows
// and closed-loop throughput windows against omsd over the full
// 4-partition manifest.
func (r *run) serve(standard bool) error {
	o, err := newOracle(r.ds.library, !standard, r.env.nproc)
	if err != nil {
		return err
	}
	exp, err := o.expect(len(r.ds.library), r.ds.queries)
	if err != nil {
		return err
	}
	var omsdArgs []string
	if standard {
		omsdArgs = []string{"-standard"}
	}
	d, index, err := r.setupServed(r.ds.libraryPath, len(r.ds.library), omsdArgs...)
	if err != nil {
		return err
	}
	defer d.stop()
	c := newLoadClient(d.base, "/search", r.env.nproc)
	defer c.close()
	nq := len(r.ds.queries)
	// The warm-up over every query is also the full correctness pass.
	r.warmUp(c, nq, against(exp))

	// Latency and throughput windows alternate for the whole run, each
	// with its own /metrics and CPU readings taken outside the window.
	lat := r.openPhase(c, r.sz.latencyRate, 1, r.single(nq, against(exp)))
	load := &loadPhase{r: r, d: d, c: c, next: r.bodies(nq, against(exp)), began: lat.began}
	latDelta, thrDelta := scrape{}, scrape{}
	var last scrape
	for cycle := 0; cycle < max(int(r.seconds/(latencyWindow+loadWindow)), 1); cycle++ {
		m0, err := d.metrics()
		if err != nil {
			return err
		}
		lat.window()
		m1, err := d.metrics()
		if err != nil {
			return err
		}
		if err := load.window(); err != nil {
			return err
		}
		if last, err = d.metrics(); err != nil {
			return err
		}
		latDelta.add(m1, m0)
		thrDelta.add(last, m1)
	}

	r.endToEnd["search_p50_ms"] = quietDecile(lat.p50s, true)
	r.endToEnd["spectra_per_s"] = atReferenceSpeed(load.rates, false)
	r.endToEnd["cpu_ms_per_spectrum"] = atReferenceSpeed(load.cpuMS, true)
	if r.endToEnd["peak_rss_mb"], err = peakRSS(d); err != nil {
		return err
	}
	lat.report("loadgen.search_p99_ms")
	for k, v := range serveLayer(latDelta, thrDelta, mean(latenciesMS(lat.samples))) {
		r.perLayer[k] = v
	}
	r.indexSize(index, last["oms_index_references"])
	r.toReplay = replayInput{index: index, open: !standard, exp: exp}
	return nil
}

func peakRSS(d *daemon) (measure, error) {
	mb, err := peakRSSMB(d.cmd.Process.Pid)
	return measure{Value: mb}, err
}

// indexSize records the on-disk bytes per served reference of an
// index: the file itself, or a manifest with its partition files.
func (r *run) indexSize(index string, refs float64) {
	paths, _ := filepath.Glob(index + "*") // the pattern is well-formed
	var total int64
	for _, p := range paths {
		if info, err := os.Stat(p); err == nil {
			total += info.Size()
		}
	}
	if refs > 0 {
		r.perLayer["libindex.bytes_per_ref"] = float64(total) / refs
	}
}

// churn is serve-churn: the same alternating latency and throughput
// windows as serve-open, against a daemon whose index the harness
// retracts from, appends to, reloads and compacts meanwhile. Its
// end-to-end timings are taken over the windows served through a live
// overlay.
func (r *run) churn() error {
	plan, err := planChurn(r.dir, r.ds, r.sz)
	if err != nil {
		return err
	}
	o, err := newOracle(r.ds.library, true, r.env.nproc)
	if err != nil {
		return err
	}
	nq := min(r.sz.churnQueries, len(r.ds.queries))
	final, err := o.expect(len(r.ds.library), r.ds.queries)
	if err != nil {
		return err
	}
	// stages[s] is what a read must return while stage s is served.
	stages := make([][]expected, len(plan.prefix))
	for s, n := range plan.prefix {
		if n == len(r.ds.library) {
			stages[s] = final[:nq]
		} else if stages[s], err = o.expect(n, r.ds.queries[:nq]); err != nil {
			return err
		}
	}

	d, index, err := r.setupServed(plan.basePath, plan.prefix[0])
	if err != nil {
		return err
	}
	defer d.stop()
	c := newLoadClient(d.base, "/search", r.env.nproc)
	defer c.close()
	h, err := d.health()
	if err != nil {
		return err
	}
	gen := h.ManifestGeneration
	r.warmUp(c, nq, against(stages[0]))

	// A read sent after stage lo was confirmed visible and answered
	// after stage hi's reload was requested may have been served by
	// any stage in between.
	var confirmed, published atomic.Int32
	check := func() func([]byte, []int) int {
		lo := confirmed.Load()
		return func(resp []byte, members []int) int {
			return countMismatches(resp, members, stages[lo:published.Load()+1])
		}
	}
	// The open-loop reads go over one connection at churnRate; the
	// throughput windows use one per CPU.
	one := newLoadClient(d.base, "/search", 1)
	defer one.close()
	reads := r.openPhase(one, r.sz.churnRate, 2, r.single(nq, check))
	load := &loadPhase{r: r, d: d, c: c, next: r.bodies(nq, check), began: reads.began}

	// The writer publishes on a fixed timetable spread over the run:
	// retract at once, a slice every seconds/7, compaction last. live is
	// the stretch of the phase's clock from the first slice confirmed
	// visible to the reload that retires the deltas being requested:
	// every request inside it is served through at least one delta.
	ctx, cancel := context.WithTimeout(context.Background(), r.seconds+60*time.Second)
	defer cancel()
	live := interval{from: math.MaxInt64, to: math.MaxInt64}
	var visible, appends, reloads []float64
	var compactS float64
	var overlay scrape
	writer := make(chan error, 1)
	go func() {
		writer <- func() error {
			if _, err := r.env.run("omsbuild", "-retract", strings.Join(plan.retractIDs, ","), "-out", index); err != nil {
				return err
			}
			gen++
			reload := func() (time.Duration, error) {
				hup := time.Now()
				if err := d.cmd.Process.Signal(syscall.SIGHUP); err != nil {
					return 0, err
				}
				err := d.awaitGeneration(ctx, gen)
				return time.Since(hup), err
			}
			for k, slice := range plan.slicePaths {
				time.Sleep(time.Until(reads.began.Add(r.seconds * time.Duration(k+1) / 7)))
				t0 := time.Now()
				u, err := r.env.run("omsbuild", "-append", "-library", slice, "-out", index)
				if err != nil {
					return err
				}
				gen++
				published.Store(int32(k + 1))
				took, err := reload()
				if err != nil {
					return err
				}
				confirmed.Store(int32(k + 1))
				if k == 0 {
					live.from = time.Since(reads.began)
				}
				visible = append(visible, time.Since(t0).Seconds())
				appends = append(appends, u.wall.Seconds())
				reloads = append(reloads, ms(took))
			}
			if overlay, err = d.metrics(); err != nil {
				return err
			}
			time.Sleep(time.Until(reads.began.Add(r.seconds * 6 / 7)))
			u, err := r.env.run("omscompact", "-index", index, "-sweep")
			if err != nil {
				return err
			}
			compactS = u.wall.Seconds()
			gen++
			live.to = time.Since(reads.began)
			took, err := reload()
			reloads = append(reloads, ms(took))
			return err
		}()
	}()

	var loadErr error
	for cycle := 0; cycle < max(int(r.seconds/(latencyWindow+loadWindow)), 1) && loadErr == nil; cycle++ {
		reads.window()
		loadErr = load.window()
	}
	// Receiving from writer orders its writes to live and the slices
	// above before the reads below.
	if err := <-writer; err != nil {
		return err
	}
	if loadErr != nil {
		return loadErr
	}

	// After the final compaction the daemon must answer every query
	// exactly as a daemon over a from-scratch build of the whole
	// library does: one TSV pass, byte for byte.
	tsv, err := postTSV(d, r.ds.queriesPath)
	if err != nil {
		return err
	}
	r.count(len(final), 0)
	if want := servedTSV(final); !bytes.Equal(tsv, want) {
		r.failed += len(final)
		r.problemf("TSV pass after compaction differs from the oracle (%d vs %d bytes)", len(tsv), len(want))
	}

	inLive := func(at []interval) func(i int) bool {
		return func(i int) bool { return at[i].from >= live.from && at[i].to <= live.to }
	}
	var p50s []float64
	for i, p50 := range reads.p50s {
		if inLive(reads.at)(i) {
			p50s = append(p50s, p50)
		}
	}
	rates, cpuMS := load.rates.keep(inLive(load.at)), load.cpuMS.keep(inLive(load.at))
	if len(p50s) == 0 || len(rates.raw) == 0 {
		return fmt.Errorf("no window of %d latency and %d throughput windows lay wholly between the first delta going live (%v) and the compaction's reload (%v): the run is too short for its write timetable",
			len(reads.p50s), len(load.rates.raw), live.from, live.to)
	}
	r.endToEnd["search_p50_ms"] = medianOfWindows(p50s)
	r.endToEnd["spectra_per_s"] = atReferenceSpeed(rates, false)
	r.endToEnd["cpu_ms_per_spectrum"] = atReferenceSpeed(cpuMS, true)
	if r.endToEnd["peak_rss_mb"], err = peakRSS(d); err != nil {
		return err
	}
	r.perLayer["libindex.publish_visible_s"] = median(visible)
	r.perLayer["libindex.append_s"] = median(appends)
	r.perLayer["libindex.compact_s"] = compactS
	r.perLayer["omsd.reload_ms"] = median(reloads)
	r.perLayer["core.hidden_refs"] = overlay["oms_hidden_refs"]
	r.perLayer["libindex.delta_partitions"] = overlay["oms_delta_partitions"]
	reads.report("loadgen.churn_p99_ms")
	r.indexSize(index, float64(len(r.ds.library)))
	r.toReplay = replayInput{index: index, open: true, exp: final}
	return nil
}

// postTSV posts a whole MGF file to /search?format=tsv.
func postTSV(d *daemon, mgfPath string) ([]byte, error) {
	f, err := os.Open(mgfPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	resp, err := d.client.Post(d.base+"/search?format=tsv", "text/plain", f)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("POST /search?format=tsv: status %d", resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}

// batch is batch-offline: whole omsearch process runs over the query
// file, then one-spectrum runs for the fixed start-up share, then a
// short served-latency phase of omsd over the same single-file index,
// so that search_p50_ms is the same quantity here as on the serve
// workloads (the driver wants every end-to-end metric from every
// workload) and the single-store engine with its ladder is held to a
// latency somewhere.
func (r *run) batch() error {
	o, err := newOracle(r.ds.library, true, r.env.nproc)
	if err != nil {
		return err
	}
	exp, err := o.expect(len(r.ds.library), r.ds.queries)
	if err != nil {
		return err
	}
	wantAll, ids, err := batchTSV(exp, 0.01)
	if err != nil {
		return err
	}
	wantOne, _, err := batchTSV(exp[:1], 0.01)
	if err != nil {
		return err
	}
	onePath := filepath.Join(r.dir, "one.mgf")
	if err := os.WriteFile(onePath, r.ds.bodies[0], 0o644); err != nil {
		return err
	}

	index := filepath.Join(r.dir, "full.omsidx")
	mark := r.speed.mark()
	build, err := r.buildIndex(r.ds.libraryPath, index, "-tiers", "8,24", "-bit-layout", "entropy")
	if err != nil {
		return err
	}
	var setup windows
	setup.add(build.wall.Seconds(), r.speed.since(mark))
	r.endToEnd["setup_s"] = atReferenceSpeed(setup, true)
	r.perLayer["omsbuild.refs_per_s"] = float64(len(r.ds.library)) / build.wall.Seconds()

	outPath := filepath.Join(r.dir, "out.tsv")
	search := func(queries string, n int, want []byte) (usage, error) {
		u, err := r.env.runTo(outPath, "omsearch", "-index", index, "-queries", queries, "-parallel")
		if err != nil {
			return u, err
		}
		got, err := os.ReadFile(outPath)
		if err != nil {
			return u, err
		}
		r.count(n, 0)
		if !bytes.Equal(got, want) {
			r.failed += n
			r.problemf("omsearch TSV for %s differs from the oracle (%d vs %d bytes)", filepath.Base(queries), len(got), len(want))
		}
		return u, nil
	}
	// Warm the page cache and verify once before timing.
	if _, err := search(r.ds.queriesPath, len(exp), wantAll); err != nil {
		return err
	}

	// Six tenths of the run go to whole-file runs, one to one-spectrum
	// runs and three to the served-latency windows.
	var rates, cpus windows
	var rss, startups []float64
	start := time.Now()
	for len(rates.raw) < minRuns || time.Since(start) < r.seconds*6/10 {
		mark := r.speed.mark()
		u, err := search(r.ds.queriesPath, len(exp), wantAll)
		if err != nil {
			return err
		}
		speed := r.speed.since(mark)
		rates.add(float64(len(exp))/u.wall.Seconds(), speed)
		cpus.add(ms(u.cpu)/float64(len(exp)), speed)
		rss = append(rss, u.rssMB)
	}
	for len(startups) < minRuns || time.Since(start) < r.seconds*7/10 {
		u, err := search(onePath, 1, wantOne)
		if err != nil {
			return err
		}
		startups = append(startups, ms(u.wall))
	}
	r.endToEnd["spectra_per_s"] = atReferenceSpeed(rates, false)
	r.endToEnd["cpu_ms_per_spectrum"] = atReferenceSpeed(cpus, true)
	// The peak of a garbage-collected process depends on where in a run
	// the collector happened to start; the median run is steadier than
	// the worst.
	r.endToEnd["peak_rss_mb"] = medianOfWindows(rss)
	r.perLayer["omsearch.startup_ms"] = median(startups)
	r.perLayer["fdr.ids_at_fdr01"] = float64(ids)

	d, err := r.env.startOmsd("-index", index)
	if err != nil {
		return err
	}
	defer d.stop()
	c := newLoadClient(d.base, "/search", r.env.nproc)
	defer c.close()
	nq := len(r.ds.queries)
	r.warmUp(c, min(4*r.sz.body, nq), against(exp))
	lat := r.openPhase(c, r.sz.latencyRate, 3, r.single(nq, against(exp)))
	for len(lat.p50s) < minWindows || time.Since(start) < r.seconds {
		lat.window()
	}
	r.endToEnd["search_p50_ms"] = quietDecile(lat.p50s, true)
	lat.report("loadgen.search_p99_ms")
	r.indexSize(index, float64(len(r.ds.library)))
	r.toReplay = replayInput{index: index, open: true, exp: exp}
	return nil
}
