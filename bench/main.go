//go:build linux

// Command bench is the repository benchmark (BENCHMARK.json): it
// generates seeded inputs, builds indexes with the real omsbuild,
// drives the real omsd, omsearch and omscompact as subprocesses on
// four workloads, checks every output against an in-process oracle,
// and reports end-to-end metrics from those untraced runs plus
// per-layer metrics from a traced in-process replay of the same
// inputs. See README.md beside this file.
//
//	go run ./bench [-seed N] [-seconds S]         all workloads, writes bench/out/result.json
//	go run ./bench -workload W -seed N -seconds S -trace 0|1
//	                                              one workload, last stdout line is its JSON result
//	go run ./bench -compare a.json b.json         regression check between two result files
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

// metricDef declares one metric of BENCHMARK.json; bound is the share
// of the parent's median an end-to-end metric may worsen by.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEndMetrics and perLayerMetrics are the benchmark's metric
// tables; BENCHMARK.json repeats them and a self-test holds the two
// together. Every workload reports every metric: a per-layer metric
// whose layer is not on a workload's path reports 0 there.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"spectra_per_s", "1/s", "higher", 0.15},
	{"search_p50_ms", "ms", "lower", 0.2},
	{"cpu_ms_per_spectrum", "ms", "lower", 0.15},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

var perLayerMetrics = []metricDef{
	{Name: "spectrum.parse_us", Unit: "us", Better: "lower"},
	{Name: "spectrum.preprocess_us", Unit: "us", Better: "lower"},
	{Name: "spectrum.vectorize_us", Unit: "us", Better: "lower"},
	{Name: "spectrum.skipped_ratio", Unit: "ratio", Better: "lower"},
	{Name: "hdc.encode_us", Unit: "us", Better: "lower"},
	{Name: "hdc.sweep_ns_per_word", Unit: "ns", Better: "lower"},
	{Name: "hdc.sweep_gb_per_s", Unit: "GB/s", Better: "higher"},
	{Name: "hdc.memcpy_gb_per_s", Unit: "GB/s", Better: "higher"},
	{Name: "hdc.rows_per_query", Unit: "count", Better: "lower"},
	{Name: "hdc.rows_swept", Unit: "count", Better: "lower"},
	{Name: "hdc.tier0_prune_rate", Unit: "ratio", Better: "higher"},
	{Name: "hdc.sweep_allocs_per_batch", Unit: "count", Better: "lower"},
	{Name: "core.route_us", Unit: "us", Better: "lower"},
	{Name: "core.merge_us", Unit: "us", Better: "lower"},
	{Name: "core.batch1_us", Unit: "us", Better: "lower"},
	{Name: "core.batch64_us", Unit: "us", Better: "lower"},
	{Name: "core.hidden_refs", Unit: "count", Better: "lower"},
	{Name: "serve.queue_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.batch_size_mean", Unit: "count", Better: "higher"},
	{Name: "serve.rejected_ratio", Unit: "ratio", Better: "lower"},
	{Name: "serve.inproc_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "omsd.edge_ms", Unit: "ms", Better: "lower"},
	{Name: "omsd.ready_ms", Unit: "ms", Better: "lower"},
	{Name: "omsd.reload_ms", Unit: "ms", Better: "lower"},
	{Name: "libindex.open_ms", Unit: "ms", Better: "lower"},
	{Name: "libindex.bytes_per_ref", Unit: "B", Better: "lower"},
	{Name: "libindex.delta_partitions", Unit: "count", Better: "lower"},
	{Name: "libindex.append_s", Unit: "s", Better: "lower"},
	{Name: "libindex.compact_s", Unit: "s", Better: "lower"},
	{Name: "libindex.publish_visible_s", Unit: "s", Better: "lower"},
	{Name: "omsbuild.refs_per_s", Unit: "1/s", Better: "higher"},
	{Name: "omsearch.startup_ms", Unit: "ms", Better: "lower"},
	{Name: "fdr.filter_us_per_psm", Unit: "us", Better: "lower"},
	{Name: "fdr.ids_at_fdr01", Unit: "count", Better: "higher"},
	{Name: "loadgen.search_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.churn_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.over_50ms_ratio", Unit: "ratio", Better: "lower"},
	{Name: "loadgen.late_ms_max", Unit: "ms", Better: "lower"},
	{Name: "loadgen.machine_speed", Unit: "ratio", Better: "higher"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
}

// workloadResult is one workload's section of result.json.
type workloadResult struct {
	Name      string             `json:"name"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	FailRatio float64            `json:"fail_ratio"`
	Problems  []string           `json:"problems,omitempty"`
	EndToEnd  map[string]measure `json:"end_to_end"`
	PerLayer  map[string]measure `json:"per_layer,omitempty"`
}

// resultFile is bench/out/result.json.
type resultFile struct {
	Schema     string           `json:"schema"`
	Commit     string           `json:"commit"`
	GoVersion  string           `json:"go_version"`
	NumCPU     int              `json:"nproc"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	Seed       int64            `json:"seed"`
	Seconds    int              `json:"seconds"`
	Workloads  []workloadResult `json:"workloads"`
}

const resultSchema = "oms-benchmark/1"

// execute runs one workload on freshly generated inputs and folds its
// outcome into the metric tables.
func execute(e *env, w workload, sz sizing, seed int64, seconds time.Duration, traced bool) (workloadResult, error) {
	dir, err := os.MkdirTemp(e.tmp, w.name+"-")
	if err != nil {
		return workloadResult{}, err
	}
	ds, err := generate(dir, seed, sz, e.nproc)
	if err != nil {
		return workloadResult{}, err
	}
	r := &run{env: e, sz: sz, seed: seed, seconds: seconds, dir: dir, ds: ds,
		endToEnd: map[string]measure{}, perLayer: map[string]float64{}, speed: startSpeedometer()}
	err = w.run(r)
	r.speed.close()
	r.perLayer["loadgen.machine_speed"] = r.speed.since(0)
	if err != nil {
		return workloadResult{}, fmt.Errorf("%s: %w", w.name, err)
	}
	if traced {
		if err := r.replay(); err != nil {
			return workloadResult{}, fmt.Errorf("%s: replay: %w", w.name, err)
		}
		if err := r.writeTrace(e.out, w.name); err != nil {
			return workloadResult{}, err
		}
	}
	res := workloadResult{Name: w.name, Attempted: r.attempted, Failed: r.failed,
		FailRatio: float64(r.failed) / float64(max(r.attempted, 1)), Problems: r.problems,
		EndToEnd: map[string]measure{}}
	res.Correct = r.attempted > 0 && r.failed == 0 && len(r.problems) == 0
	for _, def := range endToEndMetrics {
		m, ok := r.endToEnd[def.Name]
		if !ok {
			return res, fmt.Errorf("%s: end-to-end metric %s was not measured", w.name, def.Name)
		}
		m.Unit = def.Unit
		res.EndToEnd[def.Name] = m
	}
	if traced {
		res.PerLayer = map[string]measure{}
		for _, def := range perLayerMetrics {
			res.PerLayer[def.Name] = measure{Value: r.perLayer[def.Name], Unit: def.Unit}
		}
	}
	for name := range r.perLayer {
		if !slices.ContainsFunc(perLayerMetrics, func(d metricDef) bool { return d.Name == name }) {
			return res, fmt.Errorf("%s: per-layer metric %s is not declared", w.name, name)
		}
	}
	return res, nil
}

// printMetrics lists every metric by name with its unit.
func printMetrics(res workloadResult) {
	fmt.Printf("%s: attempted %d, failed %d, correct %t\n", res.Name, res.Attempted, res.Failed, res.Correct)
	for _, p := range res.Problems {
		fmt.Printf("  PROBLEM %s\n", p)
	}
	for _, def := range endToEndMetrics {
		m := res.EndToEnd[def.Name]
		fmt.Printf("  %-28s %14.4f %-5s", def.Name, m.Value, m.Unit)
		if len(m.Windows) > 0 {
			fmt.Printf(" over %d windows %.4g", len(m.Windows), m.Windows)
			if len(m.Raw) > 0 {
				fmt.Printf(" raw %.4g speed %.2f", m.Raw, m.Speed)
			}
		}
		fmt.Println()
	}
	for _, def := range perLayerMetrics {
		if m, ok := res.PerLayer[def.Name]; ok {
			fmt.Printf("  %-28s %14.4f %s\n", def.Name, m.Value, m.Unit)
		}
	}
}

// driverLine is the last stdout line of a single-workload run.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	name := flag.String("workload", "", "run only this workload and print its JSON result as the last line (default: all workloads, write bench/out/result.json)")
	seed := flag.Int64("seed", 1, "input seed; reaches nothing but the generator")
	seconds := flag.Int("seconds", 10, "measured seconds per workload")
	trace := flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 adds the traced replay and reports the per-layer metrics")
	compareMode := flag.Bool("compare", false, "compare two result.json files (arguments: a.json b.json) against the regression bounds")
	flag.Parse()

	if *compareMode {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two result files")
			return 2
		}
		return compare(flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() != 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		return 2
	}

	e, err := newEnv(".", workDir, outDir, runtime.NumCPU())
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	defer e.close()
	defer e.closeOnSignal()()
	span := time.Duration(*seconds) * time.Second

	if *name != "" {
		i := slices.IndexFunc(workloads, func(w workload) bool { return w.name == *name })
		if i < 0 {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		res, err := execute(e, workloads[i], defaultSizing, *seed, span, *trace == 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		printMetrics(res)
		line := driverLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed,
			Metrics: map[string]driverValue{}}
		reported := res.EndToEnd
		if *trace == 1 {
			reported = res.PerLayer
		}
		for k, m := range reported {
			line.Metrics[k] = driverValue{Value: m.Value, Unit: m.Unit}
		}
		raw, err := json.Marshal(line)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		fmt.Println(string(raw))
		if !res.Correct {
			return 1
		}
		return 0
	}

	doc := resultFile{Schema: resultSchema, Commit: commit(), GoVersion: runtime.Version(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Seed: *seed, Seconds: *seconds}
	ok := true
	for _, w := range workloads {
		res, err := execute(e, w, defaultSizing, *seed, span, true)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		printMetrics(res)
		ok = ok && res.Correct
		doc.Workloads = append(doc.Workloads, res)
	}
	raw, err := json.MarshalIndent(doc, "", "  ")
	if err == nil {
		if err = os.MkdirAll(e.out, 0o755); err == nil {
			err = os.WriteFile(filepath.Join(e.out, "result.json"), append(raw, '\n'), 0o644)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	if !ok {
		fmt.Fprintln(os.Stderr, "bench: correctness gate failed")
		return 1
	}
	return 0
}

// commit names the checkout's commit, when it is a git checkout.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
