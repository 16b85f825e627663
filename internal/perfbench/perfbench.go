// Package perfbench runs the repo's canonical performance operating
// points as a tracked trajectory: six benchmarks (sharded full-scan
// batch, exact pruned cascade, entropy-layout ladder vs natural
// order, partitioned fan-out, partitioned with a live delta overlay,
// served micro-batching) measured via
// testing.Benchmark and emitted as one schema-versioned JSON document
// (BENCH_<date>.json). CI runs the quick variant on every push and
// uploads the document as an artifact, so ns/op, allocs/op, per-tier
// pruning rates and serving latency quantiles accumulate a history
// that regressions stand out against.
//
// The operating points are deliberately smaller than the paper-scale
// benchmarks in bench_test.go — a trajectory is only useful when
// every CI run can afford it — but they exercise the same code paths
// at the same shapes (block-major sweep, tier-ladder descent,
// mass-fence routing + exact merge, coalesced serving).
package perfbench

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/hdc"
	"repro/internal/libindex"
	"repro/internal/serve"
	"repro/internal/spectrum"
	"repro/internal/units"
)

// Schema identifies the document layout; bump on incompatible change.
// /2 added per-tier prune rates and the entropy-vs-natural ladder
// point. /3 added the incremental point (deltas-present partitioned
// search) with its overlay shape fields.
const Schema = "oms-bench/3"

// RequiredPoints is the canonical operating-point set; Validate
// rejects a document missing any of them.
var RequiredPoints = []string{"sharded", "cascade", "ladder", "partitioned", "incremental", "served"}

// Point is one operating point's measurement.
type Point struct {
	Name         string  `json:"name"`
	NsPerOp      float64 `json:"ns_per_op"`
	QueriesPerOp int     `json:"queries_per_op"`
	NsPerQuery   float64 `json:"ns_per_query"`
	AllocsPerOp  int64   `json:"allocs_per_op"`
	BytesPerOp   int64   `json:"bytes_per_op"`

	// PruneRate is the cascade's measured end-to-end pruning fraction
	// over the benchmark run; present only for the cascade points.
	PruneRate *float64 `json:"prune_rate,omitempty"`

	// TierPruneRates[t] is the measured fraction of tier-t rows pruned
	// before tier t+1 (one entry per non-final ladder tier); present
	// only for the cascade points.
	TierPruneRates []float64 `json:"tier_prune_rates,omitempty"`

	// Ladder-point comparison against the natural-order baseline at
	// the same tier budget: wall-clock speedup (natural ns / entropy
	// ns) and the baseline's per-tier prune rates.
	SpeedupVsNatural      *float64  `json:"speedup_vs_natural,omitempty"`
	NaturalTierPruneRates []float64 `json:"natural_tier_prune_rates,omitempty"`

	// Overlay shape for the incremental point: live delta partitions
	// and rows shadowed by tombstones or newer re-additions at
	// measurement time — the work the dedup merge pays for on top of
	// the plain partitioned sweep.
	DeltaPartitions *int   `json:"delta_partitions,omitempty"`
	HiddenRefs      *int64 `json:"hidden_refs,omitempty"`

	// Latency quantiles from the serving collector; present only for
	// the served point.
	LatencyP50US *int64 `json:"latency_p50_us,omitempty"`
	LatencyP99US *int64 `json:"latency_p99_us,omitempty"`
}

// Doc is one benchmark run: environment identity plus the measured
// operating points.
type Doc struct {
	Schema      string  `json:"schema"`
	GeneratedAt string  `json:"generated_at"`
	GoVersion   string  `json:"go_version"`
	GOOS        string  `json:"goos"`
	GOARCH      string  `json:"goarch"`
	NumCPU      int     `json:"num_cpu"`
	Quick       bool    `json:"quick"`
	Points      []Point `json:"points"`
}

// Options configures a run.
type Options struct {
	// Quick shrinks the reference sets ~5x for CI smoke runs; the
	// document records which variant produced it.
	Quick bool
}

// sizes returns the operating-point shape for the run variant.
func sizes(o Options) (nRefs, nQueries, k, prefilterWords int) {
	nRefs = 20_000
	if o.Quick {
		nRefs = 4_000
	}
	return nRefs, 32, 5, 4
}

// benchD is the hypervector dimension for every operating point —
// small enough for CI, large enough that the packed store (nRefs ×
// D/64 words) streams through the blocked kernel rather than sitting
// in L2.
const benchD = 2048

// Run measures all four operating points and assembles the document.
func Run(o Options) (*Doc, error) {
	doc := &Doc{
		Schema:      Schema,
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		NumCPU:      runtime.NumCPU(),
		Quick:       o.Quick,
	}
	for _, run := range []func(Options) (Point, error){
		runSharded, runCascade, runLadder, runPartitioned, runIncremental, runServed,
	} {
		pt, err := run(o)
		if err != nil {
			return nil, err
		}
		doc.Points = append(doc.Points, pt)
	}
	return doc, nil
}

// point converts a benchmark result into the wire shape.
func point(name string, r testing.BenchmarkResult, nQueries int) Point {
	ns := float64(r.NsPerOp())
	return Point{
		Name:         name,
		NsPerOp:      ns,
		QueriesPerOp: nQueries,
		NsPerQuery:   ns / float64(nQueries),
		AllocsPerOp:  r.AllocsPerOp(),
		BytesPerOp:   r.AllocedBytesPerOp(),
	}
}

// benchHVs builds a deterministic reference set and query batch.
func benchHVs(nRefs, nQueries int) ([]hdc.BinaryHV, []hdc.BinaryHV) {
	rng := rand.New(rand.NewSource(11))
	refs := make([]hdc.BinaryHV, nRefs)
	for i := range refs {
		refs[i] = hdc.RandomBinaryHV(benchD, rng)
	}
	queries := make([]hdc.BinaryHV, nQueries)
	for i := range queries {
		queries[i] = hdc.RandomBinaryHV(benchD, rng)
	}
	return refs, queries
}

// runSharded measures the block-major batch kernel on full scans —
// every query's range is [0, Len()) — so each cache-resident row
// block is swept by the whole batch.
func runSharded(o Options) (Point, error) {
	nRefs, nQueries, k, _ := sizes(o)
	refs, queries := benchHVs(nRefs, nQueries)
	s, err := hdc.NewShardedSearcher(refs, 0, hdc.CascadeConfig{})
	if err != nil {
		return Point{}, fmt.Errorf("perfbench sharded: %v", err)
	}
	ranges := make([]hdc.RowRange, nQueries)
	for i := range ranges {
		ranges[i] = hdc.RowRange{Lo: 0, Hi: s.Len()}
	}
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.BatchTopKRange(queries, ranges, k)
		}
	})
	return point("sharded", r, nQueries), nil
}

// runCascade measures the exact two-tier pruned cascade on the
// workload shape it exists for: each query's window holds planted
// near matches (3% bit flips) at the window start, so the running
// k-th-best bound tightens early and prunes tier-B completions.
func runCascade(o Options) (Point, error) {
	nRefs, nQueries, k, prefilterWords := sizes(o)
	refs, queries := benchHVs(nRefs, nQueries)
	rng := rand.New(rand.NewSource(13))
	width := nRefs / 4
	ranges := make([]hdc.RowRange, nQueries)
	for i := range ranges {
		lo := i * (nRefs - width) / nQueries
		ranges[i] = hdc.RowRange{Lo: lo, Hi: lo + width}
		for j := 0; j < k; j++ {
			refs[lo+j] = queries[i].Clone()
			refs[lo+j].FlipBits(0.03, rng)
		}
	}
	s, err := hdc.NewShardedSearcher(refs, 0, hdc.CascadeConfig{Tiers: []int{prefilterWords}})
	if err != nil {
		return Point{}, fmt.Errorf("perfbench cascade: %v", err)
	}
	before, _ := s.CascadeStats()
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.BatchTopKRange(queries, ranges, k)
		}
	})
	after, _ := s.CascadeStats()
	pt := point("cascade", r, nQueries)
	delta := after.Sub(before)
	rate := delta.PruneRate()
	pt.PruneRate = &rate
	pt.TierPruneRates = tierPruneRates(delta)
	return pt, nil
}

// tierPruneRates extracts the per-tier prune-rate vector (one entry
// per non-final tier; nil for a single-tier layout).
func tierPruneRates(cs hdc.CascadeStats) []float64 {
	if cs.NumTiers() < 2 {
		return nil
	}
	out := make([]float64, cs.NumTiers()-1)
	for t := range out {
		out[t] = cs.TierPruneRate(t)
	}
	return out
}

// skewedHVs builds a reference set and query batch over a
// dimension-heterogeneous distribution: even dimensions are heavily
// skewed (ones with probability 0.02, nearly constant across the
// set), odd dimensions balanced. Interleaving them means every
// natural-order packed word is half wasted on near-constant bits —
// the workload shape the entropy layout exists for.
func skewedHVs(nRefs, nQueries int) ([]hdc.BinaryHV, []hdc.BinaryHV) {
	rng := rand.New(rand.NewSource(23))
	gen := func() hdc.BinaryHV {
		hv := hdc.NewBinaryHV(benchD)
		for j := 0; j < benchD; j++ {
			p := 0.5
			if j%2 == 0 {
				p = 0.02
			}
			if rng.Float64() < p {
				hv.SetBit(j, true)
			}
		}
		return hv
	}
	refs := make([]hdc.BinaryHV, nRefs)
	for i := range refs {
		refs[i] = gen()
	}
	queries := make([]hdc.BinaryHV, nQueries)
	for i := range queries {
		queries[i] = gen()
	}
	return refs, queries
}

// runLadder measures the entropy-guided bit layout against the
// natural order at the same tier budget, on the dim-skewed workload:
// both sides run the identical tier ladder and planted-match ranges;
// the entropy side additionally permutes references and queries so
// the discriminative dimensions pack into tier 0. The emitted point
// is the entropy side, carrying the wall-clock speedup and both
// prune-rate vectors.
func runLadder(o Options) (Point, error) {
	nRefs, nQueries, k, prefilterWords := sizes(o)
	refs, queries := skewedHVs(nRefs, nQueries)
	rng := rand.New(rand.NewSource(29))
	width := nRefs / 4
	ranges := make([]hdc.RowRange, nQueries)
	for i := range ranges {
		lo := i * (nRefs - width) / nQueries
		ranges[i] = hdc.RowRange{Lo: lo, Hi: lo + width}
		for j := 0; j < k; j++ {
			refs[lo+j] = queries[i].Clone()
			refs[lo+j].FlipBits(0.03, rng)
		}
	}
	tiers := []int{prefilterWords, hdc.WordsPerHV(benchD) - prefilterWords}

	perm := hdc.EntropyPermutation(refs)
	prefs := make([]hdc.BinaryHV, len(refs))
	for i := range refs {
		prefs[i] = hdc.PermuteBits(refs[i], perm)
	}
	pqueries := make([]hdc.BinaryHV, len(queries))
	for i := range queries {
		pqueries[i] = hdc.PermuteBits(queries[i], perm)
	}

	measure := func(rs, qs []hdc.BinaryHV) (testing.BenchmarkResult, hdc.CascadeStats, error) {
		s, err := hdc.NewShardedSearcher(rs, 0, hdc.CascadeConfig{Tiers: tiers})
		if err != nil {
			return testing.BenchmarkResult{}, hdc.CascadeStats{}, err
		}
		before, _ := s.CascadeStats()
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.BatchTopKRange(qs, ranges, k)
			}
		})
		after, _ := s.CascadeStats()
		return r, after.Sub(before), nil
	}

	natR, natStats, err := measure(refs, queries)
	if err != nil {
		return Point{}, fmt.Errorf("perfbench ladder (natural): %v", err)
	}
	entR, entStats, err := measure(prefs, pqueries)
	if err != nil {
		return Point{}, fmt.Errorf("perfbench ladder (entropy): %v", err)
	}

	pt := point("ladder", entR, nQueries)
	rate := entStats.PruneRate()
	pt.PruneRate = &rate
	pt.TierPruneRates = tierPruneRates(entStats)
	speedup := float64(natR.NsPerOp()) / float64(entR.NsPerOp())
	pt.SpeedupVsNatural = &speedup
	pt.NaturalTierPruneRates = tierPruneRates(natStats)
	return pt, nil
}

// benchLibrary builds a mass-ordered library over random HVs: masses
// lie uniformly on [500, 1500] Da so open-search windows select
// realistic contiguous candidate ranges.
func benchLibrary(nRefs int, rng *rand.Rand) (*core.Library, []hdc.BinaryHV, error) {
	hvs := make([]hdc.BinaryHV, nRefs)
	entries := make([]core.LibraryEntry, nRefs)
	srcPos := make([]int, nRefs)
	const massLo, massHi = 500.0, 1500.0
	for i := range hvs {
		hvs[i] = hdc.RandomBinaryHV(benchD, rng)
		entries[i] = core.LibraryEntry{
			ID:      fmt.Sprintf("ref-%d", i),
			Peptide: fmt.Sprintf("PEP%d", i),
			IsDecoy: i%4 == 3,
			Mass:    massLo + (massHi-massLo)*float64(i)/float64(nRefs),
		}
		srcPos[i] = i
	}
	lib, err := core.RestoreLibrary(entries, hvs, srcPos, 0)
	return lib, hvs, err
}

// runPartitioned measures the partitioned engine: mass-fence routing,
// per-partition batched sweeps and the exact per-query merge, over a
// 3-partition split of the same library shape.
func runPartitioned(o Options) (Point, error) {
	nRefs, nQueries, k, _ := sizes(o)
	rng := rand.New(rand.NewSource(17))
	lib, hvs, err := benchLibrary(nRefs, rng)
	if err != nil {
		return Point{}, fmt.Errorf("perfbench partitioned: %v", err)
	}
	p := core.DefaultParams()
	p.Accel.D = benchD
	p.TopK = k

	// Split into 3 contiguous mass slices; entries are already
	// mass-ordered, so each slice is a valid partition.
	const nParts = 3
	set := core.PartitionSet{Generation: 1}
	for pi := 0; pi < nParts; pi++ {
		lo := pi * nRefs / nParts
		hi := (pi + 1) * nRefs / nParts
		srcPos := make([]int, hi-lo)
		for i := range srcPos {
			srcPos[i] = i
		}
		plib, err := core.RestoreLibrary(lib.Entries[lo:hi], hvs[lo:hi], srcPos, 0)
		if err != nil {
			return Point{}, fmt.Errorf("perfbench partitioned: slice %d: %v", pi, err)
		}
		set.Specs = append(set.Specs, core.PartitionSpec{Lib: plib, Gen: 1, GenRow: lo})
	}
	pe, _, err := core.NewPartitionedEngine(p, set)
	if err != nil {
		return Point{}, fmt.Errorf("perfbench partitioned: %v", err)
	}

	queries := make([]core.PreparedQuery, nQueries)
	for qi := range queries {
		ri := rng.Intn(nRefs)
		hv := hvs[ri].Clone()
		hv.FlipBits(0.02, rng)
		mass := lib.Entries[ri].Mass + -140 + rng.Float64()*620
		lo, hi := lib.CandidateRange(mass, p.Window)
		queries[qi] = core.PreparedQuery{QueryID: fmt.Sprintf("q-%d", qi), HV: hv, Mass: mass, Lo: lo, Hi: hi}
	}

	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pe.SearchPrepared(queries)
		}
	})
	return point("partitioned", r, nQueries), nil
}

// runIncremental measures the partitioned engine with a live delta
// overlay — the state omsd serves between an omsbuild -append and the
// next compaction. The same library shape as the partitioned point is
// published incrementally through a real on-disk manifest: 90% as the
// base build, the rest appended as delta partitions whose fences
// overlap the base, plus a slice of base ids retracted and re-added
// so the merge pays for tombstone and shadowed-row dedup. The gap to
// the partitioned point is the standing cost of deferred compaction.
func runIncremental(o Options) (Point, error) {
	nRefs, nQueries, k, _ := sizes(o)
	rng := rand.New(rand.NewSource(23))
	lib, hvs, err := benchLibrary(nRefs, rng)
	if err != nil {
		return Point{}, fmt.Errorf("perfbench incremental: %v", err)
	}
	p := core.DefaultParams()
	p.Accel.D = benchD
	p.TopK = k

	dir, err := os.MkdirTemp("", "perfbench-incr-")
	if err != nil {
		return Point{}, fmt.Errorf("perfbench incremental: %v", err)
	}
	defer os.RemoveAll(dir)
	manifest := filepath.Join(dir, "lib.manifest")

	seq := func(n int) []int {
		s := make([]int, n)
		for i := range s {
			s[i] = i
		}
		return s
	}
	nBase := nRefs * 9 / 10
	nChurn := nRefs / 50
	churnLo := nBase / 2
	baseLib, err := core.RestoreLibrary(lib.Entries[:nBase], hvs[:nBase], seq(nBase), 0)
	if err != nil {
		return Point{}, fmt.Errorf("perfbench incremental: %v", err)
	}
	if err := libindex.SavePartitioned(manifest, p, baseLib, 3); err != nil {
		return Point{}, fmt.Errorf("perfbench incremental: %v", err)
	}
	var churn []string
	known := make(map[string]bool, nChurn)
	for _, e := range lib.Entries[churnLo : churnLo+nChurn] {
		churn = append(churn, e.ID)
		known[e.ID] = true
	}
	st, err := libindex.LoadManifestLog(manifest)
	if err != nil {
		return Point{}, fmt.Errorf("perfbench incremental: %v", err)
	}
	if _, err := libindex.AppendRetract(manifest, st, churn, known); err != nil {
		return Point{}, fmt.Errorf("perfbench incremental: %v", err)
	}
	dEntries := append(append([]core.LibraryEntry{}, lib.Entries[churnLo:churnLo+nChurn]...), lib.Entries[nBase:]...)
	dHVs := append(append([]hdc.BinaryHV{}, hvs[churnLo:churnLo+nChurn]...), hvs[nBase:]...)
	dLib, err := core.RestoreLibrary(dEntries, dHVs, seq(len(dEntries)), 0)
	if err != nil {
		return Point{}, fmt.Errorf("perfbench incremental: %v", err)
	}
	if st, err = libindex.LoadManifestLog(manifest); err != nil {
		return Point{}, fmt.Errorf("perfbench incremental: %v", err)
	}
	if _, err := libindex.AppendDelta(manifest, st, dLib, (len(dEntries)+2)/3); err != nil {
		return Point{}, fmt.Errorf("perfbench incremental: %v", err)
	}
	pi, err := libindex.OpenManifest(manifest)
	if err != nil {
		return Point{}, fmt.Errorf("perfbench incremental: %v", err)
	}
	defer pi.Close()
	pe, _, err := core.NewPartitionedEngine(pi.Params, pi.PartitionSet())
	if err != nil {
		return Point{}, fmt.Errorf("perfbench incremental: %v", err)
	}
	ov := pe.OverlayStats()
	if ov.DeltaPartitions == 0 || ov.Tombstones == 0 || ov.HiddenRefs == 0 {
		return Point{}, fmt.Errorf("perfbench incremental: fixture carries no overlay work: %+v", ov)
	}

	queries := make([]core.PreparedQuery, nQueries)
	for qi := range queries {
		ri := rng.Intn(nRefs)
		hv := hvs[ri].Clone()
		hv.FlipBits(0.02, rng)
		mass := lib.Entries[ri].Mass + -140 + rng.Float64()*620
		lo, hi := lib.CandidateRange(mass, p.Window)
		queries[qi] = core.PreparedQuery{QueryID: fmt.Sprintf("q-%d", qi), HV: hv, Mass: mass, Lo: lo, Hi: hi}
	}

	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pe.SearchPrepared(queries)
		}
	})
	pt := point("incremental", r, nQueries)
	dp := ov.DeltaPartitions
	hidden := int64(ov.HiddenRefs)
	pt.DeltaPartitions = &dp
	pt.HiddenRefs = &hidden
	return pt, nil
}

// runServed measures the serving layer: a client fleet routed through
// the micro-batcher, one block-major sweep per flushed batch, with
// the latency quantiles the collector measured over the run.
func runServed(o Options) (Point, error) {
	nRefs, nQueries, k, _ := sizes(o)
	rng := rand.New(rand.NewSource(19))
	lib, _, err := benchLibrary(nRefs, rng)
	if err != nil {
		return Point{}, fmt.Errorf("perfbench served: %v", err)
	}
	p := core.DefaultParams()
	p.Accel.D = benchD
	p.TopK = k
	engine, _, err := core.NewExactEngineFromLibrary(p, lib)
	if err != nil {
		return Point{}, fmt.Errorf("perfbench served: %v", err)
	}

	queries := make([]*spectrum.Spectrum, nQueries)
	for i := range queries {
		mass := 700 + 600*rng.Float64()
		s := &spectrum.Spectrum{
			ID:          fmt.Sprintf("q-%d", i),
			Charge:      2,
			PrecursorMZ: units.NeutralMassToMZ(mass, 2),
		}
		for pk := 0; pk < 40; pk++ {
			s.Peaks = append(s.Peaks, spectrum.Peak{
				MZ:        150 + 1250*rng.Float64(),
				Intensity: 10 + 990*rng.Float64(),
			})
		}
		s.SortPeaks()
		queries[i] = s
	}

	const clients = 16
	srv, err := serve.New(engine, serve.Config{
		MaxBatch: clients,
		MaxQueue: 4 * clients,
	})
	if err != nil {
		return Point{}, fmt.Errorf("perfbench served: %v", err)
	}
	defer srv.Close()

	var benchErr error
	var errOnce sync.Once
	ctx := context.Background()
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		work := make(chan *spectrum.Spectrum, clients)
		var wg sync.WaitGroup
		for w := 0; w < clients; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for q := range work {
					if _, _, err := srv.Search(ctx, q); err != nil {
						errOnce.Do(func() { benchErr = err })
					}
				}
			}()
		}
		for i := 0; i < b.N; i++ {
			work <- queries[i%len(queries)]
		}
		close(work)
		wg.Wait()
	})
	if benchErr != nil {
		return Point{}, fmt.Errorf("perfbench served: %v", benchErr)
	}
	st := srv.Stats()
	// ns/op here is per query (each op submits one), so QueriesPerOp
	// is 1 and NsPerQuery equals NsPerOp.
	pt := point("served", r, 1)
	p50 := st.LatencyP50.Microseconds()
	p99 := st.LatencyP99.Microseconds()
	pt.LatencyP50US = &p50
	pt.LatencyP99US = &p99
	return pt, nil
}

// Marshal renders the document as indented JSON with a trailing
// newline.
func (d *Doc) Marshal() ([]byte, error) {
	data, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// FileName derives the canonical BENCH_<date>.json name from the
// document's generation timestamp.
func (d *Doc) FileName() string {
	date := d.GeneratedAt
	if t, err := time.Parse(time.RFC3339, d.GeneratedAt); err == nil {
		date = t.UTC().Format("2006-01-02")
	}
	return fmt.Sprintf("BENCH_%s.json", date)
}

// WriteFile writes the document into dir under its canonical name and
// returns the path written.
func (d *Doc) WriteFile(dir string) (string, error) {
	data, err := d.Marshal()
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, d.FileName())
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// Validate checks that data is a well-formed trajectory document:
// current schema, parseable timestamp, and every required operating
// point present with sane measurements. CI runs this against the
// artifact it just emitted, so a schema drift fails the build instead
// of silently corrupting the trajectory.
func Validate(data []byte) error {
	var d Doc
	if err := json.Unmarshal(data, &d); err != nil {
		return fmt.Errorf("perfbench: parsing document: %v", err)
	}
	if d.Schema != Schema {
		return fmt.Errorf("perfbench: schema %q, want %q", d.Schema, Schema)
	}
	if _, err := time.Parse(time.RFC3339, d.GeneratedAt); err != nil {
		return fmt.Errorf("perfbench: generated_at %q is not RFC 3339: %v", d.GeneratedAt, err)
	}
	if d.GoVersion == "" || d.GOOS == "" || d.GOARCH == "" {
		return fmt.Errorf("perfbench: missing environment identity (go_version/goos/goarch)")
	}
	if d.NumCPU < 1 {
		return fmt.Errorf("perfbench: num_cpu %d", d.NumCPU)
	}
	byName := make(map[string]*Point, len(d.Points))
	for i := range d.Points {
		pt := &d.Points[i]
		if _, dup := byName[pt.Name]; dup {
			return fmt.Errorf("perfbench: duplicate point %q", pt.Name)
		}
		byName[pt.Name] = pt
	}
	for _, name := range RequiredPoints {
		pt, ok := byName[name]
		if !ok {
			return fmt.Errorf("perfbench: missing operating point %q", name)
		}
		if pt.NsPerOp <= 0 || pt.NsPerQuery <= 0 {
			return fmt.Errorf("perfbench: point %q: non-positive timing (ns_per_op=%g, ns_per_query=%g)", name, pt.NsPerOp, pt.NsPerQuery)
		}
		if pt.QueriesPerOp < 1 {
			return fmt.Errorf("perfbench: point %q: queries_per_op %d", name, pt.QueriesPerOp)
		}
		if pt.AllocsPerOp < 0 || pt.BytesPerOp < 0 {
			return fmt.Errorf("perfbench: point %q: negative allocation counts", name)
		}
	}
	for _, name := range []string{"cascade", "ladder"} {
		pt := byName[name]
		if pt.PruneRate == nil {
			return fmt.Errorf("perfbench: %s point missing prune_rate", name)
		}
		if *pt.PruneRate < 0 || *pt.PruneRate > 1 {
			return fmt.Errorf("perfbench: %s prune_rate %g outside [0, 1]", name, *pt.PruneRate)
		}
		if len(pt.TierPruneRates) == 0 {
			return fmt.Errorf("perfbench: %s point missing tier_prune_rates", name)
		}
		for t, r := range pt.TierPruneRates {
			if r < 0 || r > 1 {
				return fmt.Errorf("perfbench: %s tier_prune_rates[%d] = %g outside [0, 1]", name, t, r)
			}
		}
	}
	ladder := byName["ladder"]
	if ladder.SpeedupVsNatural == nil || *ladder.SpeedupVsNatural <= 0 {
		return fmt.Errorf("perfbench: ladder point missing (or non-positive) speedup_vs_natural")
	}
	if len(ladder.NaturalTierPruneRates) == 0 {
		return fmt.Errorf("perfbench: ladder point missing natural_tier_prune_rates")
	}
	incr := byName["incremental"]
	if incr.DeltaPartitions == nil || *incr.DeltaPartitions < 1 {
		return fmt.Errorf("perfbench: incremental point missing (or non-positive) delta_partitions")
	}
	if incr.HiddenRefs == nil || *incr.HiddenRefs < 1 {
		return fmt.Errorf("perfbench: incremental point missing (or non-positive) hidden_refs")
	}
	served := byName["served"]
	if served.LatencyP50US == nil || served.LatencyP99US == nil {
		return fmt.Errorf("perfbench: served point missing latency quantiles")
	}
	if *served.LatencyP50US < 0 || *served.LatencyP99US < *served.LatencyP50US {
		return fmt.Errorf("perfbench: served latency quantiles inconsistent (p50=%dus, p99=%dus)", *served.LatencyP50US, *served.LatencyP99US)
	}
	return nil
}
