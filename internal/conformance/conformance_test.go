// Package conformance is the single cross-path search oracle: one
// table-driven suite asserting that every way of reaching the one
// block-major range sweep — a query alone as a batch of one, a whole
// batch, the batch reversed, traced and untraced, through the engine
// over one partition, over a real mmap-backed manifest's partitions,
// and the request-coalescing serving layer — returns bit-identical
// top-k lists over randomized D/shard/k/partition-count workloads with
// planted near-matches. It replaces the earlier per-path parity tests: a new
// route to the sweep earns its keep by joining this table, not by
// shipping its own ad-hoc comparison.
package conformance

import (
	"context"
	"fmt"
	"math/bits"
	"math/rand"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/fdr"
	"repro/internal/hdc"
	"repro/internal/libindex"
	"repro/internal/obsv"
	"repro/internal/serve"
)

// workload is one randomized configuration of the conformance matrix.
type workload struct {
	name     string
	d        int
	shard    int
	k        int
	nRefs    int
	nQueries int
	parts    []int // partition counts to cross-check
	seed     int64
}

// The cascade-, ladder- and entropy- workloads keep the names they had
// while they also ran the deleted K-tier ladder and entropy bit layout;
// each now runs the one sweep over its own geometry and seed.
var workloads = []workload{
	{name: "flat", d: 512, shard: 64, k: 5, nRefs: 600, nQueries: 40, parts: []int{1, 2, 3, 7}, seed: 1},
	{name: "cascade-exact", d: 1024, shard: 100, k: 3, nRefs: 900, nQueries: 40, parts: []int{2, 3}, seed: 2},
	// d % 64 != 0: every row's last word carries masked tail bits.
	{name: "tail-mask", d: 1000, shard: 0, k: 7, nRefs: 500, nQueries: 30, parts: []int{1, 3, 7}, seed: 3},
	{name: "tiny-k-over", d: 256, shard: 16, k: 10, nRefs: 64, nQueries: 20, parts: []int{1, 7}, seed: 4},
	{name: "cascade-wide-prefilter", d: 512, shard: 48, k: 4, nRefs: 500, nQueries: 30, parts: []int{2}, seed: 6},
	{name: "cascade-degenerate-fallback", d: 512, shard: 64, k: 5, nRefs: 400, nQueries: 20, parts: []int{1, 2}, seed: 7},
	{name: "ladder-k3", d: 1024, shard: 96, k: 5, nRefs: 800, nQueries: 40, parts: []int{2, 5}, seed: 8},
	{name: "ladder-k4-entropy", d: 1024, shard: 64, k: 3, nRefs: 700, nQueries: 40, parts: []int{1, 3}, seed: 9},
	{name: "entropy-flat", d: 512, shard: 32, k: 5, nRefs: 500, nQueries: 30, parts: []int{2}, seed: 10},
	// A second masked-tail geometry: one shard, k=4, three partitions.
	{name: "ladder-entropy-tail-mask", d: 1000, shard: 0, k: 4, nRefs: 400, nQueries: 30, parts: []int{3}, seed: 11},
}

// fixture is one workload's generated library and query set.
type fixture struct {
	p       core.Params
	lib     *core.Library
	refs    []hdc.BinaryHV // mass-rank order, stored layout, the oracle's view
	queries []core.PreparedQuery
}

// buildFixture generates the synthetic mass-sorted library (equal-mass
// tie runs included) and a query set dominated by planted near-matches
// — clones of library rows with a few bits flipped, placed at masses
// inside the open window — plus random and out-of-window queries.
func buildFixture(t *testing.T, w workload) *fixture {
	t.Helper()
	rng := rand.New(rand.NewSource(w.seed))
	entries := make([]core.LibraryEntry, w.nRefs)
	refs := make([]hdc.BinaryHV, w.nRefs)
	for i := range entries {
		entries[i] = core.LibraryEntry{
			ID:      fmt.Sprintf("ref-%d", i),
			Peptide: fmt.Sprintf("PEP%d", i),
			IsDecoy: i%4 == 3,
			// Runs of three share a mass, so ties cross shard and
			// partition boundaries.
			Mass: 500 + float64(i/3)*0.91,
		}
		refs[i] = hdc.RandomBinaryHV(w.d, rng)
	}
	lib, err := core.RestoreLibrary(entries, refs, rng.Perm(w.nRefs), 0)
	if err != nil {
		t.Fatal(err)
	}
	p := core.DefaultParams()
	p.Accel.D = w.d
	p.Accel.NumChunks = max(w.d/32, 32)
	p.ShardSize = w.shard
	p.TopK = w.k

	queries := make([]core.PreparedQuery, w.nQueries)
	for qi := range queries {
		var hv hdc.BinaryHV
		var mass float64
		switch {
		case qi%5 == 4: // random hypervector, random in-window mass
			hv = hdc.RandomBinaryHV(w.d, rng)
			mass = 500 + rng.Float64()*float64(w.nRefs)
		case qi%7 == 6: // out-of-window: empty candidate range
			hv = hdc.RandomBinaryHV(w.d, rng)
			mass = 99999
		default: // planted near-match: a ref with a few flipped bits
			r := rng.Intn(w.nRefs)
			hv = refs[r].Clone()
			for f := 0; f < 1+qi%17; f++ {
				i := rng.Intn(w.d)
				hv.SetBit(i, hv.Bit(i) < 0)
			}
			mass = entries[r].Mass + -140 + rng.Float64()*620 // window [-150, 500]
		}
		lo, hi := lib.CandidateRange(mass, p.Window)
		queries[qi] = core.PreparedQuery{
			QueryID: fmt.Sprintf("q-%d", qi),
			HV:      hv,
			Mass:    mass,
			Lo:      lo,
			Hi:      hi,
		}
	}
	return &fixture{p: p, lib: lib, refs: refs, queries: queries}
}

// hamming is the oracle's independent distance: explicit XOR+popcount
// over a word span, no shared kernel code.
func hamming(a, b []uint64) int {
	d := 0
	for i := range a {
		d += bits.OnesCount64(a[i] ^ b[i])
	}
	return d
}

// rankBefore is the system-wide result order: similarity descending,
// ties by ascending index.
func rankBefore(a, b hdc.Match) bool {
	if a.Similarity != b.Similarity {
		return a.Similarity > b.Similarity
	}
	return a.Index < b.Index
}

// rangeIndices expands [lo, hi) clamped to [0, n) — empty (nil) for
// inverted or fully out-of-bounds ranges, matching RowRange.Clamp.
func rangeIndices(lo, hi, n int) []int {
	lo = max(lo, 0)
	hi = min(hi, n)
	var out []int
	for i := lo; i < hi; i++ {
		out = append(out, i)
	}
	return out
}

// oracleOver is the independent flat-scan reference over an explicit
// valid-index set: score, sort, take k.
func (fx *fixture) oracleOver(hv hdc.BinaryHV, indices []int, k int) []hdc.Match {
	var all []hdc.Match
	for _, i := range indices {
		all = append(all, hdc.Match{Index: i, Similarity: fx.p.Accel.D - hamming(hv.Words, fx.refs[i].Words)})
	}
	sort.Slice(all, func(a, b int) bool { return rankBefore(all[a], all[b]) })
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// wantPSM derives the expected PSM from an oracle list, mirroring the
// engines' score normalization and metadata lookup.
func (fx *fixture) wantPSM(q core.PreparedQuery, top []hdc.Match) (fdr.PSM, bool) {
	if len(top) == 0 {
		return fdr.PSM{}, false
	}
	e := fx.lib.Entries[top[0].Index]
	return fdr.PSM{
		QueryID:   q.QueryID,
		Peptide:   e.Peptide,
		Score:     float64(top[0].Similarity) / float64(fx.p.Accel.D),
		IsDecoy:   e.IsDecoy,
		MassShift: q.Mass - e.Mass,
	}, true
}

// assertMatches fails unless got reproduces want bit for bit.
func assertMatches(t *testing.T, path string, qi int, got, want []hdc.Match) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: query %d returned %d matches, oracle has %d\ngot  %v\nwant %v",
			path, qi, len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: query %d match %d = %+v, oracle says %+v\ngot  %v\nwant %v",
				path, qi, i, got[i], want[i], got, want)
		}
	}
}

// assertOnePath drives the searcher's one entry point three ways — the
// whole batch, the batch reversed, every query alone as a batch of one
// — untraced and traced, and fails unless each reproduces the oracle.
func assertOnePath(t *testing.T, name string, s *hdc.ShardedSearcher, hvs []hdc.BinaryHV, ranges []hdc.RowRange, k int, oracle [][]hdc.Match) {
	t.Helper()
	last := len(hvs) - 1
	revHVs := make([]hdc.BinaryHV, len(hvs))
	revRanges := make([]hdc.RowRange, len(ranges))
	for i := range hvs {
		revHVs[last-i], revRanges[last-i] = hvs[i], ranges[i]
	}
	for _, tr := range []*obsv.Trace{nil, new(obsv.Trace)} {
		label := name
		if tr != nil {
			label += " traced"
		}
		sweep := func(hvs []hdc.BinaryHV, ranges []hdc.RowRange) [][]hdc.Match {
			out, err := s.Search(context.Background(), hvs, ranges, k, tr)
			if err != nil {
				t.Fatal(err)
			}
			return out
		}
		for qi, got := range sweep(hvs, ranges) {
			assertMatches(t, label+" batch", qi, got, oracle[qi])
		}
		for ri, got := range sweep(revHVs, revRanges) {
			assertMatches(t, label+" batch reversed", last-ri, got, oracle[last-ri])
		}
		for qi := range hvs {
			got := sweep(hvs[qi:qi+1], ranges[qi:qi+1])
			assertMatches(t, label+" batch of one", qi, got[0], oracle[qi])
		}
	}
}

// search is an uncancellable Search.
func search(t testing.TB, e *core.Engine, qs []core.PreparedQuery, tr *obsv.Trace) []core.SearchResult {
	t.Helper()
	res, err := e.Search(context.Background(), qs, tr)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// assertEngine drives Engine.Search with the whole batch and with every
// query alone, untraced and traced, and fails unless each result's
// top-k list is the oracle's and its PSM is that list's head.
func (fx *fixture) assertEngine(t *testing.T, name string, e *core.Engine, oracle [][]hdc.Match) {
	t.Helper()
	check := func(label string, qi int, r core.SearchResult) {
		t.Helper()
		assertMatches(t, label, qi, r.Top, oracle[qi])
		wantPSM, wantOK := fx.wantPSM(fx.queries[qi], oracle[qi])
		if ok := len(r.Top) > 0; ok != wantOK || (wantOK && r.PSM != wantPSM) {
			t.Fatalf("%s: query %d = %+v ok=%v, oracle %+v ok=%v", label, qi, r.PSM, ok, wantPSM, wantOK)
		}
	}
	for _, tr := range []*obsv.Trace{nil, new(obsv.Trace)} {
		label := name
		if tr != nil {
			label += " traced"
		}
		for qi, r := range search(t, e, fx.queries, tr) {
			check(label+" batch", qi, r)
		}
		for qi := range fx.queries {
			check(label+" batch of one", qi, search(t, e, fx.queries[qi:qi+1], tr)[0])
		}
	}
}

// TestConformance is the matrix: for every workload, every search path
// must reproduce the oracle's top-k bit for bit.
func TestConformance(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			fx := buildFixture(t, w)
			n := fx.lib.Len()
			oracle := make([][]hdc.Match, len(fx.queries))
			for qi, q := range fx.queries {
				oracle[qi] = fx.oracleOver(q.HV, rangeIndices(q.Lo, q.Hi, n), w.k)
			}

			searcher, err := hdc.NewShardedSearcher(fx.p.Accel.D, w.shard, nil, nil, fx.lib.Rows())
			if err != nil {
				t.Fatal(err)
			}

			// Searcher level: the one sweep, reached as the whole batch,
			// the batch reversed, and every query alone as a batch of one
			// — each untraced and traced (attaching a stage trace must not
			// change a single result bit on any workload).
			hvs := make([]hdc.BinaryHV, len(fx.queries))
			ranges := make([]hdc.RowRange, len(fx.queries))
			for qi, q := range fx.queries {
				hvs[qi] = q.HV
				ranges[qi] = hdc.RowRange{Lo: q.Lo, Hi: q.Hi}
			}
			assertOnePath(t, "workload", searcher, hvs, ranges, w.k, oracle)

			// Edge geometry (coverage inherited from the deleted per-path
			// parity tests): out-of-bounds and inverted ranges must clamp,
			// empty ranges must stay empty, and a range holding fewer than
			// k rows must return them all — identically to the oracle over
			// the valid rows, alone and batched together.
			edgeRanges := []hdc.RowRange{
				{Lo: -10, Hi: n + 10},
				{Lo: n / 2, Hi: n / 3}, // inverted: empty
				{Lo: 7, Hi: 7},         // empty
				{Lo: -5, Hi: 3},
				{Lo: n - 1, Hi: n + 50},
				{Lo: n / 2, Hi: n/2 + 2}, // fewer than k rows
				{Lo: n + 3, Hi: n + 9},   // past the end: empty
			}
			edgeHVs := make([]hdc.BinaryHV, len(edgeRanges))
			edgeOracle := make([][]hdc.Match, len(edgeRanges))
			for ri, r := range edgeRanges {
				edgeHVs[ri] = fx.queries[0].HV
				edgeOracle[ri] = fx.oracleOver(edgeHVs[ri], rangeIndices(r.Lo, r.Hi, n), w.k)
			}
			assertOnePath(t, "edge", searcher, edgeHVs, edgeRanges, w.k, edgeOracle)

			// Engine-level paths over the same library, packed at the
			// workload's shard size, with the encoder fx.p.Accel draws (the
			// prepared queries carry their own hypervectors).
			engine, _, err := core.NewExactEngineFromLibrary(fx.p, fx.lib)
			if err != nil {
				t.Fatal(err)
			}
			fx.assertEngine(t, "Engine.Search", engine, oracle)

			// Served/coalesced path: concurrent submissions through the
			// micro-batcher must match the oracle regardless of batching.
			srv, err := serve.New(engine, serve.Config{MaxBatch: 7})
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for qi, q := range fx.queries {
				wg.Add(1)
				go func(qi int, q core.PreparedQuery) {
					defer wg.Done()
					psm, ok, err := srv.SearchPrepared(context.Background(), q)
					if err != nil {
						t.Errorf("served: query %d: %v", qi, err)
						return
					}
					wantPSM, wantOK := fx.wantPSM(q, oracle[qi])
					if ok != wantOK || (wantOK && psm != wantPSM) {
						t.Errorf("served: query %d = %+v ok=%v, oracle %+v ok=%v", qi, psm, ok, wantPSM, wantOK)
					}
				}(qi, q)
			}
			wg.Wait()
			srv.Close()

			// The engine over the real on-disk manifest's partition set
			// must be bit-identical to the oracle for every partition
			// count.
			for _, parts := range w.parts {
				t.Run(fmt.Sprintf("partitions-%d", parts), func(t *testing.T) {
					manifest := filepath.Join(t.TempDir(), "lib.manifest")
					if err := libindex.SavePartitioned(manifest, fx.p, fx.lib, parts); err != nil {
						t.Fatal(err)
					}
					pi, err := libindex.Open(manifest)
					if err != nil {
						t.Fatal(err)
					}
					defer pi.Close()
					pe, _, err := core.NewPartitionedEngine(pi.Params, pi.PartitionSet())
					if err != nil {
						t.Fatal(err)
					}
					fx.assertEngine(t, "partitioned Engine.Search", pe, oracle)
				})
			}
		})
	}
}
