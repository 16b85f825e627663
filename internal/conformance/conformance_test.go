// Package conformance is the single cross-path search oracle: one
// table-driven suite asserting that every way of reaching the one
// block-major range sweep — a query alone as a batch of one, a whole
// batch, the batch reversed, traced and untraced, under the K-tier
// cascade ladder, through the engine
// over one partition, over a real mmap-backed manifest's partitions,
// and the request-coalescing serving layer — returns bit-identical top-k lists
// over randomized D/shard/k/ladder-depth/bit-layout/partition-count
// workloads with planted near-matches. Entropy-layout workloads additionally
// cross-check the permuted store against a natural-layout store on
// the de-permuted inputs: the permutation must not move a single
// result bit. It replaces the earlier per-path parity tests: a new
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
	"repro/internal/spectrum"
)

// workload is one randomized configuration of the conformance matrix.
type workload struct {
	name     string
	d        int
	shard    int
	k        int
	tiers    []int // K-tier ladder prefix (nil = single tier)
	entropy  bool  // pack the store under the entropy bit-layout permutation
	nRefs    int
	nQueries int
	parts    []int // partition counts to cross-check
	seed     int64
}

var workloads = []workload{
	{name: "flat", d: 512, shard: 64, k: 5, nRefs: 600, nQueries: 40, parts: []int{1, 2, 3, 7}, seed: 1},
	{name: "cascade-exact", d: 1024, shard: 100, k: 3, tiers: []int{4}, nRefs: 900, nQueries: 40, parts: []int{2, 3}, seed: 2},
	{name: "tail-mask", d: 1000, shard: 0, k: 7, tiers: []int{3}, nRefs: 500, nQueries: 30, parts: []int{1, 3, 7}, seed: 3},
	{name: "tiny-k-over", d: 256, shard: 16, k: 10, nRefs: 64, nQueries: 20, parts: []int{1, 7}, seed: 4},
	// A first tier of words-1 leaves a one-word completion tier; one of
	// all 8 words is the single-tier layout with identical results (the
	// degenerate-cascade contract).
	{name: "cascade-wide-prefilter", d: 512, shard: 48, k: 4, tiers: []int{7}, nRefs: 500, nQueries: 30, parts: []int{2}, seed: 6},
	{name: "cascade-degenerate-fallback", d: 512, shard: 64, k: 5, tiers: []int{8}, nRefs: 400, nQueries: 20, parts: []int{1, 2}, seed: 7},
	// K-tier ladders and the entropy bit layout, separately and
	// together: a K=3 ladder on the natural layout, K=4 on the entropy
	// layout, entropy on the single-tier scan, and a deep ladder with a
	// masked tail word (d % 64 != 0) under entropy.
	{name: "ladder-k3", d: 1024, shard: 96, k: 5, tiers: []int{2, 4}, nRefs: 800, nQueries: 40, parts: []int{2, 5}, seed: 8},
	{name: "ladder-k4-entropy", d: 1024, shard: 64, k: 3, tiers: []int{1, 3, 4}, entropy: true, nRefs: 700, nQueries: 40, parts: []int{1, 3}, seed: 9},
	{name: "entropy-flat", d: 512, shard: 32, k: 5, entropy: true, nRefs: 500, nQueries: 30, parts: []int{2}, seed: 10},
	{name: "ladder-entropy-tail-mask", d: 1000, shard: 0, k: 4, tiers: []int{1, 2, 3, 4}, entropy: true, nRefs: 400, nQueries: 30, parts: []int{3}, seed: 11},
}

// fixture is one workload's generated library and query set.
type fixture struct {
	p       core.Params
	lib     *core.Library
	refs    []hdc.BinaryHV // mass-rank order, stored layout, the oracle's view
	queries []core.PreparedQuery
	// perm is the entropy bit-layout permutation the store (and every
	// query HV) is packed under — nil for natural-layout workloads.
	perm []int
}

// buildFixture generates the synthetic mass-sorted library (equal-mass
// tie runs included) and a query set dominated by planted near-matches
// — clones of library rows with a few bits flipped, placed at masses
// inside the open window — plus random and out-of-window queries. For
// entropy workloads the reference rows are re-packed under the
// measured entropy permutation before the library is restored — what
// BuildLibrary does on the real path — so every query HV (cloned from
// a permuted row, or random and therefore layout-free) is already in
// the stored layout, the same invariant Prepare maintains by
// permuting encoder output. The oracle and every searcher then see
// one consistent layout.
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
	var perm []int
	if w.entropy {
		perm = hdc.EntropyPermutation(refs)
		if err := hdc.ValidatePermutation(perm, w.d); err != nil {
			t.Fatal(err)
		}
		for i := range refs {
			refs[i] = hdc.PermuteBits(refs[i], perm)
		}
	}
	lib, err := core.RestoreLibrary(entries, refs, rng.Perm(w.nRefs), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := lib.SetDimPerm(perm); err != nil {
		t.Fatal(err)
	}
	p := core.DefaultParams()
	p.Accel.D = w.d
	p.Accel.NumChunks = max(w.d/32, 32)
	p.ShardSize = w.shard
	p.TopK = w.k
	p.Tiers = w.tiers

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
	return &fixture{p: p, lib: lib, refs: refs, queries: queries, perm: perm}
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
		for qi, got := range s.BatchTopKRangeTraced(hvs, ranges, k, tr) {
			assertMatches(t, label+" batch", qi, got, oracle[qi])
		}
		for ri, got := range s.BatchTopKRangeTraced(revHVs, revRanges, k, tr) {
			assertMatches(t, label+" batch reversed", last-ri, got, oracle[last-ri])
		}
		for qi := range hvs {
			got := s.BatchTopKRangeTraced(hvs[qi:qi+1], ranges[qi:qi+1], k, tr)
			assertMatches(t, label+" batch of one", qi, got[0], oracle[qi])
		}
	}
}

// stubEncoder satisfies core.Encoder for engines driven exclusively
// through prepared queries.
type stubEncoder struct{}

func (stubEncoder) EncodeVector(v spectrum.Vector) (hdc.BinaryHV, error) {
	return hdc.BinaryHV{}, fmt.Errorf("conformance: encoder must not be reached")
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

			cc := hdc.CascadeConfig{Tiers: w.tiers}
			searcher, err := hdc.NewShardedSearcher(fx.lib.HVs, w.shard, cc)
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

			// Natural-vs-entropy bit identity: de-permute the store and
			// the queries back to the natural layout and search them
			// through a natural-layout searcher — every match list must be
			// identical, because the permutation relabels dimensions
			// without moving a single Hamming distance.
			if len(fx.perm) > 0 {
				inv := make([]int, len(fx.perm))
				for j, d := range fx.perm {
					inv[d] = j
				}
				natRefs := make([]hdc.BinaryHV, len(fx.lib.HVs))
				for i, hv := range fx.lib.HVs {
					natRefs[i] = hdc.PermuteBits(hv, inv)
				}
				natural, err := hdc.NewShardedSearcher(natRefs, w.shard, cc)
				if err != nil {
					t.Fatal(err)
				}
				natHVs := make([]hdc.BinaryHV, len(hvs))
				for qi, hv := range hvs {
					natHVs[qi] = hdc.PermuteBits(hv, inv)
				}
				for qi, got := range natural.BatchTopKRange(natHVs, ranges, w.k) {
					assertMatches(t, "natural-layout sweep", qi, got, oracle[qi])
				}
			}

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

			// Engine-level paths over the same packed store.
			engine, err := core.NewEngine(fx.p, fx.lib, stubEncoder{}, searcher)
			if err != nil {
				t.Fatal(err)
			}
			for qi, q := range fx.queries {
				assertMatches(t, "Engine.TopKPrepared", qi, engine.TopKPrepared(q), oracle[qi])
			}
			psms, oks := engine.SearchPrepared(fx.queries)
			for qi, q := range fx.queries {
				wantPSM, wantOK := fx.wantPSM(q, oracle[qi])
				if oks[qi] != wantOK || (wantOK && psms[qi] != wantPSM) {
					t.Fatalf("Engine.SearchPrepared: query %d = %+v ok=%v, oracle %+v ok=%v",
						qi, psms[qi], oks[qi], wantPSM, wantOK)
				}
			}
			var engineTrace obsv.Trace
			tpsms, toks := engine.SearchPreparedTraced(fx.queries, &engineTrace)
			for qi, q := range fx.queries {
				wantPSM, wantOK := fx.wantPSM(q, oracle[qi])
				if toks[qi] != wantOK || (wantOK && tpsms[qi] != wantPSM) {
					t.Fatalf("Engine.SearchPreparedTraced: query %d = %+v ok=%v, oracle %+v ok=%v",
						qi, tpsms[qi], toks[qi], wantPSM, wantOK)
				}
			}

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
					pi, err := libindex.OpenManifest(manifest)
					if err != nil {
						t.Fatal(err)
					}
					defer pi.Close()
					pe, _, err := core.NewPartitionedEngine(pi.Params, pi.PartitionSet())
					if err != nil {
						t.Fatal(err)
					}
					for qi, q := range fx.queries {
						assertMatches(t, "partitioned Engine.TopKPrepared", qi, pe.TopKPrepared(q), oracle[qi])
					}
					ppsms, poks := pe.SearchPrepared(fx.queries)
					for qi, q := range fx.queries {
						wantPSM, wantOK := fx.wantPSM(q, oracle[qi])
						if poks[qi] != wantOK || (wantOK && ppsms[qi] != wantPSM) {
							t.Fatalf("partitioned Engine.SearchPrepared: query %d = %+v ok=%v, oracle %+v ok=%v",
								qi, ppsms[qi], poks[qi], wantPSM, wantOK)
						}
					}
					var partTrace obsv.Trace
					tpsms, ttoks := pe.SearchPreparedTraced(fx.queries, &partTrace)
					for qi, q := range fx.queries {
						wantPSM, wantOK := fx.wantPSM(q, oracle[qi])
						if ttoks[qi] != wantOK || (wantOK && tpsms[qi] != wantPSM) {
							t.Fatalf("partitioned Engine.SearchPreparedTraced: query %d = %+v ok=%v, oracle %+v ok=%v",
								qi, tpsms[qi], ttoks[qi], wantPSM, wantOK)
						}
					}
				})
			}
		})
	}
}
