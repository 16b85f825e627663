// Build-equivalence conformance for incremental library updates: a
// randomized schedule of omsbuild-style appends (delta partitions),
// retractions (tombstones) and compactions is replayed against a
// partitioned manifest, and after EVERY published generation the
// manifest-backed engine must search bit-identically to an engine
// built from scratch over exactly the visible spectra — same top-k
// lists down to tie order, same PSMs down to the float. Schedules
// plant the adversarial cases on purpose: equal-mass rows cloned
// across the base/delta boundary (some with identical hypervectors,
// so similarity cannot break the tie), same-id re-additions that
// shadow older generations, and retract-then-re-add churn. The
// incremental path earns its keep here: if delta merge order, hidden
// -row masking or compaction re-tiling drops or reorders a single
// result bit, this suite fails.
package conformance

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/libindex"
	"repro/internal/msdata"
	"repro/internal/spectrum"
)

// incrWorkload is one randomized incremental-update schedule.
type incrWorkload struct {
	name        string
	seed        int64
	d           int
	shard       int
	k           int
	baseParts   int
	maxPartRefs int
	nBase       int // spectra in the initial partitioned build
	chunk       int // fresh spectra per append step
	ops         int // schedule length (append/retract/compact steps)
}

var incrWorkloads = []incrWorkload{
	{name: "dense", seed: 101, d: 512, shard: 48, k: 6, baseParts: 3, maxPartRefs: 40, nBase: 220, chunk: 30, ops: 9},
	// Named for the deleted entropy bit layout it also ran; it is the
	// schedule over the widest rows and the fewest base partitions.
	{name: "entropy-layout", seed: 102, d: 1024, shard: 64, k: 4, baseParts: 2, maxPartRefs: 64, nBase: 160, chunk: 24, ops: 7},
	{name: "churn", seed: 103, d: 512, shard: 32, k: 5, baseParts: 4, maxPartRefs: 24, nBase: 180, chunk: 20, ops: 11},
}

// resultRow is a match resolved to library identity — global row
// indexes differ between the partitioned and from-scratch engines, so
// comparisons happen on what the row IS plus its exact similarity.
// Identical-hypervector clones differ only in ID, so an inverted tie
// still fails the comparison.
type resultRow struct {
	ID         string
	Peptide    string
	IsDecoy    bool
	Mass       float64
	Similarity int
}

// incrState is the harness's model of the library: the visible
// spectra in append order. A re-add of an existing id removes the
// shadowed copy and appends the new one at the end (its append
// position); a retraction removes the copy outright. From-scratch
// building this list IS the oracle the manifest must match.
type incrState struct {
	visible []*spectrum.Spectrum
	probes  []*spectrum.Spectrum // planted-tie spectra, replayed as queries
}

func (s *incrState) indexOf(id string) int {
	for i, sp := range s.visible {
		if sp.ID == id {
			return i
		}
	}
	return -1
}

func (s *incrState) remove(id string) {
	if i := s.indexOf(id); i >= 0 {
		s.visible = append(s.visible[:i], s.visible[i+1:]...)
	}
}

// cloneSpectrum copies a spectrum under a new id: same precursor
// (hence the same mass to the last float bit) and same peaks (hence
// the same hypervector) — the hardest possible tie.
func cloneSpectrum(sp *spectrum.Spectrum, id string) *spectrum.Spectrum {
	dup := *sp
	dup.ID = id
	dup.Peaks = append([]spectrum.Peak(nil), sp.Peaks...)
	return &dup
}

// mutateSpectrum copies a spectrum under the SAME id with one peak
// intensity nudged: the re-added version encodes differently while
// the precursor mass stays identical, so the old copy must be
// shadowed, not tied with.
func mutateSpectrum(sp *spectrum.Spectrum, rng *rand.Rand) *spectrum.Spectrum {
	dup := *sp
	dup.Peaks = append([]spectrum.Peak(nil), sp.Peaks...)
	i := rng.Intn(len(dup.Peaks))
	dup.Peaks[i].Intensity *= 1.5 + rng.Float64()
	return &dup
}

func incrParams(w incrWorkload) core.Params {
	p := core.DefaultParams()
	p.Accel.D = w.d
	p.Accel.NumChunks = max(w.d/32, 32)
	p.ShardSize = w.shard
	p.TopK = w.k
	return p
}

// verifyStep opens the manifest, wires the partitioned engine over it
// and checks it bit for bit against a from-scratch build of the
// visible set: per-query top-k (resolved to resultRows), and the
// SearchAll PSMs of the whole query list swept as one batch, which is
// where the overlay merge actually runs.
func verifyStep(t *testing.T, step string, manifest string, p core.Params, st *incrState, queries []*spectrum.Spectrum) {
	t.Helper()
	pi, err := libindex.Open(manifest)
	if err != nil {
		t.Fatalf("%s: reopening manifest: %v", step, err)
	}
	defer pi.Close()
	pe, _, err := core.NewPartitionedEngine(pi.Params, pi.PartitionSet())
	if err != nil {
		t.Fatalf("%s: engine over manifest: %v", step, err)
	}
	oracle, _, err := core.BuildExact(p, st.visible)
	if err != nil {
		t.Fatalf("%s: from-scratch oracle build: %v", step, err)
	}
	if got, want := pe.NumRefs()-pe.OverlayStats().HiddenRefs, oracle.NumRefs(); got != want {
		t.Fatalf("%s: %d visible references in manifest engine, from-scratch build has %d", step, got, want)
	}

	all := append(append([]*spectrum.Spectrum{}, queries...), st.probes...)
	for _, q := range all {
		oq, ook, err := oracle.Prepare(q)
		if err != nil {
			t.Fatalf("%s: oracle prepare %s: %v", step, q.ID, err)
		}
		pq, pok, err := pe.Prepare(q)
		if err != nil {
			t.Fatalf("%s: manifest prepare %s: %v", step, q.ID, err)
		}
		// Admission counts visible rows only, so a partition fence
		// stretched by a since-shadowed row admits nothing the oracle
		// does not, and the search returns exactly the oracle's list.
		if pok != ook {
			t.Fatalf("%s: query %s: manifest engine admits it %v, oracle %v", step, q.ID, pok, ook)
		}
		var want, got []resultRow
		if ook {
			for _, m := range search(t, oracle, []core.PreparedQuery{oq}, nil)[0].Top {
				e := oracle.Library().Entries[m.Index]
				want = append(want, resultRow{e.ID, e.Peptide, e.IsDecoy, e.Mass, m.Similarity})
			}
			for _, m := range search(t, pe, []core.PreparedQuery{pq}, nil)[0].Top {
				e := pe.EntryAt(m.Index)
				got = append(got, resultRow{e.ID, e.Peptide, e.IsDecoy, e.Mass, m.Similarity})
			}
		}
		if len(got) != len(want) {
			t.Fatalf("%s: query %s: %d matches from manifest engine, oracle has %d\ngot  %v\nwant %v",
				step, q.ID, len(got), len(want), got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: query %s match %d = %+v, oracle says %+v\ngot  %v\nwant %v",
					step, q.ID, i, got[i], want[i], got, want)
			}
		}
	}

	wantPSMs, err := oracle.SearchAll(all)
	if err != nil {
		t.Fatalf("%s: oracle SearchAll: %v", step, err)
	}
	gotPSMs, err := pe.SearchAll(all)
	if err != nil {
		t.Fatalf("%s: manifest SearchAll: %v", step, err)
	}
	if len(gotPSMs) != len(wantPSMs) {
		t.Fatalf("%s: SearchAll returned %d PSMs, oracle %d", step, len(gotPSMs), len(wantPSMs))
	}
	for i := range wantPSMs {
		if gotPSMs[i] != wantPSMs[i] {
			t.Fatalf("%s: SearchAll PSM %d = %+v, oracle %+v", step, i, gotPSMs[i], wantPSMs[i])
		}
	}
}

// TestIncrementalBuildEquivalence replays each schedule and verifies
// build equivalence after every single published generation.
func TestIncrementalBuildEquivalence(t *testing.T) {
	for _, w := range incrWorkloads {
		t.Run(w.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(w.seed))
			cfg := msdata.Config{
				Name:              "incr-" + w.name,
				NumReferences:     w.nBase + w.chunk*w.ops,
				NumQueries:        24,
				DecoyFraction:     0.5,
				ModifiedFraction:  0.35,
				ForeignFraction:   0.1,
				PeptideLenMin:     7,
				PeptideLenMax:     22,
				NoisePeaks:        8,
				PeakJitterDa:      0.02,
				IntensityJitter:   0.25,
				DropPeakProb:      0.1,
				MaxFragmentCharge: 2,
				Seed:              w.seed,
			}
			ds, err := msdata.Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			p := incrParams(w)
			manifest := filepath.Join(t.TempDir(), "lib.manifest")

			base := ds.Library[:w.nBase]
			engine, _, err := core.BuildExact(p, base)
			if err != nil {
				t.Fatal(err)
			}
			if err := libindex.SavePartitioned(manifest, p, engine.Library(), w.baseParts); err != nil {
				t.Fatal(err)
			}
			st := &incrState{visible: append([]*spectrum.Spectrum{}, base...)}
			next := w.nBase // next unused pool spectrum
			verifyStep(t, "base", manifest, p, st, ds.Queries)

			appendChunk := func(step string, chunk []*spectrum.Spectrum) {
				mlog, err := libindex.LoadManifestLog(manifest)
				if err != nil {
					t.Fatalf("%s: %v", step, err)
				}
				mp, err := mlog.DecodeParams()
				if err != nil {
					t.Fatalf("%s: %v", step, err)
				}
				lib, err := libindex.BuildLibrary(chunk, mp)
				if err != nil {
					t.Fatalf("%s: building delta: %v", step, err)
				}
				if _, err := libindex.AppendDelta(manifest, mlog, lib, w.maxPartRefs); err != nil {
					t.Fatalf("%s: publishing delta: %v", step, err)
				}
				for _, sp := range chunk {
					st.remove(sp.ID) // re-adds shadow the older copy
					st.visible = append(st.visible, sp)
				}
			}

			// Step 0 is always an append planting equal-mass ties across
			// the base/delta boundary: identical-hypervector clones of
			// base rows under fresh ids, whose tie order only append
			// order can decide.
			firstChunk := append([]*spectrum.Spectrum{}, ds.Library[next:next+w.chunk]...)
			next += w.chunk
			for c := 0; c < 3; c++ {
				src := st.visible[rng.Intn(len(st.visible))]
				clone := cloneSpectrum(src, fmt.Sprintf("%s-tieclone-%d", src.ID, c))
				firstChunk = append(firstChunk, clone)
				st.probes = append(st.probes, clone)
			}
			appendChunk("append-0", firstChunk)
			verifyStep(t, "append-0", manifest, p, st, ds.Queries)

			for op := 1; op < w.ops; op++ {
				// A compaction is forced mid-schedule and as the final
				// step, so equivalence is always checked on a compacted
				// generation too.
				kind := "append"
				if op == w.ops/2 || op == w.ops-1 {
					kind = "compact"
				} else {
					switch r := rng.Float64(); {
					case r < 0.25 && len(st.visible) > 40:
						kind = "retract"
					case r < 0.45:
						kind = "readd"
					case r < 0.55:
						kind = "compact"
					}
				}
				step := fmt.Sprintf("%s-%d", kind, op)
				switch kind {
				case "append":
					n := min(w.chunk, len(ds.Library)-next)
					if n == 0 {
						continue
					}
					chunk := append([]*spectrum.Spectrum{}, ds.Library[next:next+n]...)
					next += n
					if rng.Intn(2) == 0 { // another cross-boundary equal-mass clone
						src := st.visible[rng.Intn(len(st.visible))]
						clone := cloneSpectrum(src, fmt.Sprintf("%s-tieclone-%d", src.ID, op))
						chunk = append(chunk, clone)
						st.probes = append(st.probes, clone)
					}
					appendChunk(step, chunk)
				case "readd":
					// Re-add 1-3 visible spectra under their own ids with
					// perturbed peaks: newest generation wins.
					n := 1 + rng.Intn(3)
					chunk := make([]*spectrum.Spectrum, 0, n)
					seen := map[string]bool{}
					for len(chunk) < n {
						src := st.visible[rng.Intn(len(st.visible))]
						if seen[src.ID] {
							continue
						}
						seen[src.ID] = true
						chunk = append(chunk, mutateSpectrum(src, rng))
					}
					appendChunk(step, chunk)
				case "retract":
					n := 1 + rng.Intn(4)
					ids := make([]string, 0, n)
					seen := map[string]bool{}
					for len(ids) < n {
						src := st.visible[rng.Intn(len(st.visible))]
						if seen[src.ID] {
							continue
						}
						seen[src.ID] = true
						ids = append(ids, src.ID)
					}
					pi, err := libindex.Open(manifest)
					if err != nil {
						t.Fatalf("%s: %v", step, err)
					}
					known := pi.LiveIDs()
					pi.Close()
					mlog, err := libindex.LoadManifestLog(manifest)
					if err != nil {
						t.Fatalf("%s: %v", step, err)
					}
					if _, err := libindex.AppendRetract(manifest, mlog, ids, known); err != nil {
						t.Fatalf("%s: publishing tombstones: %v", step, err)
					}
					for _, id := range ids {
						st.remove(id)
					}
				case "compact":
					stats, err := libindex.Compact(manifest, w.maxPartRefs)
					if err != nil {
						t.Fatalf("%s: %v", step, err)
					}
					if !stats.Noop {
						// A compacted generation serves the same visible set
						// with no overlay left at all.
						pi, err := libindex.Open(manifest)
						if err != nil {
							t.Fatalf("%s: %v", step, err)
						}
						pe, _, err := core.NewPartitionedEngine(pi.Params, pi.PartitionSet())
						if err != nil {
							t.Fatalf("%s: %v", step, err)
						}
						ov := pe.OverlayStats()
						if err := pi.Close(); err != nil {
							t.Fatalf("%s: %v", step, err)
						}
						if ov.DeltaPartitions != 0 || ov.Tombstones != 0 || ov.HiddenRefs != 0 {
							t.Fatalf("%s: overlay not cleared: %+v", step, ov)
						}
					}
				}
				verifyStep(t, step, manifest, p, st, ds.Queries)
			}

			// The final generation (a compacted one) must open: Open
			// checksums every partition against its record.
			pi, err := libindex.Open(manifest)
			if err != nil {
				t.Fatalf("final Open: %v", err)
			}
			pi.Close()
		})
	}
}

// TestOverlayManyHidden holds the masked sweep to the from-scratch
// oracle where the old retrieve-deep-and-filter merge was at its worst:
// more than a thousand hidden rows in one base partition — half
// retracted outright, half re-added under their own ids with changed
// peaks — beside identical-hypervector clones of surviving base rows
// planted at equal mass across the base/delta boundary.
func TestOverlayManyHidden(t *testing.T) {
	w := incrWorkload{name: "many-hidden", seed: 104, d: 512, shard: 64, k: 5, baseParts: 2, maxPartRefs: 400, nBase: 2400}
	rng := rand.New(rand.NewSource(w.seed))
	ds, err := msdata.Generate(msdata.Config{
		Name: "incr-" + w.name, NumReferences: w.nBase, NumQueries: 24,
		DecoyFraction: 0.5, ModifiedFraction: 0.35, ForeignFraction: 0.1,
		PeptideLenMin: 7, PeptideLenMax: 22, NoisePeaks: 8,
		PeakJitterDa: 0.02, IntensityJitter: 0.25, DropPeakProb: 0.1,
		MaxFragmentCharge: 2, Seed: w.seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := incrParams(w)
	manifest := filepath.Join(t.TempDir(), "lib.manifest")
	engine, _, err := core.BuildExact(p, ds.Library)
	if err != nil {
		t.Fatal(err)
	}
	lib := engine.Library()
	if lib.Skipped != 0 {
		t.Fatalf("fixture: %d library spectra rejected by preprocessing", lib.Skipped)
	}
	if err := libindex.SavePartitioned(manifest, p, lib, w.baseParts); err != nil {
		t.Fatal(err)
	}
	st := &incrState{visible: append([]*spectrum.Spectrum{}, ds.Library...)}
	byID := make(map[string]*spectrum.Spectrum, len(ds.Library))
	for _, sp := range ds.Library {
		byID[sp.ID] = sp
	}

	// Partition 0 is the lower-mass half of the library. Of its first
	// 1 050 rows the even ones are retracted and the odd ones re-added;
	// three of the rows it keeps are cloned into the delta.
	const nHide = 1050
	var retract []string
	var chunk []*spectrum.Spectrum
	for r, e := range lib.Entries[:nHide] {
		if r%2 == 0 {
			retract = append(retract, e.ID)
		} else {
			chunk = append(chunk, mutateSpectrum(byID[e.ID], rng))
		}
	}
	for c, e := range lib.Entries[nHide : nHide+3] {
		clone := cloneSpectrum(byID[e.ID], fmt.Sprintf("%s-tieclone-%d", e.ID, c))
		chunk = append(chunk, clone)
		st.probes = append(st.probes, clone)
	}

	pi, err := libindex.Open(manifest)
	if err != nil {
		t.Fatal(err)
	}
	known := pi.LiveIDs()
	if err := pi.Close(); err != nil {
		t.Fatal(err)
	}
	mlog, err := libindex.LoadManifestLog(manifest)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := libindex.AppendRetract(manifest, mlog, retract, known); err != nil {
		t.Fatal(err)
	}
	for _, id := range retract {
		st.remove(id)
	}
	mp, err := mlog.DecodeParams()
	if err != nil {
		t.Fatal(err)
	}
	delta, err := libindex.BuildLibrary(chunk, mp)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := libindex.AppendDelta(manifest, mlog, delta, w.maxPartRefs); err != nil {
		t.Fatal(err)
	}
	for _, sp := range chunk {
		st.remove(sp.ID)
		st.visible = append(st.visible, sp)
	}

	if pi, err = libindex.Open(manifest); err != nil {
		t.Fatal(err)
	}
	pe, _, err := core.NewPartitionedEngine(pi.Params, pi.PartitionSet())
	if err != nil {
		t.Fatal(err)
	}
	hiddenIn0 := pe.PartitionStats()[0].HiddenRefs
	if err := pi.Close(); err != nil {
		t.Fatal(err)
	}
	if hiddenIn0 != nHide {
		t.Fatalf("partition 0 hides %d rows, want %d", hiddenIn0, nHide)
	}
	// The retracted and re-added spectra query their own old neighbourhood.
	queries := append([]*spectrum.Spectrum{}, ds.Queries...)
	for _, e := range lib.Entries[:40] {
		queries = append(queries, byID[e.ID])
	}
	verifyStep(t, "many-hidden", manifest, p, st, queries)
}
