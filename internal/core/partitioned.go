package core

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/accel"
	"repro/internal/fdr"
	"repro/internal/hdc"
	"repro/internal/obsv"
	"repro/internal/spectrum"
	"repro/internal/units"
)

// partition is one mass-contiguous slice of a partitioned library:
// its own library and packed searcher, plus the routing and
// generation coordinates the router and the dedup merge consult.
type partition struct {
	lib      *Library
	searcher *hdc.ShardedSearcher
	// start is the global row index of the partition's first entry;
	// local searcher row r is global row start+r.
	start int
	// minMass, maxMass are the partition's mass fences (first and last
	// entry mass — entries are mass-sorted).
	minMass, maxMass float64
	// gen is the manifest generation that introduced the rows and
	// genRow the partition's row offset within that generation:
	// (gen, genRow+r) totally orders rows by append order.
	gen    uint64
	genRow int
	// delta marks a delta-tier partition whose fences may overlap the
	// base tiling.
	delta bool
	// hidden is the set of local rows excluded from the visible set
	// (re-added in a newer generation, or tombstoned); nil when none.
	hidden map[int]struct{}
}

// PartitionedEngine serves OMS queries over a partitioned library —
// N mass-contiguous base partitions plus any number of delta
// partitions (incremental appends), each with its own packed searcher
// (typically zero-copy views over a memory-mapped index partition, see
// libindex.OpenManifest). A query's precursor window is routed to the
// overlapping partitions via the mass fences, the batch sweep fans out
// across partitions in parallel, and the per-partition top-k lists are
// merged exactly: a global top-k member is necessarily in the top-k of
// the partition holding it (widened by the partition's hidden-row
// count, so shadowed rows can never crowd a visible one out), and the
// merge comparator (similarity descending, then mass, generation,
// generation-row ascending) reproduces, bit for bit, what a
// single-file engine over the mass-sorted visible set returns. That
// exactness claim holds for single-tier and exact-cascade layouts;
// shortlist mode (Params.ShortlistPerQuery) applies its completion
// budget per partition, a different — strictly wider — approximation
// than one global shortlist, so shortlisted results are not comparable
// across partition counts.
type PartitionedEngine struct {
	params  Params
	enc     Encoder
	parts   []partition
	total   int
	skipped int
	normD   float64
	// dimPerm is the bit-layout permutation shared by every partition
	// (validated identical at construction); queries are permuted with
	// it at Prepare time. nil = natural layout.
	dimPerm []int
	// nBase is the number of base-tier partitions (a prefix of parts);
	// generation is the manifest generation the engine serves.
	nBase      int
	generation uint64
	// tombstoneCount and hiddenTotal size the overlay: outstanding
	// retractions and the rows they (or newer re-additions) shadow.
	tombstoneCount int
	hiddenTotal    int
}

// NewPartitionedExactEngine wires the exact engine over a partitioned
// library without incremental state: libs are the per-partition
// libraries in ascending mass order, and blocks — when non-nil — the
// contiguous packed word blocks their hypervectors are views over
// (libindex.PartitionedIndex.Blocks), aliased into each partition's
// searcher without copying. A nil blocks slice (or a nil element)
// falls back to packing that partition from its library's
// hypervectors. All partitions are treated as generation-1 base tier
// with no tombstones — the pure tiling case, where the dedup merge
// reduces exactly to (similarity, global index) order. The query
// encoder is rebuilt deterministically from p.Accel, exactly as
// NewExactEngineFromLibrary does.
func NewPartitionedExactEngine(p Params, libs []*Library, blocks [][]uint64) (*PartitionedEngine, *hdc.Encoder, error) {
	if blocks != nil && len(blocks) != len(libs) {
		return nil, nil, fmt.Errorf("core: %d partitions with %d packed blocks", len(libs), len(blocks))
	}
	set := PartitionSet{Specs: make([]PartitionSpec, len(libs)), Generation: 1}
	row := 0
	for i, lib := range libs {
		spec := PartitionSpec{Lib: lib, Gen: 1, GenRow: row}
		if blocks != nil {
			spec.Block = blocks[i] //oms:allow(mmapwrite) zero-copy view; the engine never outlives its index's Close
		}
		set.Specs[i] = spec
		if lib != nil {
			row += lib.Len()
			set.Skipped += lib.Skipped
		}
	}
	return NewPartitionedEngine(p, set)
}

// NewPartitionedEngine wires the exact engine over a full partition
// set: base-tier specs first (ascending, non-overlapping mass
// fences), then delta-tier specs in publish order. Tombstones and
// cross-generation re-additions are resolved at construction into
// per-partition hidden-row sets, so every search serves exactly the
// visible set.
func NewPartitionedEngine(p Params, set PartitionSet) (*PartitionedEngine, *hdc.Encoder, error) {
	specs := set.Specs
	if len(specs) == 0 {
		return nil, nil, fmt.Errorf("core: no partitions")
	}
	ids, levels, err := accel.NewEncoderComponents(p.Accel)
	if err != nil {
		return nil, nil, err
	}
	enc, err := hdc.NewEncoder(ids, levels)
	if err != nil {
		return nil, nil, err
	}
	if p.TopK < 1 {
		p.TopK = 1
	}
	pe := &PartitionedEngine{
		params:         p,
		enc:            enc,
		normD:          float64(p.Accel.D),
		generation:     set.Generation,
		skipped:        set.Skipped,
		tombstoneCount: len(set.Tombstones),
	}
	hidden := HiddenRows(specs, set.Tombstones)
	for i, spec := range specs {
		lib := spec.Lib
		if lib == nil || lib.Len() == 0 {
			return nil, nil, fmt.Errorf("core: partition %d is empty", i)
		}
		if len(lib.HVs) != lib.Len() {
			return nil, nil, fmt.Errorf("core: partition %d has %d entries but %d hypervectors", i, lib.Len(), len(lib.HVs))
		}
		if d := lib.HVs[0].D; d != p.Accel.D {
			return nil, nil, fmt.Errorf("core: partition %d has dimension D=%d, configured D=%d", i, d, p.Accel.D)
		}
		if len(lib.DimPerm) > 0 {
			if err := hdc.ValidatePermutation(lib.DimPerm, p.Accel.D); err != nil {
				return nil, nil, fmt.Errorf("core: partition %d bit-layout permutation: %w", i, err)
			}
		}
		if i == 0 {
			pe.dimPerm = lib.DimPerm
		} else if !equalPerm(pe.dimPerm, lib.DimPerm) {
			return nil, nil, fmt.Errorf("core: partition %d bit-layout permutation differs from partition 0 (mixed build generations?)", i)
		}
		minMass := lib.Entries[0].Mass
		maxMass := lib.Entries[lib.Len()-1].Mass
		if !spec.Delta {
			if i != pe.nBase {
				return nil, nil, fmt.Errorf("core: base partition %d listed after a delta partition (base tier must come first)", i)
			}
			if i > 0 && minMass < pe.parts[i-1].maxMass {
				return nil, nil, fmt.Errorf("core: partition %d starts at mass %g, below partition %d's last mass %g (base partitions must be in ascending mass order)",
					i, minMass, i-1, pe.parts[i-1].maxMass)
			}
			pe.nBase++
		}
		var searcher *hdc.ShardedSearcher
		if spec.Block != nil {
			searcher, err = hdc.NewShardedSearcherFromPacked(spec.Block, p.Accel.D, p.ShardSize, p.cascadeConfig())
			if err == nil && searcher.Len() != lib.Len() {
				err = fmt.Errorf("core: partition %d block holds %d rows but library has %d entries", i, searcher.Len(), lib.Len())
			}
		} else {
			searcher, err = hdc.NewShardedSearcher(lib.HVs, p.ShardSize, p.cascadeConfig())
		}
		if err != nil {
			return nil, nil, err
		}
		pe.parts = append(pe.parts, partition{
			lib:      lib,
			searcher: searcher,
			start:    pe.total,
			minMass:  minMass,
			maxMass:  maxMass,
			gen:      spec.Gen,
			genRow:   spec.GenRow,
			delta:    spec.Delta,
			hidden:   hidden[i],
		})
		pe.total += lib.Len()
		pe.hiddenTotal += len(hidden[i])
	}
	if pe.hiddenTotal >= pe.total {
		return nil, nil, fmt.Errorf("core: every reference row is shadowed (all %d rows hidden)", pe.total)
	}
	return pe, enc, nil
}

// overlay reports whether any incremental state is in play — delta
// partitions or hidden rows. Without it every path below reduces to
// the original pure-tiling engine, allocation for allocation.
func (pe *PartitionedEngine) overlay() bool {
	return pe.nBase < len(pe.parts) || pe.hiddenTotal > 0
}

// NumPartitions returns the partition count.
func (pe *PartitionedEngine) NumPartitions() int { return len(pe.parts) }

// NumRefs returns the total reference count across partitions
// (physical rows, including shadowed ones).
func (pe *PartitionedEngine) NumRefs() int { return pe.total }

// Skipped returns the build-time skipped-spectra count (carried by
// the partition set: base build plus every delta batch).
func (pe *PartitionedEngine) Skipped() int { return pe.skipped }

// OverlayStats describes the engine's incremental-update state: the
// manifest generation it serves, the delta tier's size, and the
// overlay resolved at construction.
type OverlayStats struct {
	// Generation is the manifest generation the engine was built from.
	Generation uint64
	// DeltaPartitions and DeltaRefs size the delta tier.
	DeltaPartitions, DeltaRefs int
	// Tombstones counts outstanding retractions; HiddenRefs the rows
	// shadowed by tombstones or newer-generation re-additions.
	Tombstones, HiddenRefs int
}

// OverlayStats snapshots the incremental-update state — the serving
// layer's delta/compaction telemetry for /stats and /metrics.
func (pe *PartitionedEngine) OverlayStats() OverlayStats {
	st := OverlayStats{
		Generation: pe.generation,
		Tombstones: pe.tombstoneCount,
		HiddenRefs: pe.hiddenTotal,
	}
	for i := pe.nBase; i < len(pe.parts); i++ {
		st.DeltaPartitions++
		st.DeltaRefs += pe.parts[i].lib.Len()
	}
	return st
}

// CascadeStats sums the per-tier cascade pruning counters across
// partitions (element-wise over tier slots; a rebuilt engine always
// gives every partition the same ladder, but a deeper partition's
// tail still sums correctly); ok is false when no partition runs a
// multi-tier layout.
func (pe *PartitionedEngine) CascadeStats() (hdc.CascadeStats, bool) {
	var sum hdc.CascadeStats
	any := false
	for i := range pe.parts {
		if cs, ok := pe.parts[i].searcher.CascadeStats(); ok {
			if len(sum.TierRows) < len(cs.TierRows) {
				grown := make([]uint64, len(cs.TierRows))
				copy(grown, sum.TierRows)
				sum.TierRows = grown
			}
			for t, v := range cs.TierRows {
				sum.TierRows[t] += v
			}
			any = true
		}
	}
	return sum, any
}

// PartitionStat is one partition's identity and pruning telemetry.
type PartitionStat struct {
	// StartRow is the partition's first global row, Refs its size.
	StartRow, Refs int
	// MinMass, MaxMass are the partition's mass fences.
	MinMass, MaxMass float64
	// Gen is the generation that introduced the partition; Delta marks
	// the delta tier; HiddenRefs counts its shadowed rows.
	Gen        uint64
	Delta      bool
	HiddenRefs int
	// CascadeEnabled reports whether the partition's searcher runs a
	// multi-tier layout; Cascade holds its per-tier counters when so.
	CascadeEnabled bool
	Cascade        hdc.CascadeStats
	// RowsSwept is the partition's cumulative range-scan row coverage
	// (live for every layout, unlike the cascade counters).
	RowsSwept uint64
}

// PartitionStats snapshots per-partition identity and cascade pruning
// counters — the serving layer's /stats surface for partitioned
// indexes.
func (pe *PartitionedEngine) PartitionStats() []PartitionStat {
	out := make([]PartitionStat, len(pe.parts))
	for i := range pe.parts {
		p := &pe.parts[i]
		st := PartitionStat{
			StartRow: p.start, Refs: p.lib.Len(),
			MinMass: p.minMass, MaxMass: p.maxMass,
			Gen: p.gen, Delta: p.delta, HiddenRefs: len(p.hidden),
		}
		st.Cascade, st.CascadeEnabled = p.searcher.CascadeStats()
		st.RowsSwept = p.searcher.RowsSwept()
		out[i] = st
	}
	return out
}

// candidateRange resolves a query's precursor window to a global row
// range by routing it through the base-tier mass fences: partitions
// whose fences cannot overlap the window are skipped without a binary
// search. Base partitions tile the mass-sorted initial build, so the
// union of the per-partition candidate ranges is one contiguous
// global range — exactly what Library.CandidateRange returns over the
// concatenated library. Delta partitions are excluded: their fences
// may overlap the base tiling, so their local ranges are resolved per
// partition at sweep time (partRange).
func (pe *PartitionedEngine) candidateRange(queryMass float64, w units.MassWindow) (lo, hi int) {
	mLo := queryMass - w.Upper
	mHi := queryMass - w.Lower
	found := false
	for i := 0; i < pe.nBase; i++ {
		p := &pe.parts[i]
		if p.maxMass < mLo || p.minMass > mHi {
			continue
		}
		plo, phi := p.lib.CandidateRange(queryMass, w)
		if plo >= phi {
			continue
		}
		if !found {
			lo = p.start + plo
			found = true
		}
		hi = p.start + phi
	}
	if !found {
		return 0, 0
	}
	return lo, hi
}

// partRange resolves one partition's local candidate range for a
// prepared query: base partitions clip the query's precomputed global
// range (bit-compatible with the pure tiling path), delta partitions
// binary-search their own mass-sorted rows under the precursor
// window, since an overlapping fence cannot be expressed as a slice
// of the base tier's contiguous range.
func (pe *PartitionedEngine) partRange(p *partition, pq *PreparedQuery) (int, int) {
	if !p.delta {
		return p.clip(pq.Lo, pq.Hi)
	}
	w := pe.params.queryWindow(pq.Mass)
	if p.maxMass < pq.Mass-w.Upper || p.minMass > pq.Mass-w.Lower {
		return 0, 0
	}
	return p.lib.CandidateRange(pq.Mass, w)
}

// kEff is the per-partition retrieval depth: the global k widened by
// the partition's hidden-row count, so that after shadowed rows are
// filtered out the partition still surfaces its full visible top-k —
// the containment argument the dedup merge's exactness rests on.
func (p *partition) kEff(k int) int { return k + len(p.hidden) }

// ResolvePrepared assembles a prepared query from an already encoded
// (and, under an entropy layout, already permuted) hypervector: the
// base-tier candidate range is resolved through the mass fences, and
// ok reports whether any partition — base or delta — holds candidate
// rows. It is Prepare without the preprocessing and encoding stages,
// for callers that build hypervectors directly (conformance harness,
// benchmarks).
func (pe *PartitionedEngine) ResolvePrepared(id string, hv hdc.BinaryHV, mass float64) (PreparedQuery, bool) {
	lo, hi := pe.candidateRange(mass, pe.params.queryWindow(mass))
	pq := PreparedQuery{QueryID: id, HV: hv, Mass: mass, Lo: lo, Hi: hi}
	ok := lo < hi
	for i := pe.nBase; !ok && i < len(pe.parts); i++ {
		plo, phi := pe.partRange(&pe.parts[i], &pq)
		ok = plo < phi
	}
	return pq, ok
}

// Prepare preprocesses and encodes one query and resolves its global
// candidate row range — the partitioned mirror of Engine.Prepare, with
// identical skip conditions.
func (pe *PartitionedEngine) Prepare(q *spectrum.Spectrum) (PreparedQuery, bool, error) {
	pre, err := pe.params.Preprocess.Preprocess(q)
	if err != nil {
		return PreparedQuery{}, false, nil // uninformative spectrum: skip
	}
	hv, err := pe.enc.EncodeVector(pe.params.Binner.Vectorize(pre))
	if err != nil {
		return PreparedQuery{}, false, fmt.Errorf("core: encoding query %s: %w", q.ID, err)
	}
	if len(pe.dimPerm) > 0 {
		hv = hdc.PermuteBits(hv, pe.dimPerm)
	}
	pq, ok := pe.ResolvePrepared(q.ID, hv, q.PrecursorMass())
	if !ok {
		return PreparedQuery{}, false, nil
	}
	return pq, true, nil
}

// clip intersects a global row range with the partition, returning the
// local range (empty when they do not overlap).
func (p *partition) clip(lo, hi int) (int, int) {
	l := max(lo, p.start) - p.start
	h := min(hi, p.start+p.lib.Len()) - p.start
	return l, h
}

// rankBefore reports whether a outranks b: higher similarity, ties by
// ascending global index — the merge comparator of the pure tiling
// path, where global index order IS mass-then-append order.
func rankBefore(a, b hdc.Match) bool {
	if a.Similarity != b.Similarity {
		return a.Similarity > b.Similarity
	}
	return a.Index < b.Index
}

// mergeTopK merges per-partition top-k lists (already offset to global
// indices) into the exact global top-k — the pure tiling path.
func mergeTopK(merged []hdc.Match, k int) []hdc.Match {
	sort.Slice(merged, func(i, j int) bool { return rankBefore(merged[i], merged[j]) })
	if len(merged) > k {
		merged = merged[:k]
	}
	return merged
}

// cand is one surviving candidate in the dedup merge: its global
// match plus the (mass, gen, seq) coordinates the canonical visible
// order is defined by.
type cand struct {
	m    hdc.Match
	mass float64
	gen  uint64
	seq  int
}

// candBefore is the dedup merge comparator: similarity descending,
// ties by ascending (mass, generation, generation-row). Over the
// visible set this is exactly the order a from-scratch build yields —
// a stable mass sort of the entries in append order — so the merge is
// bit-identical to the single-file engine over that build. On a pure
// single-generation tiling it degenerates to rankBefore: gen is
// constant and seq is the global row, which ascends with mass.
func candBefore(a, b cand) bool {
	if a.m.Similarity != b.m.Similarity {
		return a.m.Similarity > b.m.Similarity
	}
	if a.mass != b.mass {
		return a.mass < b.mass
	}
	if a.gen != b.gen {
		return a.gen < b.gen
	}
	return a.seq < b.seq
}

// collectCands appends a partition's per-query matches to the merge
// set, dropping hidden rows and attaching the merge coordinates.
func (p *partition) collectCands(out []cand, top []hdc.Match) []cand {
	for _, m := range top {
		if _, shadowed := p.hidden[m.Index]; shadowed {
			continue
		}
		out = append(out, cand{
			m:    hdc.Match{Index: m.Index + p.start, Similarity: m.Similarity},
			mass: p.lib.Entries[m.Index].Mass,
			gen:  p.gen,
			seq:  p.genRow + m.Index,
		})
	}
	return out
}

// mergeCands sorts the merge set under the canonical visible order
// and trims to the global k.
func mergeCands(cands []cand, k int) []hdc.Match {
	sort.Slice(cands, func(i, j int) bool { return candBefore(cands[i], cands[j]) })
	if len(cands) > k {
		cands = cands[:k]
	}
	out := make([]hdc.Match, len(cands))
	for i, c := range cands {
		out[i] = c.m
	}
	return out
}

// TopKPrepared returns the full top-k match list of one prepared
// query — a batch of one through batchTopKPrepared: each overlapping
// partition's range is scored with its own searcher and the
// per-partition lists merge exactly (see the type comment). Indices
// are global rows.
func (pe *PartitionedEngine) TopKPrepared(pq PreparedQuery) []hdc.Match {
	return pe.batchTopKPrepared([]PreparedQuery{pq}, nil)[0]
}

// batchTopKPrepared scores a prepared batch: queries fan out across
// partitions in parallel — each partition runs one block-major sweep
// over the queries whose windows reach it — and
// the per-partition lists merge exactly per query. A non-nil tr
// collects tier timings from each partition's sweep plus one
// PartSweep record per visited partition (index, candidate rows, wall
// time) and the cross-partition merge time; timing never alters
// control flow.
func (pe *PartitionedEngine) batchTopKPrepared(qs []PreparedQuery, tr *obsv.Trace) [][]hdc.Match {
	k := pe.params.TopK
	overlay := pe.overlay()
	type partBatch struct {
		qIdx   []int
		hvs    []hdc.BinaryHV
		ranges []hdc.RowRange
		tops   [][]hdc.Match
	}
	batches := make([]partBatch, len(pe.parts))
	for i := range pe.parts {
		p := &pe.parts[i]
		b := &batches[i]
		for qi := range qs {
			pq := &qs[qi]
			// On a pure tiling an empty global range means no candidates
			// anywhere; with deltas in play a query may hold delta-only
			// candidates, so each partition resolves its own range.
			if !overlay && pq.Lo >= pq.Hi {
				continue
			}
			lo, hi := pe.partRange(p, pq)
			if lo >= hi {
				continue
			}
			b.qIdx = append(b.qIdx, qi)
			b.hvs = append(b.hvs, pq.HV)
			b.ranges = append(b.ranges, hdc.RowRange{Lo: lo, Hi: hi})
		}
	}
	var wg sync.WaitGroup
	for i := range pe.parts {
		if len(batches[i].qIdx) == 0 {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			b := &batches[i]
			var t0 time.Time
			if tr != nil {
				t0 = time.Now()
			}
			b.tops = pe.parts[i].searcher.BatchTopKRangeTraced(b.hvs, b.ranges, pe.parts[i].kEff(k), tr)
			if tr != nil {
				rows := 0
				for _, r := range b.ranges {
					rows += r.Len()
				}
				tr.AddPartition(i, rows, int64(time.Since(t0)))
			}
		}(i)
	}
	wg.Wait()
	var mergeT0 time.Time
	if tr != nil {
		mergeT0 = time.Now()
	}
	out := make([][]hdc.Match, len(qs))
	if !overlay {
		for i := range pe.parts {
			start := pe.parts[i].start
			b := &batches[i]
			for j, qi := range b.qIdx {
				for _, m := range b.tops[j] {
					m.Index += start
					out[qi] = append(out[qi], m)
				}
			}
		}
		for qi := range out {
			if out[qi] != nil {
				out[qi] = mergeTopK(out[qi], k)
			}
		}
	} else {
		cands := make([][]cand, len(qs))
		for i := range pe.parts {
			p := &pe.parts[i]
			b := &batches[i]
			for j, qi := range b.qIdx {
				cands[qi] = p.collectCands(cands[qi], b.tops[j])
			}
		}
		for qi := range cands {
			if cands[qi] != nil {
				out[qi] = mergeCands(cands[qi], k)
			}
		}
	}
	if tr != nil {
		tr.AddNanos(obsv.StageMerge, int64(time.Since(mergeT0)))
	}
	return out
}

// psmFor converts the best match of a prepared query into its PSM,
// resolving the global row to its partition's entry.
func (pe *PartitionedEngine) psmFor(pq PreparedQuery, best hdc.Match) fdr.PSM {
	entry := pe.entryAt(best.Index)
	return fdr.PSM{
		QueryID:   pq.QueryID,
		Peptide:   entry.Peptide,
		Score:     float64(best.Similarity) / pe.normD,
		IsDecoy:   entry.IsDecoy,
		MassShift: pq.Mass - entry.Mass,
	}
}

// EntryAt returns the library entry behind a global match index as
// reported by TopKPrepared. Global indexes depend on the engine's
// partition layout, so cross-engine comparisons (the build-equivalence
// conformance harness) resolve matches to entries before comparing.
func (pe *PartitionedEngine) EntryAt(global int) LibraryEntry { return pe.entryAt(global) }

// entryAt returns the library entry at a global row.
func (pe *PartitionedEngine) entryAt(global int) LibraryEntry {
	i := sort.Search(len(pe.parts), func(i int) bool { return pe.parts[i].start > global }) - 1
	p := &pe.parts[i]
	return p.lib.Entries[global-p.start]
}

// SearchPrepared scores prepared queries through one partitioned batch
// sweep; ok[i] is false when query i's range produced no match. With
// the exact searcher, results are bit-identical to the single-store
// Engine.SearchPrepared over the concatenated (visible) library.
func (pe *PartitionedEngine) SearchPrepared(qs []PreparedQuery) ([]fdr.PSM, []bool) {
	return pe.SearchPreparedTraced(qs, nil)
}

// SearchPreparedTraced is SearchPrepared with per-stage tracing (see
// TracedSearchEngine): a non-nil tr collects per-partition sweep
// records, tier timings and the cross-partition merge time. Results
// are bit-identical to the untraced call.
func (pe *PartitionedEngine) SearchPreparedTraced(qs []PreparedQuery, tr *obsv.Trace) ([]fdr.PSM, []bool) {
	psms := make([]fdr.PSM, len(qs))
	oks := make([]bool, len(qs))
	if len(qs) == 0 {
		return psms, oks
	}
	for i, top := range pe.batchTopKPrepared(qs, tr) {
		if len(top) == 0 {
			continue
		}
		psms[i] = pe.psmFor(qs[i], top[0])
		oks[i] = true
	}
	return psms, oks
}

// SearchOne runs one query and returns its best-match PSM; ok is false
// exactly as in Engine.SearchOne.
func (pe *PartitionedEngine) SearchOne(q *spectrum.Spectrum) (fdr.PSM, bool, error) {
	pq, ok, err := pe.Prepare(q)
	if err != nil || !ok {
		return fdr.PSM{}, false, err
	}
	top := pe.TopKPrepared(pq)
	if len(top) == 0 {
		return fdr.PSM{}, false, nil
	}
	return pe.psmFor(pq, top[0]), true, nil
}

// SearchAll runs every query serially and returns the PSM list.
func (pe *PartitionedEngine) SearchAll(queries []*spectrum.Spectrum) ([]fdr.PSM, error) {
	psms := make([]fdr.PSM, 0, len(queries))
	for _, q := range queries {
		psm, ok, err := pe.SearchOne(q)
		if err != nil {
			return nil, err
		}
		if ok {
			psms = append(psms, psm)
		}
	}
	return psms, nil
}

// SearchAllParallel fans preparation out per query, then scores every
// searchable query through one partitioned batch sweep. The exact
// searcher makes the results identical to SearchAll.
func (pe *PartitionedEngine) SearchAllParallel(queries []*spectrum.Spectrum) ([]fdr.PSM, error) {
	type prep struct {
		pq  PreparedQuery
		ok  bool
		err error
	}
	preps := make([]prep, len(queries))
	parallelFor(len(queries), func(i int) {
		pq, ok, err := pe.Prepare(queries[i])
		preps[i] = prep{pq: pq, ok: ok, err: err}
	})
	var batch []PreparedQuery
	for i := range preps {
		if preps[i].err != nil {
			return nil, preps[i].err
		}
		if preps[i].ok {
			batch = append(batch, preps[i].pq)
		}
	}
	if len(batch) == 0 {
		return []fdr.PSM{}, nil
	}
	batchPSMs, oks := pe.SearchPrepared(batch)
	psms := make([]fdr.PSM, 0, len(batch))
	for j, ok := range oks {
		if ok {
			psms = append(psms, batchPSMs[j])
		}
	}
	return psms, nil
}

// Run searches all queries serially and applies the FDR filter.
func (pe *PartitionedEngine) Run(queries []*spectrum.Spectrum) (fdr.Result, error) {
	psms, err := pe.SearchAll(queries)
	if err != nil {
		return fdr.Result{}, err
	}
	return fdr.Filter(psms, pe.params.FDRAlpha)
}

// equalPerm reports whether two bit-layout permutations are the same
// layout (both nil = both natural).
func equalPerm(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// RunParallel is Run using the parallel batch path.
func (pe *PartitionedEngine) RunParallel(queries []*spectrum.Spectrum) (fdr.Result, error) {
	psms, err := pe.SearchAllParallel(queries)
	if err != nil {
		return fdr.Result{}, err
	}
	return fdr.Filter(psms, pe.params.FDRAlpha)
}
