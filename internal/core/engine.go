package core

import (
	"cmp"
	"context"
	"fmt"
	"sort"

	"repro/internal/fdr"
	"repro/internal/hdc"
	"repro/internal/obsv"
	"repro/internal/spectrum"
	"repro/internal/units"
)

// partition is one mass-contiguous slice of the library: its own
// library, plus the routing and generation coordinates the router and
// the tie order consult.
type partition struct {
	lib *Library
	// start is the global row index of the partition's first entry:
	// its row r is the searcher's row start+r.
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
	// hidden lists, ascending, the local rows outside the visible set
	// (re-added in a newer generation, or tombstoned), masked by searcher.
	hidden []int
}

// Engine serves OMS queries over an encoded, mass-ordered library held
// as a list of partitions — the software shape of the paper's
// accelerator, which spreads the references over many crossbar arrays,
// broadcasts each query and merges the per-array best matches. N
// mass-contiguous base partitions tile the initial build and any
// number of delta partitions (incremental appends) follow, each with
// its own searcher over its library's rows (a memory-mapped index
// file's words, see libindex.Open, or a built library's block). A
// library that fits one store — a single index file, or one built in
// memory — is the same engine with one partition.
//
// A query's precursor window is routed to the overlapping partitions
// via the mass fences, and one searcher sweeps every partition as a
// span of one store: one fan-out over the shards of all of them, one
// admission floor per query and one merge. Hidden rows are never
// offered to a heap, and ties across partitions follow rowOrder, so
// the result is, bit for bit, what a one-partition engine over the
// mass-sorted visible set returns.
type Engine struct {
	params   Params
	enc      *hdc.Encoder
	parts    []partition
	searcher *hdc.ShardedSearcher
	total    int
	skipped  int
	// normD is the score normalizer: the hypervector dimension, which
	// every partition is validated against at construction.
	normD float64
	// nBase is the number of base-tier partitions (a prefix of parts);
	// generation is the manifest generation the engine serves.
	nBase      int
	generation uint64
	// tombstoneCount and hiddenTotal size the overlay: outstanding
	// retractions and the rows they (or newer re-additions) shadow.
	tombstoneCount int
	hiddenTotal    int
	// noise, set only by BuildNoisy, replays the chip's error
	// statistics on each query's encoding and on every score.
	noise *noise
}

// oneSpec is the partition set of a library held in one store:
// generation 1, rows from 0, nothing retracted.
func oneSpec(lib *Library) PartitionSet {
	set := PartitionSet{Specs: []PartitionSpec{{Lib: lib, Gen: 1}}, Generation: 1}
	if lib != nil {
		set.Skipped = lib.Skipped
	}
	return set
}

// NewPartitionedEngine wires the exact engine over a partition set:
// base-tier specs first (ascending, non-overlapping mass fences), then
// delta-tier specs in publish order. Tombstones and cross-generation
// re-additions are resolved at construction into per-partition
// hidden-row lists the sweep masks, so every search serves exactly the
// visible set. The query encoder is set.Encoder, or drawn from p.Accel;
// the one sharded searcher aliases each library's packed rows (over a
// memory-mapped index they stay views that fault in lazily),
// so the engine adds no copy of them. No spectrum is re-preprocessed or
// re-encoded. p must carry the same encoder-identity fields (D, Q,
// NumChunks, IDPrecision, NumBins, Seed, binner, preprocessing) the
// library was built with; query-time fields (window, TopK, FDRAlpha,
// ShardSize) are free to differ. The rows must stay alive (and mapped)
// and unmodified for the engine's lifetime.
func NewPartitionedEngine(p Params, set PartitionSet) (*Engine, *hdc.Encoder, error) {
	enc := set.Encoder
	if enc == nil {
		var err error
		if enc, err = NewEncoder(p.Accel); err != nil {
			return nil, nil, err
		}
	}
	e, err := newEngine(p, enc, set)
	if err != nil {
		return nil, nil, err
	}
	return e, enc, nil
}

// NewExactEngineFromLibrary is NewPartitionedEngine over one
// already-encoded library.
func NewExactEngineFromLibrary(p Params, lib *Library) (*Engine, *hdc.Encoder, error) {
	return NewPartitionedEngine(p, oneSpec(lib))
}

// BuildExact constructs the ideal (software) engine from spectra: exact
// ID-Level encoding with chunked levels and exact Hamming search over
// one partition. It returns the engine and the encoder used for the
// library so callers can reuse or wrap it.
func BuildExact(p Params, library []*spectrum.Spectrum) (*Engine, *hdc.Encoder, error) {
	enc, err := NewEncoder(p.Accel)
	if err != nil {
		return nil, nil, err
	}
	lib, err := BuildLibrary(library, p, enc)
	if err != nil {
		return nil, nil, err
	}
	e, err := newEngine(p, enc, oneSpec(lib))
	if err != nil {
		return nil, nil, err
	}
	return e, enc, nil
}

// NewEngine is the one-partition engine over a library encoded by a
// caller-supplied encoder (a baseline's item memory or level set),
// which also encodes its queries.
func NewEngine(p Params, lib *Library, enc *hdc.Encoder) (*Engine, error) {
	if enc == nil {
		return nil, fmt.Errorf("core: nil encoder")
	}
	return newEngine(p, enc, oneSpec(lib))
}

// newEngine validates a partition set and assembles the engine over
// it, wiring one exact searcher over the libraries' rows, in engine
// order, once they have passed validation and handing it their hidden
// rows and the tie order. The configured dimension Params.Accel.D
// must match every library's actual hypervector dimension: similarity
// scores are normalized by it, so a silent mismatch would mis-scale
// every PSM score.
func newEngine(p Params, enc *hdc.Encoder, set PartitionSet) (*Engine, error) {
	if len(set.Specs) == 0 {
		return nil, fmt.Errorf("core: no partitions")
	}
	p.TopK = max(p.TopK, 1)
	e := &Engine{
		params:         p,
		enc:            enc,
		normD:          float64(p.Accel.D),
		generation:     set.Generation,
		skipped:        set.Skipped,
		tombstoneCount: len(set.Tombstones),
	}
	for i, spec := range set.Specs {
		if spec.Lib == nil || spec.Lib.Len() == 0 {
			return nil, fmt.Errorf("core: partition %d: empty library", i)
		}
	}
	hidden := HiddenRows(set.Specs, set.Tombstones)
	blocks := make([][]uint64, len(set.Specs))
	var hiddenRows []int
	for i, spec := range set.Specs {
		lib := spec.Lib
		if lib.rows == nil {
			return nil, fmt.Errorf("core: partition %d: library rows are not packed (SortByMass never ran?)", i)
		}
		if lib.d != p.Accel.D {
			return nil, fmt.Errorf("core: partition %d: configured dimension D=%d does not match library hypervector dimension D=%d", i, p.Accel.D, lib.d)
		}
		minMass := lib.masses[0]
		maxMass := lib.masses[lib.Len()-1]
		if !spec.Delta {
			if i != e.nBase {
				return nil, fmt.Errorf("core: base partition %d listed after a delta partition (base tier must come first)", i)
			}
			if i > 0 && minMass < e.parts[i-1].maxMass {
				return nil, fmt.Errorf("core: partition %d starts at mass %g, below partition %d's last mass %g (base partitions must be in ascending mass order)",
					i, minMass, i-1, e.parts[i-1].maxMass)
			}
			e.nBase++
		}
		e.parts = append(e.parts, partition{
			lib:     lib,
			start:   e.total,
			minMass: minMass,
			maxMass: maxMass,
			gen:     spec.Gen,
			genRow:  spec.GenRow,
			delta:   spec.Delta,
			hidden:  hidden[i],
		})
		blocks[i] = lib.rows
		for _, r := range hidden[i] {
			hiddenRows = append(hiddenRows, e.total+r)
		}
		e.total += lib.Len()
	}
	e.hiddenTotal = len(hiddenRows)
	if e.hiddenTotal >= e.total {
		return nil, fmt.Errorf("core: every reference row is shadowed (all %d rows hidden)", e.total)
	}
	var err error
	if e.searcher, err = hdc.NewShardedSearcher(p.Accel.D, p.ShardSize, hiddenRows, e.rowOrder, blocks...); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return e, nil
}

// Library returns the library of a one-partition engine, nil when the
// engine holds several partitions.
func (e *Engine) Library() *Library {
	if len(e.parts) != 1 {
		return nil
	}
	return e.parts[0].lib
}

// NumRefs returns the total reference count across partitions
// (physical rows, including shadowed ones).
func (e *Engine) NumRefs() int { return e.total }

// Skipped returns the count of reference spectra rejected by
// preprocessing at build time (carried by the partition set: base
// build plus every delta batch).
func (e *Engine) Skipped() int { return e.skipped }

// OverlayStats describes the engine's incremental-update state: the
// manifest generation it serves, the delta tier's size, and the
// overlay resolved at construction.
type OverlayStats struct {
	// Generation is the manifest generation the engine was built from.
	Generation uint64 `json:"generation"`
	// DeltaPartitions and DeltaRefs size the delta tier.
	DeltaPartitions int `json:"delta_partitions"`
	DeltaRefs       int `json:"delta_refs"`
	// Tombstones counts outstanding retractions; HiddenRefs the rows
	// shadowed by tombstones or newer-generation re-additions.
	Tombstones int `json:"tombstones"`
	HiddenRefs int `json:"hidden_refs"`
}

// OverlayStats snapshots the incremental-update state — the serving
// layer's delta/compaction telemetry for /stats and /metrics.
func (e *Engine) OverlayStats() OverlayStats {
	st := OverlayStats{
		Generation: e.generation,
		Tombstones: e.tombstoneCount,
		HiddenRefs: e.hiddenTotal,
	}
	for i := e.nBase; i < len(e.parts); i++ {
		st.DeltaPartitions++
		st.DeltaRefs += e.parts[i].lib.Len()
	}
	return st
}

// PartitionStat is one partition's identity and sweep telemetry; its
// tags, like OverlayStats', are the names omsd's /stats shows.
type PartitionStat struct {
	// StartRow is the partition's first global row, Refs its size.
	StartRow int `json:"start_row"`
	Refs     int `json:"refs"`
	// MinMass, MaxMass are the partition's mass fences.
	MinMass float64 `json:"min_mass"`
	MaxMass float64 `json:"max_mass"`
	// Gen is the generation that introduced the partition; Delta marks
	// the delta tier; HiddenRefs counts its shadowed rows.
	Gen        uint64 `json:"generation"`
	Delta      bool   `json:"delta,omitempty"`
	HiddenRefs int    `json:"hidden_refs,omitempty"`
	// RowsSwept is the partition's cumulative range-scan row coverage.
	RowsSwept uint64 `json:"-"`
}

// PartitionStats snapshots per-partition identity and swept-row
// counters — the serving layer's /stats surface for partitioned
// indexes.
func (e *Engine) PartitionStats() []PartitionStat {
	out := make([]PartitionStat, len(e.parts))
	for i := range e.parts {
		p := &e.parts[i]
		st := PartitionStat{
			StartRow: p.start, Refs: p.lib.Len(),
			MinMass: p.minMass, MaxMass: p.maxMass,
			Gen: p.gen, Delta: p.delta, HiddenRefs: len(p.hidden),
			RowsSwept: e.searcher.RowsSwept(i),
		}
		out[i] = st
	}
	return out
}

// PreparedQuery is a query that has passed preprocessing and encoding
// and has had its precursor window resolved to a candidate row range
// in the mass-ordered library. Preparation is the per-query,
// trivially parallel half of a search; scoring prepared queries is
// the bandwidth-bound half, which Search amortizes across a batch.
type PreparedQuery struct {
	// QueryID is the source spectrum ID, carried into the PSM.
	QueryID string
	// HV is the encoded query hypervector.
	HV hdc.BinaryHV
	// Mass is the neutral precursor mass in Da.
	Mass float64
	// Lo, Hi is the candidate range [Lo, Hi) in the base tier's global
	// row space; delta partitions resolve their own rows from Mass.
	Lo, Hi int
}

// encodeQuery is the engine's one query-side encode step: preprocess,
// vectorize and encode in a pooled scratch, then flip bits under the
// noise model. ok is false when preprocessing rejects the spectrum as
// uninformative. keep, when not nil, sees the binned vector while the
// scratch still holds it, for callers that also score in the spectral
// domain (Rescorer); it must copy what it keeps.
func (e *Engine) encodeQuery(q *spectrum.Spectrum, keep func(spectrum.Vector)) (hdc.BinaryHV, bool, error) {
	sc := scratchPool.Get().(*encodeScratch)
	defer scratchPool.Put(sc)
	if !sc.quantize(&e.params, e.enc, q) {
		return hdc.BinaryHV{}, false, nil
	}
	hv, err := e.enc.Encode(sc.levels)
	if err != nil {
		return hdc.BinaryHV{}, false, fmt.Errorf("core: encoding query %s: %w", q.ID, err)
	}
	if e.noise != nil {
		e.noise.flip(hv)
	}
	if keep != nil {
		keep(sc.vector(&e.params))
	}
	return hv, true, nil
}

// Prepare preprocesses and encodes one query and resolves its
// candidate row range. ok is false when the query is rejected by
// preprocessing or no visible library row lies inside its precursor
// window — exactly the conditions under which Search finds no match.
func (e *Engine) Prepare(q *spectrum.Spectrum) (PreparedQuery, bool, error) {
	hv, ok, err := e.encodeQuery(q, nil)
	if err != nil || !ok {
		return PreparedQuery{}, false, err
	}
	pq, ok := e.ResolvePrepared(q.ID, hv, q.PrecursorMass())
	if !ok {
		return PreparedQuery{}, false, nil
	}
	return pq, true, nil
}

// ResolvePrepared assembles a prepared query from an already encoded
// hypervector: the base-tier candidate range is resolved through the
// mass fences, and ok reports whether any partition — base or delta —
// holds a visible candidate row. It is Prepare without the
// preprocessing and encoding stages, for tests that build
// hypervectors directly.
func (e *Engine) ResolvePrepared(id string, hv hdc.BinaryHV, mass float64) (PreparedQuery, bool) {
	lo, hi := e.candidateRange(mass, e.params.queryWindow(mass))
	pq := PreparedQuery{QueryID: id, HV: hv, Mass: mass, Lo: lo, Hi: hi}
	for i := range e.parts {
		p := &e.parts[i]
		plo, phi := e.partRange(p, &pq)
		if plo < phi && phi-plo > sort.SearchInts(p.hidden, phi)-sort.SearchInts(p.hidden, plo) {
			return pq, true
		}
	}
	return pq, false
}

// queryWindow returns the precursor window for a query mass: the open
// window, or the narrow standard-search window around the mass.
func (p Params) queryWindow(queryMass float64) units.MassWindow {
	if p.Open {
		return p.Window
	}
	return units.StandardWindow(queryMass, p.StandardTol)
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
func (e *Engine) candidateRange(queryMass float64, w units.MassWindow) (lo, hi int) {
	mLo := queryMass - w.Upper
	mHi := queryMass - w.Lower
	found := false
	for i := 0; i < e.nBase; i++ {
		p := &e.parts[i]
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
// range, delta partitions binary-search their own mass-sorted rows
// under the precursor window, since an overlapping fence cannot be
// expressed as a slice of the base tier's contiguous range.
func (e *Engine) partRange(p *partition, pq *PreparedQuery) (int, int) {
	if !p.delta {
		return max(pq.Lo, p.start) - p.start, min(pq.Hi, p.start+p.lib.Len()) - p.start
	}
	w := e.params.queryWindow(pq.Mass)
	if p.maxMass < pq.Mass-w.Upper || p.minMass > pq.Mass-w.Lower {
		return 0, 0
	}
	return p.lib.CandidateRange(pq.Mass, w)
}

// locate returns the partition holding a global row and the row's
// index within it.
func (e *Engine) locate(global int) (*partition, int) {
	i := sort.Search(len(e.parts), func(i int) bool { return e.parts[i].start > global }) - 1
	p := &e.parts[i]
	return p, global - p.start
}

// rowOrder is the searcher's tie order over two global rows of equal
// similarity: ascending (mass, generation, generation-row). Over the
// visible set this is exactly the order a from-scratch build yields —
// a stable mass sort of the entries in append order — so the search is
// bit-identical to a one-partition engine over that build. Within one
// partition it is the row order, as the searcher requires (rows are
// mass-sorted, the generation is constant and the generation-row
// ascends with the row), so two rows of one partition compare without
// reading their entries.
func (e *Engine) rowOrder(a, b int) int {
	pa, ra := e.locate(a)
	pb, rb := e.locate(b)
	if pa == pb {
		return cmp.Compare(ra, rb)
	}
	return cmp.Or(
		cmp.Compare(pa.lib.masses[ra], pb.lib.masses[rb]),
		cmp.Compare(pa.gen, pb.gen),
		cmp.Compare(pa.genRow+ra, pb.genRow+rb))
}

// plan lays a batch out as the searcher's ranges: per query, its base
// range [Lo, Hi), then one global range per delta partition, empty
// where the query's window misses it.
func (e *Engine) plan(qs []PreparedQuery) ([]hdc.BinaryHV, []hdc.RowRange) {
	deltas := e.parts[e.nBase:]
	hvs := make([]hdc.BinaryHV, len(qs))
	ranges := make([]hdc.RowRange, 0, len(qs)*(1+len(deltas)))
	for qi := range qs {
		pq := &qs[qi]
		hvs[qi] = pq.HV
		ranges = append(ranges, hdc.RowRange{Lo: pq.Lo, Hi: pq.Hi})
		for i := range deltas {
			lo, hi := e.partRange(&deltas[i], pq)
			ranges = append(ranges, hdc.RowRange{Lo: deltas[i].start + lo, Hi: deltas[i].start + hi})
		}
	}
	return hvs, ranges
}

// SearchResult is one prepared query's answer: its top-k list in global
// rows and the PSM of the list's head. An empty Top means no match.
type SearchResult struct {
	PSM fdr.PSM
	Top []hdc.Match
}

// Search scores prepared queries — the engine's one search path — and
// returns one result per query, in order: one searcher call sweeps
// every partition the batch reaches, so a batch inside one shard
// spawns nothing, and its lists come back merged, in global rows.
// Exact results do not depend on the batch; noisy ones draw one score
// seed per query in batch order (see noise).
//
// A ctx done before or during the call stops the sweep at its next
// row block, and Search returns ctx.Err(). A non-nil tr collects the
// exact sweep's swept and admitted rows, per-partition sweep records
// and merge time (the noisy one takes none); timing never alters
// control flow.
func (e *Engine) Search(ctx context.Context, qs []PreparedQuery, tr *obsv.Trace) ([]SearchResult, error) {
	hvs, ranges := e.plan(qs)
	var tops [][]hdc.Match
	var err error
	if e.noise != nil {
		tops, err = e.noise.search(ctx, e.searcher, hvs, ranges, e.params.TopK)
	} else {
		tops, err = e.searcher.Search(ctx, hvs, ranges, e.params.TopK, tr)
	}
	if err != nil {
		return nil, err
	}
	out := make([]SearchResult, len(qs))
	for qi, top := range tops {
		out[qi].Top = top
		if len(top) > 0 {
			entry := e.EntryAt(top[0].Index)
			out[qi].PSM = fdr.PSM{QueryID: qs[qi].QueryID, Peptide: entry.Peptide, IsDecoy: entry.IsDecoy,
				Score: float64(top[0].Similarity) / e.normD, MassShift: qs[qi].Mass - entry.Mass}
		}
	}
	return out, nil
}

// EntryAt returns the library entry behind a global match index as
// reported in SearchResult.Top. Global indexes depend on the engine's
// partition layout, so cross-engine comparisons (the build-equivalence
// conformance harness) resolve matches to entries before comparing.
func (e *Engine) EntryAt(global int) LibraryEntry {
	p, r := e.locate(global)
	return p.lib.Entries[r]
}

// SearchAll prepares every query through hdc.ForEach — in query order
// on one worker under the noise model — and scores the ones that pass
// in one uncancellable Search, returning one best-match PSM per matched
// query in query order. The noise streams draw in query order, so with
// or without noise the list equals that of a loop of batches of one.
func (e *Engine) SearchAll(queries []*spectrum.Spectrum) ([]fdr.PSM, error) {
	pqs := make([]PreparedQuery, len(queries))
	ok := make([]bool, len(queries))
	err := hdc.ForEach(len(queries), e.noise != nil, func(i int) (err error) {
		pqs[i], ok[i], err = e.Prepare(queries[i])
		return err
	})
	if err != nil {
		return nil, err
	}
	batch := pqs[:0]
	for i := range pqs {
		if ok[i] {
			batch = append(batch, pqs[i])
		}
	}
	res, err := e.Search(context.Background(), batch, nil)
	if err != nil {
		return nil, err
	}
	out := make([]fdr.PSM, 0, len(res))
	for _, r := range res {
		if len(r.Top) > 0 {
			out = append(out, r.PSM)
		}
	}
	return out, nil
}

// Run searches all queries and applies the FDR filter, returning the
// accepted identifications.
func (e *Engine) Run(queries []*spectrum.Spectrum) (fdr.Result, error) {
	psms, err := e.SearchAll(queries)
	if err != nil {
		return fdr.Result{}, err
	}
	return fdr.Filter(psms, e.params.FDRAlpha)
}
