// Package core is the end-to-end open modification search engine of
// the paper (Fig. 2): preprocessing → ID-Level HD encoding →
// precursor-window candidate selection → Hamming similarity search →
// FDR filtering. The library is mass-sorted, so a precursor window is
// a contiguous row range and every search — one query or many — is one
// batch range call on the Searcher. Backends are pluggable: the exact
// software path ("ideal"), the characterized-noise path replaying the
// simulated MLC RRAM chip's error statistics, or explicit error
// injection for the robustness study (Fig. 11).
package core

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/accel"
	"repro/internal/fdr"
	"repro/internal/hdc"
	"repro/internal/obsv"
	"repro/internal/spectrum"
	"repro/internal/units"
)

// Encoder abstracts the query/reference hypervector encoder.
type Encoder interface {
	// EncodeVector encodes a binned spectrum vector.
	EncodeVector(v spectrum.Vector) (hdc.BinaryHV, error)
}

// Searcher is the one search primitive the engine needs, mirroring the
// accelerator's: a batch of encoded queries, each restricted to a
// contiguous row range of the mass-sorted library (every precursor
// window is one), comes back as per-query top-k lists (similarity
// descending, ties by ascending row), with per-tier timings and row
// counters accumulated into tr when it is non-nil. A single query is a
// batch of one. Implementations: *hdc.ShardedSearcher (exact —
// deterministic, so results are independent of batch composition and
// of tracing) and *accel.NoisySearcher (characterized hardware noise —
// per-seed reproducible for a fixed batching, since it draws one noise
// stream per non-empty query in query order, and untraced).
type Searcher interface {
	BatchTopKRangeTraced(queries []hdc.BinaryHV, ranges []hdc.RowRange, k int, tr *obsv.Trace) [][]hdc.Match
}

// SearchEngine is the query-serving surface shared by the single-store
// Engine and the PartitionedEngine: prepare a spectrum into an encoded
// query with a resolved global candidate row range, score prepared
// queries through one batched sweep, and report the cascade pruning
// telemetry plus library identity. The serving layer (internal/serve,
// cmd/omsd) and the CLIs program against it, so a partitioned
// mmap-backed index drops in wherever a resident single-file engine
// ran.
type SearchEngine interface {
	// Prepare preprocesses and encodes one query and resolves its
	// candidate row range; ok is false when the query is rejected by
	// preprocessing or no library mass lies in its precursor window.
	Prepare(q *spectrum.Spectrum) (PreparedQuery, bool, error)
	// SearchPrepared scores prepared queries through one batched
	// sweep; ok[i] is false when query i produced no match.
	SearchPrepared(qs []PreparedQuery) ([]fdr.PSM, []bool)
	// TopKPrepared returns the full top-k match list of one prepared
	// query, indices in global (mass-rank) row space.
	TopKPrepared(pq PreparedQuery) []hdc.Match
	// CascadeStats reports the aggregate per-tier cascade pruning
	// counters; ok is false when no underlying searcher runs a
	// multi-tier layout.
	CascadeStats() (hdc.CascadeStats, bool)
	// NumRefs returns the number of encoded references served.
	NumRefs() int
	// Skipped returns the count of reference spectra rejected by
	// preprocessing at build time.
	Skipped() int
}

// TracedSearchEngine is the optional tracing extension of
// SearchEngine: a batched sweep that accumulates per-stage timings and
// row counters into an obsv.Trace. Tracing must never change results —
// SearchPreparedTraced(qs, nil) and SearchPrepared(qs) are the same
// call, and a non-nil trace only adds timing. The serving layer
// type-asserts for this interface and falls back to the untraced sweep
// when the engine does not provide it.
type TracedSearchEngine interface {
	SearchEngine
	// SearchPreparedTraced is SearchPrepared recording per-tier/merge
	// (and, for a partitioned engine, per-partition sweep) telemetry
	// into tr when non-nil.
	SearchPreparedTraced(qs []PreparedQuery, tr *obsv.Trace) ([]fdr.PSM, []bool)
}

// Params configures an OMS engine.
type Params struct {
	// Accel is the HD/hardware operating point (dimension, precision,
	// quantization levels, …).
	Accel accel.Config
	// Preprocess configures spectrum cleanup (§3.1).
	Preprocess spectrum.PreprocessConfig
	// Binner maps m/z to vector bins; its NumBins must equal
	// Accel.NumBins.
	Binner spectrum.Binner
	// Window is the open-search precursor window: a candidate
	// reference is eligible when queryMass − refMass lies inside it.
	Window units.MassWindow
	// Open selects open search; when false, the engine runs a
	// standard search with the narrow StandardTol window.
	Open bool
	// StandardTol is the precursor tolerance for standard search.
	StandardTol units.Tolerance
	// TopK is how many matches to retrieve per query (PSM uses the
	// best; the rest support rescoring studies).
	TopK int
	// ShardSize is the rows-per-shard of the exact sharded search
	// engine (0 = hdc.DefaultShardSize).
	ShardSize int
	// Tiers is the cascade ladder of the sharded searcher: Tiers[t]
	// packed words form tier t of every row, scanned in order with the
	// pruning bound checked between tiers. Empty keeps the single-tier
	// scan; a two-element ladder is the classic prefilter/completion
	// cascade. Exact-mode results stay bit-identical to the
	// single-tier kernel for every ladder.
	Tiers []int
	// PrefilterWords is the deprecated two-tier form of Tiers: a
	// positive value means the ladder [PrefilterWords, rest]. Setting
	// both Tiers and PrefilterWords is rejected.
	PrefilterWords int
	// BitLayout selects the build-time dimension layout:
	// ""/"natural" stores encoded dimensions in encoder order;
	// "entropy" permutes them so the most discriminative (highest
	// bit-balance entropy) dimensions pack into the leading words,
	// raising the tier-0 pruning rate. The permutation is applied to
	// references at build time and queries at prepare time, so results
	// are unchanged by construction.
	BitLayout string
	// ShortlistPerQuery switches the cascade to approximate mode:
	// per query, only the ShortlistPerQuery rows with the best
	// tier-0 partial distance are completed — the
	// HyperOMS/ANN-SoLo-style recall-for-speed trade. 0 keeps the
	// exact pruning bound; a positive value requires a multi-tier
	// ladder.
	ShortlistPerQuery int
	// FDRAlpha is the FDR acceptance level (paper: 0.01).
	FDRAlpha float64
}

// cascadeConfig maps the cascade knobs onto the searcher's config.
// Tiers and the deprecated PrefilterWords both pass through; the
// searcher rejects the combination.
func (p Params) cascadeConfig() hdc.CascadeConfig {
	return hdc.CascadeConfig{Tiers: p.Tiers, PrefilterWords: p.PrefilterWords, Shortlist: p.ShortlistPerQuery}
}

// Bit-layout names accepted by Params.BitLayout.
const (
	// BitLayoutNatural stores dimensions in encoder order (the
	// default; "" means the same).
	BitLayoutNatural = "natural"
	// BitLayoutEntropy permutes dimensions by descending bit-balance
	// entropy over the encoded library at build time.
	BitLayoutEntropy = "entropy"
)

// DefaultParams returns the paper's evaluation configuration.
func DefaultParams() Params {
	binner := spectrum.DefaultBinner()
	acfg := accel.DefaultConfig()
	acfg.NumBins = binner.NumBins()
	return Params{
		Accel:       acfg,
		Preprocess:  spectrum.DefaultPreprocess(),
		Binner:      binner,
		Window:      units.OpenWindow(-150, +500),
		Open:        true,
		StandardTol: units.Da(0.05),
		TopK:        5,
		FDRAlpha:    0.01,
	}
}

// LibraryEntry is one encoded reference spectrum.
type LibraryEntry struct {
	// ID is the source spectrum ID.
	ID string
	// Peptide is the library peptide sequence.
	Peptide string
	// IsDecoy marks decoy entries.
	IsDecoy bool
	// Mass is the neutral precursor mass in Da.
	Mass float64
}

// Library is an encoded, mass-ordered reference library: entries are
// stored sorted by ascending precursor mass, so entry index == mass
// rank, every precursor window selects a contiguous index range
// [lo, hi) (CandidateRange), and a searcher packed over HVs streams
// any candidate set as a contiguous row range.
type Library struct {
	// Entries holds metadata parallel to the encoded hypervectors,
	// sorted by ascending precursor mass.
	Entries []LibraryEntry
	// HVs are the encoded reference hypervectors, parallel to Entries
	// (and therefore also in ascending-mass order).
	HVs []hdc.BinaryHV
	// srcPos is the permutation recorded by the mass sort: srcPos[i]
	// is the position entry i (equivalently: packed searcher row i)
	// occupied in the original build order of the kept spectra.
	srcPos []int
	// DimPerm is the bit-layout dimension permutation the stored
	// hypervectors are under: stored position j holds encoder
	// dimension DimPerm[j]. nil means the natural (encoder-order)
	// layout. Queries must be permuted identically before scoring
	// (the engines' Prepare does this), which keeps every Hamming
	// distance — and therefore every result — unchanged.
	DimPerm []int
	// Skipped counts reference spectra rejected by preprocessing.
	Skipped int
}

// BuildLibrary preprocesses, vectorizes and encodes the reference
// spectra. Spectra failing preprocessing are skipped (counted in
// Skipped), matching library-building practice.
func BuildLibrary(spectra []*spectrum.Spectrum, p Params, enc Encoder) (*Library, error) {
	if enc == nil {
		return nil, fmt.Errorf("core: nil encoder")
	}
	lib := &Library{}
	for _, s := range spectra {
		pre, err := p.Preprocess.Preprocess(s)
		if err != nil {
			lib.Skipped++
			continue
		}
		hv, err := enc.EncodeVector(p.Binner.Vectorize(pre))
		if err != nil {
			return nil, fmt.Errorf("core: encoding library spectrum %s: %w", s.ID, err)
		}
		lib.Entries = append(lib.Entries, LibraryEntry{
			ID:      s.ID,
			Peptide: s.Peptide,
			IsDecoy: s.IsDecoy,
			Mass:    s.PrecursorMass(),
		})
		lib.HVs = append(lib.HVs, hv)
	}
	if len(lib.Entries) == 0 {
		return nil, fmt.Errorf("core: empty library after preprocessing")
	}
	lib.SortByMass()
	if err := lib.applyBitLayout(p.BitLayout); err != nil {
		return nil, err
	}
	return lib, nil
}

// applyBitLayout applies the configured dimension layout to the
// encoded library: "entropy" measures per-dimension bit-balance
// entropy over the encoded references and permutes every hypervector
// so the most discriminative dimensions land in the leading packed
// words. An identity permutation (e.g. a degenerate library) is
// dropped so callers never pay the query-time gather for a no-op.
func (l *Library) applyBitLayout(layout string) error {
	switch layout {
	case "", BitLayoutNatural:
		return nil
	case BitLayoutEntropy:
		perm := hdc.EntropyPermutation(l.HVs)
		if perm == nil || hdc.IsIdentityPermutation(perm) {
			return nil
		}
		for i := range l.HVs {
			l.HVs[i] = hdc.PermuteBits(l.HVs[i], perm)
		}
		l.DimPerm = perm
		return nil
	default:
		return fmt.Errorf("core: unknown bit layout %q (valid: %q, %q)", layout, BitLayoutNatural, BitLayoutEntropy)
	}
}

// SetDimPerm installs the bit-layout permutation the library's
// hypervectors are already stored under — the load path of a
// persisted entropy-layout index (the index stores permuted words, so
// restoring must record the permutation without re-permuting). An
// empty perm clears it (natural layout); a non-bijection is rejected.
func (l *Library) SetDimPerm(perm []int) error {
	if len(perm) == 0 {
		l.DimPerm = nil
		return nil
	}
	d := 0
	if len(l.HVs) > 0 {
		d = l.HVs[0].D
	}
	if err := hdc.ValidatePermutation(perm, d); err != nil {
		return err
	}
	l.DimPerm = perm
	return nil
}

// permuteQuery applies the library's bit-layout permutation to an
// encoded query hypervector (identity when the layout is natural).
func (l *Library) permuteQuery(hv hdc.BinaryHV) hdc.BinaryHV {
	if len(l.DimPerm) == 0 {
		return hv
	}
	return hdc.PermuteBits(hv, l.DimPerm)
}

// SortByMass sorts entries and hypervectors in place by ascending
// precursor mass (stable: equal masses keep their build order) and
// records the permutation back to build order (SourcePos). Libraries
// built by BuildLibrary are already sorted; a Library constructed by
// hand must call it before CandidateRange or SourcePos are
// meaningful, and before packing HVs into a searcher.
func (l *Library) SortByMass() {
	if len(l.HVs) != len(l.Entries) {
		panic(fmt.Sprintf("core: library has %d entries but %d hypervectors", len(l.Entries), len(l.HVs)))
	}
	perm := make([]int, len(l.Entries))
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(a, b int) bool {
		return l.Entries[perm[a]].Mass < l.Entries[perm[b]].Mass
	})
	entries := make([]LibraryEntry, len(l.Entries))
	hvs := make([]hdc.BinaryHV, len(l.HVs))
	for rank, src := range perm {
		entries[rank] = l.Entries[src]
		hvs[rank] = l.HVs[src]
	}
	l.Entries, l.HVs, l.srcPos = entries, hvs, perm
}

// Len returns the number of encoded references.
func (l *Library) Len() int { return len(l.Entries) }

// SourcePos returns the position entry i (= packed searcher row i)
// occupied in the original build order of the kept spectra, before
// the ascending-mass sort — the permutation mapping packed rows back
// to build-order positions.
func (l *Library) SourcePos(i int) int { return l.srcPos[i] }

// SourcePositions returns a copy of the whole sort permutation:
// element i is the build-order position of mass-rank entry i. It is
// the bulk form of SourcePos, used to persist a built library.
func (l *Library) SourcePositions() []int {
	out := make([]int, len(l.srcPos))
	copy(out, l.srcPos)
	return out
}

// RestoreLibrary reassembles a Library from previously built parts —
// mass-ordered entries, their hypervectors, the SourcePositions
// permutation and the skipped count — without re-running
// preprocessing or encoding. It is the load path of the persistent
// library index: BuildLibrary's invariants (ascending mass order,
// srcPos a permutation, parallel slices) are validated rather than
// re-derived.
func RestoreLibrary(entries []LibraryEntry, hvs []hdc.BinaryHV, srcPos []int, skipped int) (*Library, error) {
	n := len(entries)
	if n == 0 {
		return nil, fmt.Errorf("core: restoring empty library")
	}
	if len(hvs) != n || len(srcPos) != n {
		return nil, fmt.Errorf("core: restoring library: %d entries, %d hypervectors, %d source positions",
			n, len(hvs), len(srcPos))
	}
	for i := 1; i < n; i++ {
		if entries[i].Mass < entries[i-1].Mass {
			return nil, fmt.Errorf("core: restoring library: entries not in ascending mass order at index %d", i)
		}
	}
	seen := make([]bool, n)
	for i, p := range srcPos {
		if p < 0 || p >= n || seen[p] {
			return nil, fmt.Errorf("core: restoring library: source positions are not a permutation of [0,%d) at index %d", n, i)
		}
		seen[p] = true
	}
	return &Library{Entries: entries, HVs: hvs, srcPos: srcPos, Skipped: skipped}, nil
}

// CandidateRange returns the half-open entry-index range [lo, hi) of
// references whose mass difference to the query (queryMass − refMass)
// lies within the window — the open-search candidate set. Entries are
// mass-sorted, so two binary searches suffice: O(log n) time, O(1)
// space, no per-query slice allocation.
func (l *Library) CandidateRange(queryMass float64, w units.MassWindow) (lo, hi int) {
	// queryMass − refMass ∈ [w.Lower, w.Upper]
	// ⇔ refMass ∈ [queryMass − w.Upper, queryMass − w.Lower].
	mLo := queryMass - w.Upper
	mHi := queryMass - w.Lower
	lo = sort.Search(len(l.Entries), func(i int) bool { return l.Entries[i].Mass >= mLo })
	hi = lo + sort.Search(len(l.Entries)-lo, func(i int) bool { return l.Entries[lo+i].Mass > mHi })
	return lo, hi
}

// InjectStorageErrors flips every stored reference bit with the given
// probability, modelling hypervector storage errors (Figs. 7/11). The
// library is modified in place.
func (l *Library) InjectStorageErrors(rate float64, rng *rand.Rand) {
	if rate <= 0 {
		return
	}
	for i := range l.HVs {
		l.HVs[i].FlipBits(rate, rng)
	}
}

// Engine runs OMS queries against an encoded library.
type Engine struct {
	params   Params
	lib      *Library
	enc      Encoder
	searcher Searcher
	// normD is the score normalizer: the library's actual hypervector
	// dimension, validated against params.Accel.D at construction.
	normD float64
}

// NewEngine wires a library, encoder and searcher together. The
// configured dimension Params.Accel.D must match the library's actual
// hypervector dimension: similarity scores are normalized by it, so a
// silent mismatch would mis-scale every PSM score.
func NewEngine(p Params, lib *Library, enc Encoder, s Searcher) (*Engine, error) {
	if lib == nil || lib.Len() == 0 {
		return nil, fmt.Errorf("core: empty library")
	}
	if enc == nil || s == nil {
		return nil, fmt.Errorf("core: nil encoder or searcher")
	}
	if len(lib.HVs) != lib.Len() {
		return nil, fmt.Errorf("core: library has %d entries but %d hypervectors", lib.Len(), len(lib.HVs))
	}
	d := lib.HVs[0].D
	if d <= 0 {
		return nil, fmt.Errorf("core: library hypervectors have dimension %d", d)
	}
	if p.Accel.D != d {
		return nil, fmt.Errorf("core: configured dimension D=%d does not match library hypervector dimension D=%d",
			p.Accel.D, d)
	}
	if len(lib.DimPerm) > 0 {
		if err := hdc.ValidatePermutation(lib.DimPerm, d); err != nil {
			return nil, fmt.Errorf("core: library bit-layout permutation: %w", err)
		}
	}
	if p.TopK < 1 {
		p.TopK = 1
	}
	return &Engine{params: p, lib: lib, enc: enc, searcher: s, normD: float64(d)}, nil
}

// Library returns the engine's library.
func (e *Engine) Library() *Library { return e.lib }

// NumRefs returns the number of encoded references served.
func (e *Engine) NumRefs() int { return e.lib.Len() }

// Skipped returns the count of reference spectra rejected by
// preprocessing when the library was built.
func (e *Engine) Skipped() int { return e.lib.Skipped }

// CascadeStats reports the per-tier pruning counters of a
// cascade-enabled searcher (rows entering each ladder tier); ok is
// false when the searcher has no multi-tier layout or does not expose
// the telemetry.
func (e *Engine) CascadeStats() (hdc.CascadeStats, bool) {
	type reporter interface {
		CascadeStats() (hdc.CascadeStats, bool)
	}
	if r, ok := e.searcher.(reporter); ok {
		return r.CascadeStats()
	}
	return hdc.CascadeStats{}, false
}

// ReleaseLibraryHVs drops the library's hypervector slices. The
// copying searcher constructor packed its own copy of every reference
// word and retains nothing of the source, and the search path reads
// only Entries and the packed store, so a long-lived serving process
// over a built or loaded library (BuildExact, BuildNoisy,
// NewExactEngineFromLibrary) halves its resident memory by releasing
// the originals. Over a packed block (NewExactEngineFromPacked) the
// hypervectors are views into the block the searcher aliases, so only
// the slice headers are freed. After the call, Library.HVs is nil: the
// caller must not inject storage errors, rebuild a searcher from this
// library, or save it to an index.
func (e *Engine) ReleaseLibraryHVs() { e.lib.HVs = nil }

// PreparedQuery is a query that has passed preprocessing and encoding
// and has had its precursor window resolved to a candidate row range
// in the mass-ordered library. Preparation is the per-query,
// trivially parallel half of a search; scoring prepared queries is
// the bandwidth-bound half, which batch paths (SearchPrepared, the
// serving layer's micro-batcher) amortize across whole query sets.
type PreparedQuery struct {
	// QueryID is the source spectrum ID, carried into the PSM.
	QueryID string
	// HV is the encoded query hypervector.
	HV hdc.BinaryHV
	// Mass is the neutral precursor mass in Da.
	Mass float64
	// Lo, Hi is the candidate entry-index range [Lo, Hi).
	Lo, Hi int
}

// Prepare preprocesses and encodes one query and resolves its
// candidate row range. ok is false when the query is rejected by
// preprocessing or no library mass lies inside its precursor window —
// exactly the conditions under which SearchOne reports no PSM.
func (e *Engine) Prepare(q *spectrum.Spectrum) (PreparedQuery, bool, error) {
	pre, err := e.params.Preprocess.Preprocess(q)
	if err != nil {
		return PreparedQuery{}, false, nil // uninformative spectrum: skip
	}
	hv, err := e.enc.EncodeVector(e.params.Binner.Vectorize(pre))
	if err != nil {
		return PreparedQuery{}, false, fmt.Errorf("core: encoding query %s: %w", q.ID, err)
	}
	hv = e.lib.permuteQuery(hv)
	mass := q.PrecursorMass()
	lo, hi := e.lib.CandidateRange(mass, e.window(mass))
	if lo >= hi {
		return PreparedQuery{}, false, nil
	}
	return PreparedQuery{QueryID: q.ID, HV: hv, Mass: mass, Lo: lo, Hi: hi}, true, nil
}

// psmFor converts the best match of a prepared query into its PSM.
func (e *Engine) psmFor(pq PreparedQuery, best hdc.Match) fdr.PSM {
	entry := e.lib.Entries[best.Index]
	return fdr.PSM{
		QueryID:   pq.QueryID,
		Peptide:   entry.Peptide,
		Score:     float64(best.Similarity) / e.normD,
		IsDecoy:   entry.IsDecoy,
		MassShift: pq.Mass - entry.Mass,
	}
}

// SearchOne runs one query — a batch of one — and returns its
// best-match PSM; ok is false when the query is rejected by
// preprocessing or finds no candidate in the precursor window.
func (e *Engine) SearchOne(q *spectrum.Spectrum) (fdr.PSM, bool, error) {
	pq, ok, err := e.Prepare(q)
	if err != nil || !ok {
		return fdr.PSM{}, false, err
	}
	psms, oks := e.SearchPrepared([]PreparedQuery{pq})
	return psms[0], oks[0], nil
}

// SearchPrepared scores prepared queries through one batch sweep: the
// searcher sweeps each cache-resident row block with every query whose
// window covers it, so the packed reference store streams from memory
// once per batch instead of once per query. It returns one slot per
// input: ok[i] is false when query i's range produced no match. With
// the exact searcher, per-query results are independent of batch
// composition and order; the noisy searcher draws its error stream in
// batch query order (see Searcher), so its results are per-seed
// reproducible for a fixed batching, but not batch-invariant.
func (e *Engine) SearchPrepared(qs []PreparedQuery) ([]fdr.PSM, []bool) {
	return e.SearchPreparedTraced(qs, nil)
}

// SearchPreparedTraced is SearchPrepared with per-stage tracing (see
// TracedSearchEngine): a non-nil tr collects per-tier and merge
// timings and row counters from the sweep. Timing never alters control
// flow, so results are bit-identical to the untraced call.
func (e *Engine) SearchPreparedTraced(qs []PreparedQuery, tr *obsv.Trace) ([]fdr.PSM, []bool) {
	psms := make([]fdr.PSM, len(qs))
	oks := make([]bool, len(qs))
	if len(qs) == 0 {
		return psms, oks
	}
	for i, top := range e.batchTopK(qs, tr) {
		if len(top) == 0 {
			continue
		}
		psms[i] = e.psmFor(qs[i], top[0])
		oks[i] = true
	}
	return psms, oks
}

// batchTopK hands the prepared queries' hypervectors and candidate row
// ranges to the searcher.
func (e *Engine) batchTopK(qs []PreparedQuery, tr *obsv.Trace) [][]hdc.Match {
	hvs := make([]hdc.BinaryHV, len(qs))
	ranges := make([]hdc.RowRange, len(qs))
	for i, pq := range qs {
		hvs[i] = pq.HV
		ranges[i] = hdc.RowRange{Lo: pq.Lo, Hi: pq.Hi}
	}
	return e.searcher.BatchTopKRangeTraced(hvs, ranges, e.params.TopK, tr)
}

// TopKPrepared returns the full top-k match list of one prepared
// query — the list SearchOne's PSM is the head of, with indices in
// mass-rank row space. It is the single-engine leg of the cross-path
// conformance contract: every way of reaching the sweep (alone,
// batched, cascade, partitioned, served) must reproduce this list bit
// for bit.
func (e *Engine) TopKPrepared(pq PreparedQuery) []hdc.Match {
	return e.batchTopK([]PreparedQuery{pq}, nil)[0]
}

// window returns the precursor window for a query mass: the open
// window, or the narrow standard-search window around the mass.
func (e *Engine) window(queryMass float64) units.MassWindow {
	return e.params.queryWindow(queryMass)
}

// queryWindow returns the precursor window for a query mass under
// these params — shared by the single-store and partitioned engines.
func (p Params) queryWindow(queryMass float64) units.MassWindow {
	if p.Open {
		return p.Window
	}
	return units.StandardWindow(queryMass, p.StandardTol)
}

// SearchAll runs every query and returns the PSM list (one best match
// per searchable query).
func (e *Engine) SearchAll(queries []*spectrum.Spectrum) ([]fdr.PSM, error) {
	psms := make([]fdr.PSM, 0, len(queries))
	for _, q := range queries {
		psm, ok, err := e.SearchOne(q)
		if err != nil {
			return nil, err
		}
		if ok {
			psms = append(psms, psm)
		}
	}
	return psms, nil
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

// BuildExact constructs the ideal (software) engine: exact ID-Level
// encoding with chunked levels and exact Hamming search. It returns
// the engine and the encoder used for the library so callers can
// reuse or wrap it.
func BuildExact(p Params, library []*spectrum.Spectrum) (*Engine, *hdc.Encoder, error) {
	ids, levels, err := accel.NewEncoderComponents(p.Accel)
	if err != nil {
		return nil, nil, err
	}
	enc, err := hdc.NewEncoder(ids, levels)
	if err != nil {
		return nil, nil, err
	}
	lib, err := BuildLibrary(library, p, enc)
	if err != nil {
		return nil, nil, err
	}
	searcher, err := hdc.NewShardedSearcher(lib.HVs, p.ShardSize, p.cascadeConfig())
	if err != nil {
		return nil, nil, err
	}
	engine, err := NewEngine(p, lib, enc, searcher)
	if err != nil {
		return nil, nil, err
	}
	return engine, enc, nil
}

// NewExactEngineFromLibrary wires the exact (software) engine over an
// already-encoded library — the load path of the persistent library
// index. The query encoder is rebuilt deterministically from p.Accel
// (item memories and level sets are seeded), and the sharded searcher
// is packed (copied) straight from the library's stored hypervectors: no
// spectrum is re-preprocessed or re-encoded, so construction is
// bounded by one pass over the packed words instead of the full
// encoding pipeline. p must carry the same encoder-identity fields
// (D, Q, NumChunks, IDPrecision, NumBins, Seed, binner, preprocessing)
// the library was built with; query-time fields (window, TopK,
// FDRAlpha, ShardSize) are free to differ.
func NewExactEngineFromLibrary(p Params, lib *Library) (*Engine, *hdc.Encoder, error) {
	ids, levels, err := accel.NewEncoderComponents(p.Accel)
	if err != nil {
		return nil, nil, err
	}
	enc, err := hdc.NewEncoder(ids, levels)
	if err != nil {
		return nil, nil, err
	}
	if lib == nil || lib.Len() == 0 {
		return nil, nil, fmt.Errorf("core: empty library")
	}
	searcher, err := hdc.NewShardedSearcher(lib.HVs, p.ShardSize, p.cascadeConfig())
	if err != nil {
		return nil, nil, err
	}
	engine, err := NewEngine(p, lib, enc, searcher)
	if err != nil {
		return nil, nil, err
	}
	return engine, enc, nil
}

// NewExactEngineFromPacked wires the exact engine over an
// already-encoded library whose hypervectors are views into one
// contiguous packed word block — the zero-copy path of a memory-mapped
// library index (libindex.OpenFile). The sharded searcher aliases the
// block instead of copying it (hdc.NewShardedSearcherFromPacked), so
// under a single-tier layout engine construction touches no word pages
// at all, and under a cascade layout only the tier-A prefixes are
// copied to the heap while tier B faults in lazily from the mapping.
// The block must stay alive (and mapped) for the engine's lifetime.
func NewExactEngineFromPacked(p Params, lib *Library, block []uint64) (*Engine, *hdc.Encoder, error) {
	ids, levels, err := accel.NewEncoderComponents(p.Accel)
	if err != nil {
		return nil, nil, err
	}
	enc, err := hdc.NewEncoder(ids, levels)
	if err != nil {
		return nil, nil, err
	}
	if lib == nil || lib.Len() == 0 {
		return nil, nil, fmt.Errorf("core: empty library")
	}
	searcher, err := hdc.NewShardedSearcherFromPacked(block, p.Accel.D, p.ShardSize, p.cascadeConfig())
	if err != nil {
		return nil, nil, err
	}
	if searcher.Len() != lib.Len() {
		return nil, nil, fmt.Errorf("core: packed block holds %d rows but library has %d entries", searcher.Len(), lib.Len())
	}
	engine, err := NewEngine(p, lib, enc, searcher)
	if err != nil {
		return nil, nil, err
	}
	return engine, enc, nil
}

// NoiseSpec describes error injection for robustness studies: the
// encoding bit-error rate applies to query and reference encodings,
// RefStorageBER to stored references, and SearchSigma to similarity
// scores.
type NoiseSpec struct {
	// EncodeBER flips each encoded bit with this probability.
	EncodeBER float64
	// RefStorageBER flips stored reference bits once at build time.
	RefStorageBER float64
	// SearchSigma perturbs each similarity score (in bits).
	SearchSigma float64
	// Seed drives the injection.
	Seed int64
}

// BuildNoisy constructs an engine whose encoder and searcher replay
// the given error statistics — either characterized from the chip
// simulation (accel.Characterize) or swept explicitly (Fig. 11).
func BuildNoisy(p Params, library []*spectrum.Spectrum, spec NoiseSpec) (*Engine, error) {
	ids, levels, err := accel.NewEncoderComponents(p.Accel)
	if err != nil {
		return nil, err
	}
	ideal, err := hdc.NewEncoder(ids, levels)
	if err != nil {
		return nil, err
	}
	model := accel.NoisyModel{EncodeBER: spec.EncodeBER, SearchSigma: spec.SearchSigma}
	noisyEnc := accel.NewNoisyEncoder(ideal, model, spec.Seed)
	lib, err := BuildLibrary(library, p, noisyEnc)
	if err != nil {
		return nil, err
	}
	if spec.RefStorageBER > 0 {
		lib.InjectStorageErrors(spec.RefStorageBER, rand.New(rand.NewSource(spec.Seed+1)))
	}
	// The noisy searcher bulk-scores full similarities, so the cascade
	// layout is transparent to it; the knobs are threaded anyway so
	// the packed layout matches the exact engine's.
	exact, err := hdc.NewShardedSearcher(lib.HVs, p.ShardSize, p.cascadeConfig())
	if err != nil {
		return nil, err
	}
	searcher := accel.NewNoisySearcher(exact, model, spec.Seed+2)
	return NewEngine(p, lib, noisyEnc, searcher)
}
