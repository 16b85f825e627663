// Package core is the end-to-end open modification search engine of
// the paper (Fig. 2): preprocessing → ID-Level HD encoding →
// precursor-window candidate selection → Hamming similarity search →
// FDR filtering. There is one Engine: the mass-sorted library is a
// list of partitions (one for a library built in memory or stored in a
// single index file, several for a partitioned, incrementally updated
// index), a precursor window is a contiguous row range in each
// partition it reaches, and every search is one Engine.Search: a
// batch range call per partition followed by an exact merge. The engine
// is always the exact software one ("ideal"); BuildNoisy gives it data
// to replay the simulated MLC RRAM chip's characterized error
// statistics, or an explicit error spec for the robustness study
// (Fig. 11): bit flips on the encodings and stored references, and
// noise on every similarity score.
package core

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"repro/internal/hdc"
	"repro/internal/obsv"
	"repro/internal/spectrum"
	"repro/internal/units"
)

// SearchEngine is the part of Engine the serving layer
// (internal/serve) drives: Prepare and Search. It is an interface so
// tests can substitute a stub.
type SearchEngine interface {
	Prepare(q *spectrum.Spectrum) (PreparedQuery, bool, error)
	Search(ctx context.Context, qs []PreparedQuery, tr *obsv.Trace) ([]SearchResult, error)
}

// Params configures an OMS engine.
type Params struct {
	// Accel is the operating point: the hypervector space the engine
	// encodes in (NewEncoder) and the chip parameters the simulated
	// accelerator reads. The field keeps its name because every stored
	// index's params JSON spells it.
	Accel OperatingPoint
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
	// FDRAlpha is the FDR acceptance level (paper: 0.01).
	FDRAlpha float64
}

// DefaultParams returns the paper's evaluation configuration.
func DefaultParams() Params {
	binner := spectrum.DefaultBinner()
	op := DefaultOperatingPoint()
	op.NumBins = binner.NumBins()
	return Params{
		Accel:       op,
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
// rank and every precursor window selects a contiguous index range
// [lo, hi) (CandidateRange). The library owns its rows as one packed
// block in the same order (Rows), which every searcher over it aliases,
// so a candidate set streams as a contiguous row range and each
// reference is held once.
type Library struct {
	// Entries holds metadata parallel to the packed rows, sorted by
	// ascending precursor mass.
	Entries []LibraryEntry
	// masses is the entries' Mass column, the one CandidateRange
	// searches: 8 bytes a row where an entry is 48.
	masses []float64
	// HVs are the encoded reference hypervectors, parallel to Entries:
	// a hand-made library's input to SortByMass, which, like
	// BuildLibrary, leaves views of the packed rows here. A library over
	// stored rows (LibraryOver) has none; the engine and the index read
	// Rows or Row.
	HVs []hdc.BinaryHV
	// rows is the packed block: row i, entry i's hypervector, is
	// rows[i*w : (i+1)*w] with w = hdc.WordsPerHV(d).
	rows []uint64
	d    int
	// srcPos is the permutation recorded by the mass sort: srcPos[i]
	// is the position entry i (equivalently: packed row i) occupied in
	// the original build order of the kept spectra.
	srcPos []int
	// Skipped counts reference spectra rejected by preprocessing.
	Skipped int
}

// encodeScratch holds the intermediate lists of one spectrum's encode,
// reused from spectrum to spectrum through scratchPool: the
// preprocessed peaks, their bins and the quantized levels.
type encodeScratch struct {
	peaks   []spectrum.Peak
	entries []spectrum.Entry
	levels  []spectrum.QuantizedPeak
}

var scratchPool = sync.Pool{New: func() any { return new(encodeScratch) }}

// quantize preprocesses, bins and quantizes s in sc's buffers — the
// steps of Preprocess, Vectorize and EncodeVector before the encode, to
// the same values — leaving the encoder's input in sc.levels and
// allocating nothing once the buffers have grown. ok is false when
// preprocessing rejects s.
func (sc *encodeScratch) quantize(p *Params, enc *hdc.Encoder, s *spectrum.Spectrum) (ok bool) {
	if sc.peaks, ok = p.Preprocess.AppendPreprocess(sc.peaks[:0], s); !ok {
		return false
	}
	sc.entries = p.Binner.AppendVectorize(sc.entries[:0], sc.peaks)
	sc.levels = sc.vector(p).AppendQuantize(sc.levels[:0], enc.Levels.Q())
	return true
}

// vector is the binned vector the last quantize left in sc.
func (sc *encodeScratch) vector(p *Params) spectrum.Vector {
	return spectrum.Vector{Entries: sc.entries, NumBins: p.Binner.NumBins()}
}

// BuildLibrary preprocesses, vectorizes and encodes the reference
// spectra through hdc.ForEach, so the library is the same at any
// GOMAXPROCS. Each spectrum is encoded straight into its row of the
// library's block, which is then sorted by mass in place: the rows are
// held twice only while a build that skipped spectra moves them into
// an exact block. Spectra failing preprocessing are skipped (counted
// in Skipped), matching library-building practice; an encode failure
// is reported for the first failing spectrum in input order.
func BuildLibrary(spectra []*spectrum.Spectrum, p Params, enc *hdc.Encoder) (*Library, error) {
	if enc == nil {
		return nil, fmt.Errorf("core: nil encoder")
	}
	d := enc.D()
	w := hdc.WordsPerHV(d)
	entries := make([]LibraryEntry, len(spectra))
	rows := make([]uint64, len(spectra)*w)
	kept := make([]bool, len(spectra))
	err := hdc.ForEach(len(spectra), false, func(i int) error {
		s := spectra[i]
		sc := scratchPool.Get().(*encodeScratch)
		defer scratchPool.Put(sc)
		if !sc.quantize(&p, enc, s) {
			return nil
		}
		if err := enc.EncodeInto(hdc.BinaryHV{D: d, Words: rows[i*w : (i+1)*w]}, sc.levels); err != nil {
			return fmt.Errorf("core: encoding library spectrum %s: %w", s.ID, err)
		}
		entries[i] = LibraryEntry{
			ID:      s.ID,
			Peptide: s.Peptide,
			IsDecoy: s.IsDecoy,
			Mass:    s.PrecursorMass(),
		}
		kept[i] = true
		return nil
	})
	if err != nil {
		return nil, err
	}
	n := 0
	for i, ok := range kept {
		if ok {
			entries[n] = entries[i]
			copy(rows[n*w:(n+1)*w], rows[i*w:(i+1)*w])
			n++
		}
	}
	if n == 0 {
		return nil, fmt.Errorf("core: empty library after preprocessing")
	}
	lib := &Library{Entries: entries[:n], rows: rows[:n*w], d: d, Skipped: len(spectra) - n}
	if lib.Skipped > 0 { // leave no capacity for the skipped rows
		lib.rows = append(make([]uint64, 0, n*w), lib.rows...)
	}
	lib.sortRows()
	lib.viewRows()
	return lib, nil
}

// SortByMass packs a hand-made library's HVs into its row block, sorts
// entries and rows by ascending precursor mass (stable: equal masses
// keep their order), records the permutation back to that order
// (SourcePos) and leaves HVs as views of the packed rows. A Library
// constructed by hand must call it before it is searched, saved or
// asked for CandidateRange or SourcePos. It panics when HVs and Entries
// differ in length or the hypervectors in dimension.
func (l *Library) SortByMass() {
	if len(l.HVs) != len(l.Entries) {
		panic(fmt.Sprintf("core: library has %d entries but %d hypervectors", len(l.Entries), len(l.HVs)))
	}
	l.rows, l.d = hdc.PackRows(l.HVs), 0
	if len(l.HVs) > 0 {
		l.d = l.HVs[0].D
	}
	l.sortRows()
	l.viewRows()
}

// sortRows sorts the entries and their packed rows by ascending
// precursor mass (stable), moving the rows in place, and records the
// permutation (srcPos).
func (l *Library) sortRows() {
	perm := make([]int, len(l.Entries))
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(a, b int) bool {
		return l.Entries[perm[a]].Mass < l.Entries[perm[b]].Mass
	})
	entries := make([]LibraryEntry, len(l.Entries))
	for rank, src := range perm {
		entries[rank] = l.Entries[src]
	}
	// Row rank takes row perm[rank]: walk each cycle of perm with its
	// first row held aside, so one row's worth of words is the only copy.
	w := hdc.WordsPerHV(l.d)
	row := func(i int) []uint64 { return l.rows[i*w : (i+1)*w] }
	held := make([]uint64, w)
	placed := make([]bool, len(perm))
	for start := range perm {
		if placed[start] {
			continue
		}
		copy(held, row(start))
		r := start
		for ; perm[r] != start; r = perm[r] {
			copy(row(r), row(perm[r]))
			placed[r] = true
		}
		copy(row(r), held)
		placed[r] = true
	}
	l.Entries, l.srcPos = entries, perm
	l.masses = massColumn(entries)
}

// massColumn returns the entries' masses.
func massColumn(entries []LibraryEntry) []float64 {
	m := make([]float64, len(entries))
	for i, e := range entries {
		m[i] = e.Mass
	}
	return m
}

// viewRows sets HVs to views of the packed rows.
func (l *Library) viewRows() {
	l.HVs = make([]hdc.BinaryHV, l.Len())
	for i := range l.HVs {
		l.HVs[i] = l.Row(i)
	}
}

// Len returns the number of encoded references.
func (l *Library) Len() int { return len(l.Entries) }

// SourcePos returns the position entry i (= packed row i)
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

// LibraryOver assembles a Library over rows already packed in mass
// order — mass-ordered entries, their d-dimensional rows back to back,
// the SourcePositions permutation and the skipped count — without
// re-running preprocessing or encoding. The rows are aliased, not
// copied (the load path of the persistent library index hands it a
// mapped words section), and no per-row header is made: HVs stays nil.
// BuildLibrary's invariants (ascending mass order, srcPos a
// permutation, one row per entry) are validated rather than re-derived.
func LibraryOver(entries []LibraryEntry, rows []uint64, d int, srcPos []int, skipped int) (*Library, error) {
	n := len(entries)
	if n == 0 {
		return nil, fmt.Errorf("core: restoring empty library")
	}
	if w := hdc.WordsPerHV(d); d <= 0 || len(rows) != n*w || len(srcPos) != n {
		return nil, fmt.Errorf("core: restoring library: %d entries, %d packed words (%d per row at D=%d), %d source positions",
			n, len(rows), w, d, len(srcPos))
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
	return &Library{Entries: entries, masses: massColumn(entries), rows: rows, d: d, srcPos: srcPos, Skipped: skipped}, nil
}

// Rows returns the packed row block, row-major in mass order
// (len = Len() × hdc.WordsPerHV(D)); nil before SortByMass has packed a
// hand-made library.
func (l *Library) Rows() []uint64 { return l.rows }

// Row returns packed row i as a hypervector view (len == cap, so an
// append copies).
func (l *Library) Row(i int) hdc.BinaryHV {
	w := hdc.WordsPerHV(l.d)
	return hdc.BinaryHV{D: l.d, Words: l.rows[i*w : (i+1)*w : (i+1)*w]}
}

// CandidateRange returns the half-open entry-index range [lo, hi) of
// references whose mass difference to the query (queryMass − refMass)
// lies within the window — the open-search candidate set. Entries are
// mass-sorted, so two binary searches of the mass column suffice:
// O(log n) time, O(1) space, no per-query slice allocation.
func (l *Library) CandidateRange(queryMass float64, w units.MassWindow) (lo, hi int) {
	// queryMass − refMass ∈ [w.Lower, w.Upper]
	// ⇔ refMass ∈ [queryMass − w.Upper, queryMass − w.Lower].
	mLo := queryMass - w.Upper
	mHi := queryMass - w.Lower
	m := l.masses
	lo = sort.Search(len(m), func(i int) bool { return m[i] >= mLo })
	hi = lo + sort.Search(len(m)-lo, func(i int) bool { return m[lo+i] > mHi })
	return lo, hi
}

// InjectStorageErrors flips every stored reference bit with the given
// probability, modelling hypervector storage errors (Figs. 7/11). The
// rows are modified in place, so this precedes any searcher over them.
func (l *Library) InjectStorageErrors(rate float64, rng *rand.Rand) {
	if rate <= 0 {
		return
	}
	for i := range l.Len() {
		l.Row(i).FlipBits(rate, rng)
	}
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

// BuildNoisy constructs an exact engine that replays the given error
// statistics — either characterized from the chip simulation
// (accel.Characterize) or swept explicitly (Fig. 11). The library is
// encoded exactly, on every CPU, and its encodings then flipped in
// build order; the stored references take storage errors from
// spec.Seed+1; each query's encoding is flipped as it is prepared and
// every score perturbed as it is swept (see noise).
func BuildNoisy(p Params, library []*spectrum.Spectrum, spec NoiseSpec) (*Engine, error) {
	enc, err := NewEncoder(p.Accel)
	if err != nil {
		return nil, err
	}
	lib, err := BuildLibrary(library, p, enc)
	if err != nil {
		return nil, err
	}
	nz := newNoise(spec)
	byBuild := make([]int, lib.Len())
	for row, pos := range lib.srcPos {
		byBuild[pos] = row
	}
	for _, row := range byBuild {
		nz.flip(lib.Row(row))
	}
	if spec.RefStorageBER > 0 {
		lib.InjectStorageErrors(spec.RefStorageBER, rand.New(rand.NewSource(spec.Seed+1)))
	}
	e, err := newEngine(p, enc, oneSpec(lib))
	if err != nil {
		return nil, err
	}
	e.noise = nz
	return e, nil
}
