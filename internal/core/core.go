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
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

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
	// Skipped counts reference spectra rejected by preprocessing.
	Skipped int
}

// ForEach runs fn(i) for every i in [0, n) — the one fan-out of the
// build and serving stack — and returns the first failing index's error
// in input order. min(GOMAXPROCS, n) workers, the caller among them,
// claim indexes one at a time in input order and stop claiming at the
// first failure; a claimed index always finishes, so every index before
// a failing one has run. With one worker (n <= 1, GOMAXPROCS 1, or
// serial: the noise model draws its seeded query flips in encode order)
// it is a plain ascending loop on the caller that allocates nothing.
func ForEach(n int, serial bool, fn func(i int) error) error {
	workers := min(runtime.GOMAXPROCS(0), n)
	if serial || workers <= 1 {
		for i := range n {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	f := &fanOut{fn: fn, n: n, first: n}
	f.wg.Add(workers)
	for range workers - 1 {
		go f.work()
	}
	f.work()
	f.wg.Wait()
	return f.err
}

// fanOut is one parallel ForEach call: the claim counter and the
// lowest failing index with its error.
type fanOut struct {
	fn    func(int) error
	n     int
	next  atomic.Int64
	wg    sync.WaitGroup
	mu    sync.Mutex
	first int
	err   error
}

func (f *fanOut) work() {
	defer f.wg.Done()
	for i := int(f.next.Add(1)) - 1; i < f.n; i = int(f.next.Add(1)) - 1 {
		if err := f.fn(i); err != nil {
			f.mu.Lock()
			if i < f.first {
				f.first, f.err = i, err
			}
			f.mu.Unlock()
			f.next.Store(int64(f.n)) // no further claims
			return
		}
	}
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

// encode preprocesses, bins, quantizes and encodes s in sc's buffers —
// the steps of Preprocess, Vectorize and EncodeVector, to the same
// bits. ok is false when preprocessing rejects s; the hypervector is
// the one allocation.
func (sc *encodeScratch) encode(p *Params, enc *hdc.Encoder, s *spectrum.Spectrum) (hv hdc.BinaryHV, ok bool, err error) {
	if sc.peaks, ok = p.Preprocess.AppendPreprocess(sc.peaks[:0], s); !ok {
		return hdc.BinaryHV{}, false, nil
	}
	sc.entries = p.Binner.AppendVectorize(sc.entries[:0], sc.peaks)
	sc.levels = sc.vector(p).AppendQuantize(sc.levels[:0], enc.Levels.Q())
	hv, err = enc.Encode(sc.levels)
	return hv, err == nil, err
}

// vector is the binned vector the last encode left in sc.
func (sc *encodeScratch) vector(p *Params) spectrum.Vector {
	return spectrum.Vector{Entries: sc.entries, NumBins: p.Binner.NumBins()}
}

// BuildLibrary preprocesses, vectorizes and encodes the reference
// spectra through ForEach, so the library is the same at any
// GOMAXPROCS. Spectra failing preprocessing are skipped (counted in
// Skipped), matching library-building practice; an encode failure is
// reported for the first failing spectrum in input order.
func BuildLibrary(spectra []*spectrum.Spectrum, p Params, enc *hdc.Encoder) (*Library, error) {
	if enc == nil {
		return nil, fmt.Errorf("core: nil encoder")
	}
	entries := make([]LibraryEntry, len(spectra))
	hvs := make([]hdc.BinaryHV, len(spectra))
	kept := make([]bool, len(spectra))
	err := ForEach(len(spectra), false, func(i int) error {
		s := spectra[i]
		sc := scratchPool.Get().(*encodeScratch)
		hv, ok, err := sc.encode(&p, enc, s)
		scratchPool.Put(sc)
		if err != nil {
			return fmt.Errorf("core: encoding library spectrum %s: %w", s.ID, err)
		}
		if !ok {
			return nil
		}
		hvs[i] = hv
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
			entries[n], hvs[n] = entries[i], hvs[i]
			n++
		}
	}
	lib := &Library{Entries: entries[:n], HVs: hvs[:n], Skipped: len(spectra) - n}
	if len(lib.Entries) == 0 {
		return nil, fmt.Errorf("core: empty library after preprocessing")
	}
	lib.SortByMass()
	return lib, nil
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
		nz.flip(lib.HVs[row])
	}
	if spec.RefStorageBER > 0 {
		lib.InjectStorageErrors(spec.RefStorageBER, rand.New(rand.NewSource(spec.Seed+1)))
	}
	e, err := newEngine(p, enc, oneSpec(lib, nil))
	if err != nil {
		return nil, err
	}
	e.noise = nz
	return e, nil
}
