// Package annsolo reimplements the ANN-SoLo baseline [1]: a two-stage
// cascade open modification search over binned spectrum vectors.
// Stage one is a standard search with a narrow precursor window and
// cosine scoring; queries unidentified in stage one proceed to an open
// search where candidates are prefiltered with an approximate
// nearest-neighbour index (an inverted bin index here) and scored with
// the shifted dot product, which lets fragment peaks match either at
// their own m/z or shifted by the precursor mass difference.
//
// The reimplementation serves as a search-quality comparator (the
// Venn analysis of Fig. 10) and as the CPU/GPU cost anchor of the
// performance model (Fig. 12).
package annsolo

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/fdr"
	"repro/internal/spectrum"
	"repro/internal/units"
)

// Params configures the cascade search.
type Params struct {
	// Preprocess cleans spectra before vectorization.
	Preprocess spectrum.PreprocessConfig
	// Binner maps m/z to vector bins.
	Binner spectrum.Binner
	// StandardTol is the stage-one precursor tolerance.
	StandardTol units.Tolerance
	// OpenWindow is the stage-two precursor window.
	OpenWindow units.MassWindow
	// StandardScoreMin is the cosine score a stage-one match needs to
	// stop the cascade for that query.
	StandardScoreMin float64
	// MaxCandidates bounds how many ANN candidates stage two scores
	// per query (ANN-SoLo's candidate list).
	MaxCandidates int
	// FDRAlpha is the acceptance level.
	FDRAlpha float64
}

// DefaultParams mirrors the evaluation settings used for the HD
// engine so comparisons are apples-to-apples.
func DefaultParams() Params {
	return Params{
		Preprocess:       spectrum.DefaultPreprocess(),
		Binner:           spectrum.DefaultBinner(),
		StandardTol:      units.Da(0.05),
		OpenWindow:       units.OpenWindow(-150, +500),
		StandardScoreMin: 0.7,
		MaxCandidates:    512,
		FDRAlpha:         0.01,
	}
}

type entry struct {
	id      string
	peptide string
	isDecoy bool
	mass    float64
	vec     spectrum.Vector
}

// Engine is a built ANN-SoLo-style search engine.
type Engine struct {
	params  Params
	entries []entry
	byMass  []int
	// inverted maps bin -> indices of library entries with a peak in
	// that bin (the ANN candidate index).
	inverted map[int][]int
	// Skipped counts library spectra rejected by preprocessing.
	Skipped int
}

// NewEngine preprocesses and indexes the library.
func NewEngine(p Params, library []*spectrum.Spectrum) (*Engine, error) {
	e := &Engine{params: p, inverted: make(map[int][]int)}
	for _, s := range library {
		pre, err := p.Preprocess.Preprocess(s)
		if err != nil {
			e.Skipped++
			continue
		}
		v := p.Binner.Vectorize(pre).Normalized()
		idx := len(e.entries)
		e.entries = append(e.entries, entry{
			id: s.ID, peptide: s.Peptide, isDecoy: s.IsDecoy,
			mass: s.PrecursorMass(), vec: v,
		})
		for _, ent := range v.Entries {
			e.inverted[ent.Bin] = append(e.inverted[ent.Bin], idx)
		}
	}
	if len(e.entries) == 0 {
		return nil, fmt.Errorf("annsolo: empty library after preprocessing")
	}
	e.byMass = make([]int, len(e.entries))
	for i := range e.byMass {
		e.byMass[i] = i
	}
	sort.Slice(e.byMass, func(a, b int) bool {
		return e.entries[e.byMass[a]].mass < e.entries[e.byMass[b]].mass
	})
	return e, nil
}

// massRange returns indexed entries with mass in [lo, hi].
func (e *Engine) massRange(lo, hi float64) []int {
	first := sort.Search(len(e.byMass), func(i int) bool {
		return e.entries[e.byMass[i]].mass >= lo
	})
	var out []int
	for i := first; i < len(e.byMass); i++ {
		idx := e.byMass[i]
		if e.entries[idx].mass > hi {
			break
		}
		out = append(out, idx)
	}
	return out
}

// SearchOne runs the cascade for one query; ok is false if the query
// is unsearchable (preprocessing failure or no candidates).
func (e *Engine) SearchOne(q *spectrum.Spectrum) (fdr.PSM, bool, error) {
	pre, err := e.params.Preprocess.Preprocess(q)
	if err != nil {
		return fdr.PSM{}, false, nil
	}
	qv := e.params.Binner.Vectorize(pre).Normalized()
	mass := q.PrecursorMass()

	// Stage 1: standard search, exact cosine over the narrow window.
	d := e.params.StandardTol.Delta(mass)
	if best, found := e.bestCosine(qv, e.massRange(mass-d, mass+d)); found &&
		best.score >= e.params.StandardScoreMin {
		return e.toPSM(q.ID, best, mass), true, nil
	}

	// Stage 2: open search. ANN prefilter by shared-bin count, then
	// shifted-dot scoring of the shortlist.
	lo := mass - e.params.OpenWindow.Upper
	hi := mass - e.params.OpenWindow.Lower
	eligible := e.massRange(lo, hi)
	if len(eligible) == 0 {
		return fdr.PSM{}, false, nil
	}
	shortlist := e.annCandidates(qv, mass, eligible)
	best, found := e.bestShifted(qv, mass, shortlist)
	if !found {
		return fdr.PSM{}, false, nil
	}
	return e.toPSM(q.ID, best, mass), true, nil
}

type hit struct {
	index int
	score float64
}

func (e *Engine) toPSM(queryID string, h hit, queryMass float64) fdr.PSM {
	ent := e.entries[h.index]
	return fdr.PSM{
		QueryID:   queryID,
		Peptide:   ent.peptide,
		Score:     h.score,
		IsDecoy:   ent.isDecoy,
		MassShift: queryMass - ent.mass,
	}
}

func (e *Engine) bestCosine(qv spectrum.Vector, candidates []int) (hit, bool) {
	best := hit{index: -1, score: math.Inf(-1)}
	for _, i := range candidates {
		if s := spectrum.Dot(qv, e.entries[i].vec); s > best.score {
			best = hit{index: i, score: s}
		}
	}
	return best, best.index >= 0
}

// annCandidates ranks the eligible entries by the number of query bins
// they share (via the inverted index) and returns the MaxCandidates
// best — the approximate-nearest-neighbour shortlist. An undersized
// shortlist is padded with the mass-nearest eligible entries.
func (e *Engine) annCandidates(qv spectrum.Vector, queryMass float64, eligible []int) []int {
	if len(eligible) <= e.params.MaxCandidates {
		return eligible
	}
	inWindow := make(map[int]bool, len(eligible))
	for _, i := range eligible {
		inWindow[i] = true
	}
	counts := make(map[int]int)
	for _, ent := range qv.Entries {
		for _, i := range e.inverted[ent.Bin] {
			if inWindow[i] {
				counts[i]++
			}
		}
	}
	type kv struct{ idx, count int }
	ranked := make([]kv, 0, len(counts))
	for i, c := range counts {
		ranked = append(ranked, kv{i, c})
	}
	sort.Slice(ranked, func(a, b int) bool {
		if ranked[a].count != ranked[b].count {
			return ranked[a].count > ranked[b].count
		}
		return ranked[a].idx < ranked[b].idx
	})
	n := e.params.MaxCandidates
	if n > len(ranked) {
		n = len(ranked)
	}
	out := make([]int, n)
	for i := 0; i < n; i++ {
		out[i] = ranked[i].idx
	}
	// Shared-bin counting finds unmodified-dominant matches; heavily
	// modified spectra may share few bins. Pad an undersized shortlist
	// with the eligible entries nearest the query's precursor mass
	// (ties by ascending index), so the padding favors candidates a
	// small modification could explain rather than whichever entries
	// happen to sit at the light end of the window.
	if len(out) < e.params.MaxCandidates {
		used := make(map[int]bool, len(out))
		for _, i := range out {
			used[i] = true
		}
		type padEntry struct {
			idx  int
			dist float64
		}
		pad := make([]padEntry, 0, len(eligible)-len(out))
		for _, i := range eligible {
			if !used[i] {
				pad = append(pad, padEntry{idx: i, dist: math.Abs(e.entries[i].mass - queryMass)})
			}
		}
		sort.Slice(pad, func(a, b int) bool {
			if pad[a].dist != pad[b].dist {
				return pad[a].dist < pad[b].dist
			}
			return pad[a].idx < pad[b].idx
		})
		if room := e.params.MaxCandidates - len(out); len(pad) > room {
			pad = pad[:room]
		}
		for _, p := range pad {
			out = append(out, p.idx)
		}
	}
	return out
}

func (e *Engine) bestShifted(qv spectrum.Vector, queryMass float64, candidates []int) (hit, bool) {
	best := hit{index: -1, score: math.Inf(-1)}
	for _, i := range candidates {
		ent := e.entries[i]
		shiftBins := int(math.Round((queryMass - ent.mass) / e.params.Binner.BinWidth))
		s := spectrum.ShiftedDot(qv, ent.vec, shiftBins)
		if s > best.score {
			best = hit{index: i, score: s}
		}
	}
	return best, best.index >= 0
}

// SearchAll runs the cascade over all queries.
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

// Run searches all queries and applies FDR filtering.
func (e *Engine) Run(queries []*spectrum.Spectrum) (fdr.Result, error) {
	psms, err := e.SearchAll(queries)
	if err != nil {
		return fdr.Result{}, err
	}
	return fdr.Filter(psms, e.params.FDRAlpha)
}
