package core

import (
	"cmp"
	"context"
	"fmt"
	"math"

	"repro/internal/fdr"
	"repro/internal/hdc"
	"repro/internal/spectrum"
)

// Rescorer refines HD search results with an exact shifted-dot-product
// pass: the Hamming search produces a top-k candidate shortlist at
// in-memory speed, and the handful of survivors are rescored in the
// original spectral domain (ANN-SoLo's scoring function), combining
// the accelerator's throughput with high-precision final scores. This
// is the hybrid the paper's conclusion gestures at; it is an extension
// beyond the published system, disabled by default.
type Rescorer struct {
	engine *Engine
	lib    *Library
	binner spectrum.Binner
	// vectors[i] is the preprocessed binned vector of library entry i.
	vectors []spectrum.Vector
	// Alpha blends the HD similarity (0) and shifted-dot score (1).
	Alpha float64
}

// NewRescorer builds the spectral-domain vectors for every library
// entry. The library spectra must be the same slice the engine's
// library was built from (order is re-derived through preprocessing,
// skipping the same entries), which only a one-partition engine can
// promise.
func NewRescorer(engine *Engine, library []*spectrum.Spectrum, alpha float64) (*Rescorer, error) {
	if alpha < 0 || alpha > 1 {
		return nil, fmt.Errorf("core: rescore alpha %v outside [0,1]", alpha)
	}
	lib := engine.Library()
	if lib == nil {
		return nil, fmt.Errorf("core: rescoring needs the spectra of one library in build order; the engine holds %d partitions", len(engine.parts))
	}
	r := &Rescorer{engine: engine, lib: lib, binner: engine.params.Binner, Alpha: alpha}
	var built []spectrum.Vector
	for _, s := range library {
		pre, err := engine.params.Preprocess.Preprocess(s)
		if err != nil {
			continue // skipped at library build time too
		}
		built = append(built, r.binner.Vectorize(pre).Normalized())
	}
	if len(built) != lib.Len() {
		return nil, fmt.Errorf("core: rescorer has %d vectors, library has %d entries — pass the same library slice",
			len(built), lib.Len())
	}
	// The library was sorted by ascending mass at build time; apply the
	// recorded permutation so vectors stay parallel to its entries.
	r.vectors = make([]spectrum.Vector, len(built))
	for i := range r.vectors {
		r.vectors[i] = built[lib.SourcePos(i)]
	}
	return r, nil
}

// SearchAll encodes every query through hdc.ForEach, keeping its binned
// vector, shortlists the ones with candidates in one batch sweep and
// rescores each shortlist: one PSM per shortlisted query, in query order.
func (r *Rescorer) SearchAll(queries []*spectrum.Spectrum) ([]fdr.PSM, error) {
	e := r.engine
	pqs := make([]PreparedQuery, len(queries))
	qvs := make([]spectrum.Vector, len(queries))
	err := hdc.ForEach(len(queries), e.noise != nil, func(i int) error {
		q := queries[i]
		hv, ok, err := e.encodeQuery(q, func(v spectrum.Vector) {
			// Normalized, but always a copy: the scratch's vector goes
			// back to the pool, and Normalized returns a zero vector
			// itself.
			qvs[i] = v.Scale(1 / cmp.Or(v.Norm(), 1))
		})
		if err != nil || !ok {
			return err
		}
		mass := q.PrecursorMass()
		// The open window bounds candidates even in standard mode: the
		// shortlist is rescored, so the wider net costs only HD search.
		lo, hi := r.lib.CandidateRange(mass, e.params.Window)
		pqs[i] = PreparedQuery{QueryID: q.ID, HV: hv, Mass: mass, Lo: lo, Hi: hi}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// A rejected query's empty range reaches no row of the one partition.
	shortlists, err := e.Search(context.Background(), pqs, nil)
	if err != nil {
		return nil, err
	}
	psms := make([]fdr.PSM, 0, len(pqs))
	for j, sl := range shortlists {
		if len(sl.Top) == 0 {
			continue
		}
		pq := &pqs[j]
		bestIdx, bestScore := -1, math.Inf(-1)
		for _, m := range sl.Top {
			entry := r.lib.Entries[m.Index]
			shiftBins := int(math.Round((pq.Mass - entry.Mass) / r.binner.BinWidth))
			sd := spectrum.ShiftedDot(qvs[j], r.vectors[m.Index], shiftBins)
			hd := float64(m.Similarity) / e.normD
			score := (1-r.Alpha)*hd + r.Alpha*sd
			if score > bestScore {
				bestIdx, bestScore = m.Index, score
			}
		}
		entry := r.lib.Entries[bestIdx]
		psms = append(psms, fdr.PSM{
			QueryID:   pq.QueryID,
			Peptide:   entry.Peptide,
			Score:     bestScore,
			IsDecoy:   entry.IsDecoy,
			MassShift: pq.Mass - entry.Mass,
		})
	}
	return psms, nil
}

// Run searches and FDR-filters.
func (r *Rescorer) Run(queries []*spectrum.Spectrum) (fdr.Result, error) {
	psms, err := r.SearchAll(queries)
	if err != nil {
		return fdr.Result{}, err
	}
	return fdr.Filter(psms, r.engine.params.FDRAlpha)
}
