// Package hyperoms reimplements the HyperOMS baseline [12]: open
// modification search with classic binary hyperdimensional computing —
// 1-bit ID hypervectors, flip-based (non-chunked) level hypervectors,
// exact Hamming search. On the original system this ran as massively
// parallel integer kernels on a GPU; here it is the exact software
// algorithm, serving as the "ideal HD" comparator for this work's
// multi-bit, chunked, in-RRAM variant (Figs. 10–12).
package hyperoms

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fdr"
	"repro/internal/hdc"
	"repro/internal/spectrum"
	"repro/internal/units"
)

// Params configures a HyperOMS engine.
type Params struct {
	// D is the hypervector dimension (HyperOMS default: 8192).
	D int
	// Q is the number of intensity levels.
	Q int
	// Preprocess and Binner match the shared evaluation settings.
	Preprocess spectrum.PreprocessConfig
	Binner     spectrum.Binner
	// Window is the open precursor window.
	Window units.MassWindow
	// FDRAlpha is the acceptance level.
	FDRAlpha float64
	// Seed drives item-memory generation.
	Seed int64
}

// DefaultParams returns the HyperOMS configuration used in the
// evaluation.
func DefaultParams() Params {
	return Params{
		D:          8192,
		Q:          16,
		Preprocess: spectrum.DefaultPreprocess(),
		Binner:     spectrum.DefaultBinner(),
		Window:     units.OpenWindow(-150, +500),
		FDRAlpha:   0.01,
		Seed:       77,
	}
}

// Engine is a built HyperOMS search engine. It reuses the core OMS
// machinery with binary IDs and flip-based levels.
type Engine struct {
	inner *core.Engine
}

// NewEngine encodes the library with binary ID-Level encoding.
func NewEngine(p Params, library []*spectrum.Spectrum) (*Engine, error) {
	if p.D <= 0 {
		return nil, fmt.Errorf("hyperoms: non-positive dimension %d", p.D)
	}
	ids := hdc.NewItemMemory(p.D, p.Binner.NumBins(), 1, p.Seed)
	levels := hdc.NewFlipLevelSet(p.D, p.Q, p.Seed+1)
	enc, err := hdc.NewEncoder(ids, levels)
	if err != nil {
		return nil, err
	}
	cp := core.DefaultParams()
	cp.Accel.D = p.D
	cp.Accel.Q = p.Q
	cp.Accel.IDPrecision = 1
	cp.Accel.NumBins = p.Binner.NumBins()
	cp.Preprocess = p.Preprocess
	cp.Binner = p.Binner
	cp.Window = p.Window
	cp.FDRAlpha = p.FDRAlpha
	lib, err := core.BuildLibrary(library, cp, enc)
	if err != nil {
		return nil, err
	}
	searcher, err := hdc.NewShardedSearcher(lib.HVs, 0, hdc.CascadeConfig{})
	if err != nil {
		return nil, err
	}
	inner, err := core.NewEngine(cp, lib, enc, searcher)
	if err != nil {
		return nil, err
	}
	return &Engine{inner: inner}, nil
}

// SearchAll runs all queries, returning one best-match PSM per
// searchable query.
func (e *Engine) SearchAll(queries []*spectrum.Spectrum) ([]fdr.PSM, error) {
	return e.inner.SearchAll(queries)
}

// SearchAllParallel is SearchAll through the core batch path: the
// library is mass-ordered, so each query's precursor window is a
// contiguous row range that the sharded exact engine streams through
// its block-major batch kernel across CPU cores — matching HyperOMS's
// original GPU query-level parallelism without materializing
// per-query candidate lists.
func (e *Engine) SearchAllParallel(queries []*spectrum.Spectrum) ([]fdr.PSM, error) {
	return e.inner.SearchAllParallel(queries)
}

// Run searches all queries and applies FDR filtering.
func (e *Engine) Run(queries []*spectrum.Spectrum) (fdr.Result, error) {
	return e.inner.Run(queries)
}

// RunParallel is Run using the parallel batch search path.
func (e *Engine) RunParallel(queries []*spectrum.Spectrum) (fdr.Result, error) {
	return e.inner.RunParallel(queries)
}

// Library exposes the encoded library (for size accounting).
func (e *Engine) Library() *core.Library { return e.inner.Library() }
