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

// NewEngine encodes the library with binary ID-Level encoding and
// returns the core OMS engine over it: the same machinery as this
// work's, with binary IDs and flip-based levels.
func NewEngine(p Params, library []*spectrum.Spectrum) (*core.Engine, error) {
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
	searcher, err := hdc.NewShardedSearcher(lib.HVs, 0)
	if err != nil {
		return nil, err
	}
	return core.NewEngine(cp, lib, enc, searcher)
}
