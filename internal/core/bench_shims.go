package core

import (
	"context"

	"repro/internal/fdr"
	"repro/internal/hdc"
	"repro/internal/obsv"
	"repro/internal/spectrum"
)

// The frozen benchmark (bench/) still names what follows: forwards to
// Prepare, Search, LibraryOver and NewPartitionedEngine. ROADMAP item 1
// deletes this file.

// TracedSearchEngine is the engine surface bench/ replays through.
type TracedSearchEngine interface {
	SearchEngine
	SearchPrepared(qs []PreparedQuery) ([]fdr.PSM, []bool)
	SearchPreparedTraced(qs []PreparedQuery, tr *obsv.Trace) ([]fdr.PSM, []bool)
	CascadeStats() (PruneStats, bool)
}

// PruneStats reports that nothing is pruned.
type PruneStats struct{}

// PruneRate is always 0.
func (PruneStats) PruneRate() float64 { return 0 }

// CascadeStats always reports false: every sweep scores whole rows.
func (e *Engine) CascadeStats() (PruneStats, bool) { return PruneStats{}, false }

// SearchOne is SearchAll of one query.
func (e *Engine) SearchOne(q *spectrum.Spectrum) (fdr.PSM, bool, error) {
	psms, err := e.SearchAll([]*spectrum.Spectrum{q})
	if len(psms) == 0 {
		return fdr.PSM{}, false, err
	}
	return psms[0], true, err
}

// SearchPrepared is SearchPreparedTraced without a trace.
func (e *Engine) SearchPrepared(qs []PreparedQuery) ([]fdr.PSM, []bool) {
	return e.SearchPreparedTraced(qs, nil)
}

// SearchPreparedTraced is an uncancellable Search split into PSMs and
// found flags.
func (e *Engine) SearchPreparedTraced(qs []PreparedQuery, tr *obsv.Trace) ([]fdr.PSM, []bool) {
	res, _ := e.Search(context.Background(), qs, tr)
	psms, oks := make([]fdr.PSM, len(res)), make([]bool, len(res))
	for i, r := range res {
		psms[i], oks[i] = r.PSM, len(r.Top) > 0
	}
	return psms, oks
}

// NewExactEngineFromPacked is NewPartitionedEngine over one library;
// block, the library's own rows (Library.Rows), is not read again.
func NewExactEngineFromPacked(p Params, lib *Library, _ []uint64) (*Engine, *hdc.Encoder, error) {
	return NewPartitionedEngine(p, oneSpec(lib))
}

// RestoreLibrary is LibraryOver over the hypervectors packed into a
// fresh block, with HVs left as views of it (as SortByMass leaves them).
func RestoreLibrary(entries []LibraryEntry, hvs []hdc.BinaryHV, srcPos []int, skipped int) (*Library, error) {
	d := 0
	if len(hvs) > 0 {
		d = hvs[0].D
	}
	lib, err := LibraryOver(entries, hdc.PackRows(hvs), d, srcPos, skipped)
	if err != nil {
		return nil, err
	}
	lib.viewRows()
	return lib, nil
}
