package serve

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fdr"
	"repro/internal/hdc"
	"repro/internal/obsv"
	"repro/internal/spectrum"
)

// stubEngine satisfies core.SearchEngine with preallocated results, so
// the flush gate measures the serving layer's own allocations and not
// the engine's.
type stubEngine struct {
	psms []fdr.PSM
	oks  []bool
}

func (e *stubEngine) Prepare(q *spectrum.Spectrum) (core.PreparedQuery, bool, error) {
	return core.PreparedQuery{}, true, nil
}

func (e *stubEngine) SearchPrepared(qs []core.PreparedQuery) ([]fdr.PSM, []bool) {
	return e.psms[:len(qs)], e.oks[:len(qs)]
}

func (e *stubEngine) SearchPreparedTraced(qs []core.PreparedQuery, _ *obsv.Trace) ([]fdr.PSM, []bool) {
	return e.SearchPrepared(qs)
}

func (e *stubEngine) CascadeStats() (hdc.CascadeStats, bool) { return hdc.CascadeStats{}, false }

// flushSteadyStateAllocs is the checked-in baseline for the dispatch
// flush loop: with the prepared-query scratch owned by the Server
// (grown once, reused every batch) a steady-state flush performs no
// allocation of its own — pinned here (and trended by -benchmem on
// BenchmarkServeCoalesced in CI).
const flushSteadyStateAllocs = 0

// TestFlushAllocationFree gates the flush path at its baseline: a
// full MaxBatch-sized batch scored through a stub engine, results
// drained, must not allocate per flush after the first.
func TestFlushAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-detector instrumentation")
	}
	const batchSize = 64
	cfg := Config{MaxBatch: batchSize, MaxQueue: 4 * batchSize}.withDefaults()
	s := &Server{
		engine: &stubEngine{psms: make([]fdr.PSM, batchSize), oks: make([]bool, batchSize)},
		cfg:    cfg,
	}
	s.stats.init(cfg)

	ctx := context.Background()
	batch := make([]*request, batchSize)
	for i := range batch {
		batch[i] = &request{ctx: ctx, enqueued: time.Now(), out: make(chan response, 1)}
	}
	drain := func() {
		for _, r := range batch {
			<-r.out
		}
	}
	s.flush(batch)
	drain()
	allocs := testing.AllocsPerRun(50, func() {
		s.flush(batch)
		drain()
	})
	if allocs > flushSteadyStateAllocs {
		t.Errorf("flush allocates %.1f allocs/op in steady state, baseline %d",
			allocs, flushSteadyStateAllocs)
	}
}
