package serve

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obsv"
	"repro/internal/spectrum"
)

// stubEngine satisfies core.SearchEngine with preallocated results, so
// the flush gate measures the serving layer's own allocations and not
// the engine's.
type stubEngine struct {
	res []core.SearchResult
}

func (e *stubEngine) Prepare(q *spectrum.Spectrum) (core.PreparedQuery, bool, error) {
	return core.PreparedQuery{}, true, nil
}

func (e *stubEngine) Search(_ context.Context, qs []core.PreparedQuery, _ *obsv.Trace) ([]core.SearchResult, error) {
	return e.res[:len(qs)], nil
}

// flushSteadyStateAllocs is the checked-in baseline for the dispatch
// flush loop: with the prepared-query scratch owned by the Server
// (grown once, reused every batch) a steady-state flush performs no
// allocation of its own — pinned here (and trended by -benchmem on
// BenchmarkServeCoalesced in CI).
const flushSteadyStateAllocs = 0

// TestFlushAllocationFree gates the flush path at its baseline: a
// full MaxBatch-sized batch of multi-query requests (a body's 40
// queries, a 16-query remainder and eight single queries) scored
// through a stub engine, results drained, must not allocate per flush
// after the first.
func TestFlushAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-detector instrumentation")
	}
	const batchSize = 64
	cfg := Config{MaxBatch: batchSize, MaxQueue: 4 * batchSize}.withDefaults()
	s := &Server{
		engine: &stubEngine{res: make([]core.SearchResult, batchSize)},
		cfg:    cfg,
	}
	s.stats.init(cfg)

	ctx := context.Background()
	var batch []*request
	for _, n := range []int{40, 16, 1, 1, 1, 1, 1, 1, 1, 1} {
		batch = append(batch, &request{pqs: make([]core.PreparedQuery, n), encNanos: make([]int64, n),
			ctx: ctx, enqueued: time.Now(), res: make([]core.SearchResult, n), done: make(chan struct{}, 1)})
	}
	drain := func() {
		for _, r := range batch {
			<-r.done
		}
	}
	s.flush(batch)
	drain()
	if st := s.stats.snapshot(0); st.Completed != batchSize || st.Batches != 1 {
		t.Fatalf("first flush booked %d queries in %d batches, want %d in 1", st.Completed, st.Batches, batchSize)
	}
	allocs := testing.AllocsPerRun(50, func() {
		s.flush(batch)
		drain()
	})
	if allocs > flushSteadyStateAllocs {
		t.Errorf("flush allocates %.1f allocs/op in steady state, baseline %d",
			allocs, flushSteadyStateAllocs)
	}
}
