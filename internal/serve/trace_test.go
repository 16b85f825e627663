package serve

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/obsv"
)

func TestRequestIDContext(t *testing.T) {
	ctx := context.Background()
	if got := RequestIDFrom(ctx); got != "" {
		t.Fatalf("empty context carries request id %q", got)
	}
	ctx2 := WithRequestID(ctx, "req-42")
	if got := RequestIDFrom(ctx2); got != "req-42" {
		t.Fatalf("RequestIDFrom = %q, want req-42", got)
	}
	// Attaching the empty ID is a no-op, not a shadowing overwrite.
	if got := RequestIDFrom(WithRequestID(ctx2, "")); got != "req-42" {
		t.Fatalf("empty WithRequestID overwrote id: %q", got)
	}
}

// TestTraceRecordsReachRing drives real searches and checks that the
// slow ring captured traces with coherent identity and stage timings.
func TestTraceRecordsReachRing(t *testing.T) {
	engine, queries := testEngine(t)
	srv, err := New(engine, Config{MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctx := WithRequestID(context.Background(), "req-ring")
	for _, q := range queries {
		srv.Search(ctx, q)
	}
	traces := srv.Slowest()
	if len(traces) == 0 {
		t.Fatal("no traces captured")
	}
	for i, qt := range traces {
		if i > 0 && qt.Total > traces[i-1].Total {
			t.Fatalf("Slowest not sorted: trace %d total %v above %v", i, qt.Total, traces[i-1].Total)
		}
		if qt.QueryID == "" {
			t.Fatalf("trace %d has no query id", i)
		}
		if qt.RequestID != "req-ring" {
			t.Fatalf("trace %d request id %q, want req-ring", i, qt.RequestID)
		}
		if qt.BatchID == 0 || qt.BatchSize < 1 {
			t.Fatalf("trace %d batch identity missing: id=%d size=%d", i, qt.BatchID, qt.BatchSize)
		}
		if qt.Total <= 0 {
			t.Fatalf("trace %d total %v", i, qt.Total)
		}
		// The sweep stage brackets the engine call; it must have
		// recorded something for a batch that actually searched.
		if qt.Stage(obsv.StageSweep) <= 0 {
			t.Fatalf("trace %d recorded no sweep time: %+v", i, qt.StageNanos)
		}
		var stageSum time.Duration
		for s := obsv.Stage(0); s < obsv.NumStages; s++ {
			stageSum += qt.Stage(s)
		}
		if stageSum <= 0 {
			t.Fatalf("trace %d has empty stage breakdown", i)
		}
	}
}

// TestSlowRingKeepsWorst floods the ring with more traces than it holds
// and verifies replace-min: the ring keeps the slowRingSize worst totals
// seen, not the most recent, and Slowest returns them latency
// descending.
func TestSlowRingKeepsWorst(t *testing.T) {
	var s Server
	c := &s.stats
	c.init(Config{}.withDefaults())
	const offered = 3 * slowRingSize
	rng := rand.New(rand.NewSource(7))
	for i, total := range rng.Perm(offered) { // totals 0…offered-1, shuffled
		qt := obsv.QueryTrace{QueryID: "q", BatchID: uint64(i + 1), Total: time.Duration(total)}
		c.mu.Lock()
		c.ringOffer(&qt)
		c.mu.Unlock()
	}
	kept := s.Slowest()
	if len(kept) != slowRingSize {
		t.Fatalf("ring holds %d traces, want %d", len(kept), slowRingSize)
	}
	for i, qt := range kept {
		if want := time.Duration(offered - 1 - i); qt.Total != want {
			t.Fatalf("ring rank %d holds total %v, want %v (kept %v)", i, qt.Total, want, kept)
		}
	}
}

// TestSlowQueryCallback pins the -slow-query plumbing: with a
// threshold of 1ns every completed request is slow, the callback
// fires on the dispatcher goroutine with a populated trace, and the
// SlowQueries counter matches.
func TestSlowQueryCallback(t *testing.T) {
	engine, queries := testEngine(t)
	var mu sync.Mutex
	var seen []obsv.QueryTrace
	srv, err := New(engine, Config{
		MaxBatch:           4,
		SlowQueryThreshold: time.Nanosecond,
		OnSlowQuery: func(qt obsv.QueryTrace) {
			mu.Lock()
			seen = append(seen, qt)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	completed := 0
	for _, q := range queries {
		if _, _, err := srv.Search(context.Background(), q); err == nil {
			completed++
		}
	}
	// A waiter has its result before the dispatcher books it; Close
	// returns once every flush is booked and every callback has run.
	srv.Close()
	st := srv.Stats()
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != completed {
		t.Fatalf("callback fired %d times for %d completed requests", len(seen), completed)
	}
	if st.SlowQueries != uint64(completed) {
		t.Fatalf("SlowQueries = %d, want %d", st.SlowQueries, completed)
	}
	for i, qt := range seen {
		if qt.QueryID == "" || qt.Total <= 0 {
			t.Fatalf("callback trace %d incomplete: %+v", i, qt)
		}
	}
}

// TestNoThresholdNoCallback: with no threshold the ring still fills
// but nothing is counted slow.
func TestNoThresholdNoCallback(t *testing.T) {
	engine, queries := testEngine(t)
	called := false
	srv, err := New(engine, Config{
		MaxBatch:    4,
		OnSlowQuery: func(obsv.QueryTrace) { called = true },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, q := range queries {
		srv.Search(context.Background(), q)
	}
	if called {
		t.Fatal("OnSlowQuery fired without a threshold")
	}
	st := srv.Stats()
	if st.SlowQueries != 0 {
		t.Fatalf("SlowQueries = %d without a threshold", st.SlowQueries)
	}
	if len(srv.Slowest()) == 0 {
		t.Fatal("ring empty: every request competes regardless of threshold")
	}
}

// TestStageTotalsAccumulate checks the Stats stage rollup: totals
// appear in stage order, sweep time is nonzero after real traffic,
// and rows counters move when the engine reports them.
func TestStageTotalsAccumulate(t *testing.T) {
	engine, queries := testEngine(t)
	srv, err := New(engine, Config{MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, q := range queries {
		srv.Search(context.Background(), q)
	}
	st := srv.Stats()
	if len(st.StageTotals) != int(obsv.NumStages) {
		t.Fatalf("%d stage totals, want %d", len(st.StageTotals), obsv.NumStages)
	}
	byStage := map[string]int64{}
	for i, s := range st.StageTotals {
		if want := obsv.Stage(i).String(); s.Stage != want {
			t.Fatalf("stage %d named %q, want %q", i, s.Stage, want)
		}
		if s.Nanos < 0 {
			t.Fatalf("stage %q negative: %d", s.Stage, s.Nanos)
		}
		byStage[s.Stage] = s.Nanos
	}
	if byStage["sweep"] <= 0 {
		t.Fatalf("no sweep time accumulated: %+v", st.StageTotals)
	}
	if st.LatencySum <= 0 {
		t.Fatalf("latency sum %v after %d requests", st.LatencySum, st.Completed)
	}
	// The exact engine over a packed store runs the traced range path,
	// so row counters must have moved.
	if st.RowsSwept == 0 {
		t.Fatal("no rows swept recorded")
	}
	if st.RowsAdmitted == 0 || st.RowsAdmitted > st.RowsSwept {
		t.Fatalf("%d rows admitted of %d swept", st.RowsAdmitted, st.RowsSwept)
	}
}
