package serve

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fdr"
	"repro/internal/msdata"
	"repro/internal/obsv"
	"repro/internal/spectrum"
)

// testEngine builds a small exact engine and the workload it serves.
func testEngine(t testing.TB) (*core.Engine, []*spectrum.Spectrum) {
	t.Helper()
	ds, err := msdata.Generate(msdata.IPRG2012(0.001))
	if err != nil {
		t.Fatal(err)
	}
	p := core.DefaultParams()
	p.Accel.D = 1024
	p.Accel.NumChunks = 64
	engine, _, err := core.BuildExact(p, ds.Library)
	if err != nil {
		t.Fatal(err)
	}
	return engine, ds.Queries
}

// TestSearchMatchesEngine pins the serving contract: results from
// concurrent coalesced searches are PSM-for-PSM identical to serial
// Engine.SearchOne, regardless of how requests landed in batches.
func TestSearchMatchesEngine(t *testing.T) {
	engine, queries := testEngine(t)
	want := make(map[string]fdr.PSM)
	wantOK := make(map[string]bool)
	for _, q := range queries {
		psm, ok, err := engine.SearchOne(q)
		if err != nil {
			t.Fatal(err)
		}
		wantOK[q.ID] = ok
		if ok {
			want[q.ID] = psm
		}
	}

	for _, cfg := range []Config{
		{MaxBatch: 4},
		{MaxBatch: 64},
	} {
		srv, err := New(engine, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		var mu sync.Mutex
		got := make(map[string]fdr.PSM)
		gotOK := make(map[string]bool)
		for _, q := range queries {
			wg.Add(1)
			go func(q *spectrum.Spectrum) {
				defer wg.Done()
				psm, ok, err := srv.Search(context.Background(), q)
				if err != nil {
					t.Errorf("Search(%s): %v", q.ID, err)
					return
				}
				mu.Lock()
				defer mu.Unlock()
				gotOK[q.ID] = ok
				if ok {
					got[q.ID] = psm
				}
			}(q)
		}
		wg.Wait()
		srv.Close()
		for id, ok := range wantOK {
			if gotOK[id] != ok {
				t.Fatalf("cfg %+v: query %s ok=%v, want %v", cfg, id, gotOK[id], ok)
			}
			if ok && got[id] != want[id] {
				t.Fatalf("cfg %+v: query %s PSM %+v, want %+v", cfg, id, got[id], want[id])
			}
		}
	}
}

// TestCascadeServeConcurrent pins the serving contract over a
// cascade-enabled engine under -race: concurrent coalesced searches
// through the two-tier pruned kernel (whose shard workers share
// atomic per-query pruning bounds) must be PSM-for-PSM identical to
// serial Engine.SearchOne, and the cascade telemetry must surface in
// Stats.
func TestCascadeServeConcurrent(t *testing.T) {
	ds, err := msdata.Generate(msdata.IPRG2012(0.001))
	if err != nil {
		t.Fatal(err)
	}
	p := core.DefaultParams()
	p.Accel.D = 1024
	p.Accel.NumChunks = 64
	p.Tiers = []int{2}
	engine, _, err := core.BuildExact(p, ds.Library)
	if err != nil {
		t.Fatal(err)
	}
	queries := ds.Queries

	want := make(map[string]fdr.PSM)
	wantOK := make(map[string]bool)
	for _, q := range queries {
		psm, ok, err := engine.SearchOne(q)
		if err != nil {
			t.Fatal(err)
		}
		wantOK[q.ID] = ok
		if ok {
			want[q.ID] = psm
		}
	}

	srv, err := New(engine, Config{MaxBatch: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	const rounds = 3 // repeat so requests land in varying batch shapes
	var wg sync.WaitGroup
	var mu sync.Mutex
	failed := false
	for r := 0; r < rounds; r++ {
		for _, q := range queries {
			wg.Add(1)
			go func(q *spectrum.Spectrum) {
				defer wg.Done()
				psm, ok, err := srv.Search(context.Background(), q)
				mu.Lock()
				defer mu.Unlock()
				if failed {
					return
				}
				switch {
				case err != nil:
					failed = true
					t.Errorf("Search(%s): %v", q.ID, err)
				case ok != wantOK[q.ID]:
					failed = true
					t.Errorf("query %s: ok=%v, serial says %v", q.ID, ok, wantOK[q.ID])
				case ok && psm != want[q.ID]:
					failed = true
					t.Errorf("query %s: cascade served %+v, serial %+v", q.ID, psm, want[q.ID])
				}
			}(q)
		}
	}
	wg.Wait()
	st := srv.Stats()
	if !st.CascadeEnabled || st.CascadePrefiltered == 0 {
		t.Fatalf("cascade telemetry missing from stats: %+v", st)
	}
	if st.CascadeCompleted > st.CascadePrefiltered {
		t.Fatalf("completed %d > prefiltered %d", st.CascadeCompleted, st.CascadePrefiltered)
	}
}

// gatedEngine wraps an engine so that each sweep announces its batch
// size and then blocks until released. With no timer to hold a batch
// open, this is how a test parks requests: the batch that is in the
// sweep holds the dispatcher, and everything submitted meanwhile
// queues behind it.
type gatedEngine struct {
	core.SearchEngine
	entered chan int
	release chan struct{}
}

func (e *gatedEngine) SearchPreparedTraced(qs []core.PreparedQuery, tr *obsv.Trace) ([]fdr.PSM, []bool) {
	e.entered <- len(qs)
	<-e.release
	return e.SearchEngine.SearchPreparedTraced(qs, tr)
}

// newGated starts a server over a gated stub engine. At cleanup the
// gate is held open until Close returns, so a test that fails with
// sweeps still parked ends all the same.
func newGated(t *testing.T, cfg Config) (*Server, *gatedEngine) {
	t.Helper()
	return newGatedOver(t, &stubEngine{psms: make([]fdr.PSM, 64), oks: make([]bool, 64)}, cfg)
}

// newGatedOver is newGated with the engine behind the gate supplied.
func newGatedOver(t *testing.T, inner core.SearchEngine, cfg Config) (*Server, *gatedEngine) {
	t.Helper()
	e := &gatedEngine{
		SearchEngine: inner,
		// Sized past the number of sweeps any test here runs, so a sweep
		// whose size the test does not read never blocks on reporting it.
		entered: make(chan int, 16),
		release: make(chan struct{}),
	}
	srv, err := New(e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		go srv.Close()
		for {
			select {
			case e.release <- struct{}{}:
			case <-srv.done:
				return
			}
		}
	})
	return srv, e
}

// submit runs one SearchPrepared on its own goroutine and returns the
// channel its error arrives on.
func submit(srv *Server, ctx context.Context, pq core.PreparedQuery) <-chan error {
	res := make(chan error, 1)
	go func() {
		_, _, err := srv.SearchPrepared(ctx, pq)
		res <- err
	}()
	return res
}

// sweepSize waits for the next sweep to start and returns its batch size.
func sweepSize(t *testing.T, e *gatedEngine) int {
	t.Helper()
	select {
	case n := <-e.entered:
		return n
	case <-time.After(5 * time.Second):
		t.Fatal("no sweep started")
		return 0
	}
}

// waitQueued waits until exactly n requests sit in the queue behind
// the sweep in flight.
func waitQueued(t *testing.T, srv *Server, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for len(srv.in) != n {
		if time.Now().After(deadline) {
			t.Fatalf("%d requests queued, want %d", len(srv.in), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// waitBatches waits until n flushes have been recorded: a waiter gets
// its result before the dispatcher books the batch, so statistics
// trail the last response by a moment.
func waitBatches(t *testing.T, srv *Server, n uint64) Stats {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := srv.Stats()
		if st.Batches == n {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d batches recorded, want %d", st.Batches, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLoneRequestFlushesImmediately pins work conservation: one
// request on an idle server is swept at once, alone — there is no
// window it has to wait out.
func TestLoneRequestFlushesImmediately(t *testing.T) {
	srv, e := newGated(t, Config{MaxBatch: 64})
	res := submit(srv, context.Background(), core.PreparedQuery{})
	if n := sweepSize(t, e); n != 1 {
		t.Fatalf("lone request swept in a batch of %d", n)
	}
	e.release <- struct{}{}
	if err := <-res; err != nil {
		t.Fatal(err)
	}
	if st := waitBatches(t, srv, 1); st.Completed != 1 {
		t.Fatalf("%d requests completed, want 1", st.Completed)
	}
	if tr := srv.Slowest(); len(tr) != 1 || tr[0].BatchSize != 1 {
		t.Fatalf("traces %+v, want one with BatchSize 1", tr)
	}
}

// TestGroupCommit pins the batching rule: requests submitted while a
// sweep is in flight come out as the next batch, capped at MaxBatch,
// the remainder as the one after.
func TestGroupCommit(t *testing.T) {
	const maxBatch, n = 4, 6
	srv, e := newGated(t, Config{MaxBatch: maxBatch})
	ctx := context.Background()
	results := []<-chan error{submit(srv, ctx, core.PreparedQuery{})}
	if got := sweepSize(t, e); got != 1 {
		t.Fatalf("first sweep took %d requests, want 1", got)
	}
	for i := 0; i < n; i++ {
		results = append(results, submit(srv, ctx, core.PreparedQuery{}))
	}
	waitQueued(t, srv, n)
	for _, want := range []int{maxBatch, n - maxBatch} {
		e.release <- struct{}{}
		if got := sweepSize(t, e); got != want {
			t.Fatalf("sweep took %d requests, want %d", got, want)
		}
	}
	e.release <- struct{}{}
	for _, res := range results {
		if err := <-res; err != nil {
			t.Fatal(err)
		}
	}
	if st := waitBatches(t, srv, 3); st.Completed != 1+n {
		t.Fatalf("%d requests completed, want %d", st.Completed, 1+n)
	}
}

// TestCoalescing pins group commit end to end on the real engine:
// requests that arrive while a sweep is in flight share the next one,
// and the batch statistics say so.
func TestCoalescing(t *testing.T) {
	engine, queries := testEngine(t)
	const clients = 8
	srv, e := newGatedOver(t, engine, Config{MaxBatch: clients})
	var results []<-chan error
	for _, q := range queries {
		pq, ok, err := engine.Prepare(q)
		if err != nil || !ok {
			continue
		}
		results = append(results, submit(srv, context.Background(), pq))
		if len(results) == 1 {
			sweepSize(t, e) // the first request now holds the dispatcher
		}
		if len(results) == clients {
			break
		}
	}
	if len(results) != clients {
		t.Fatalf("only %d preparable queries", len(results))
	}
	waitQueued(t, srv, clients-1)
	e.release <- struct{}{}
	e.release <- struct{}{}
	for _, res := range results {
		if err := <-res; err != nil {
			t.Fatalf("Search: %v", err)
		}
	}
	st := waitBatches(t, srv, 2)
	if st.Completed != clients {
		t.Fatalf("%d requests completed, want %d", st.Completed, clients)
	}
	if want := float64(clients) / 2; st.MeanBatchSize != want {
		t.Fatalf("mean batch size %.2f, want %.2f", st.MeanBatchSize, want)
	}
}

// TestQueueFull pins admission control: with MaxQueue requests
// outstanding — one in the sweep, one queued behind it — the next
// submission fails fast with ErrQueueFull.
func TestQueueFull(t *testing.T) {
	srv, e := newGated(t, Config{MaxBatch: 64, MaxQueue: 2})
	ctx := context.Background()
	first := submit(srv, ctx, core.PreparedQuery{})
	sweepSize(t, e)
	second := submit(srv, ctx, core.PreparedQuery{})
	waitQueued(t, srv, 1)
	if _, _, err := srv.SearchPrepared(ctx, core.PreparedQuery{}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third request got %v, want ErrQueueFull", err)
	}
	if srv.Stats().Rejected != 1 {
		t.Fatalf("rejected count %d, want 1", srv.Stats().Rejected)
	}
	// The shed request cost the admitted ones nothing.
	e.release <- struct{}{}
	e.release <- struct{}{}
	for _, res := range []<-chan error{first, second} {
		if err := <-res; err != nil {
			t.Fatal(err)
		}
	}
}

// TestContextCancel pins that a waiter whose context ends stops
// waiting immediately, is counted as canceled, and is skipped by the
// flush that would have scored it.
func TestContextCancel(t *testing.T) {
	srv, e := newGated(t, Config{MaxBatch: 64})
	first := submit(srv, context.Background(), core.PreparedQuery{})
	sweepSize(t, e)
	ctx, cancel := context.WithCancel(context.Background())
	canceled := submit(srv, ctx, core.PreparedQuery{})
	waitQueued(t, srv, 1)
	third := submit(srv, context.Background(), core.PreparedQuery{})
	waitQueued(t, srv, 2)
	cancel()
	// The first sweep is still parked: the waiter leaves without it.
	if err := <-canceled; !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if srv.Stats().Canceled != 1 {
		t.Fatalf("canceled count %d, want 1", srv.Stats().Canceled)
	}
	e.release <- struct{}{}
	if n := sweepSize(t, e); n != 1 {
		t.Fatalf("sweep after the cancellation took %d requests, want 1 (the canceled slot skipped)", n)
	}
	e.release <- struct{}{}
	for _, res := range []<-chan error{first, third} {
		if err := <-res; err != nil {
			t.Fatal(err)
		}
	}
}

// TestClose pins shutdown: the request in the sweep and the one queued
// behind it are both answered, later ones get ErrClosed, and Close is
// idempotent.
func TestClose(t *testing.T) {
	srv, e := newGated(t, Config{MaxBatch: 64})
	ctx := context.Background()
	first := submit(srv, ctx, core.PreparedQuery{})
	sweepSize(t, e)
	second := submit(srv, ctx, core.PreparedQuery{})
	waitQueued(t, srv, 1)
	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	e.release <- struct{}{}
	e.release <- struct{}{}
	for _, res := range []<-chan error{first, second} {
		if err := <-res; err != nil {
			t.Fatalf("admitted request got %v, want flushed result", err)
		}
	}
	<-closed
	if _, _, err := srv.SearchPrepared(ctx, core.PreparedQuery{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close search got %v, want ErrClosed", err)
	}
	srv.Close() // idempotent
}

// TestBatchHistogramBucketEdges pins the documented bucket contract:
// a batch of size exactly 2^i lands in the (2^(i-1), 2^i] bucket
// (reported as Le = 2^i), sizes one above a power of two land in the
// next bucket, and the bucket count covers MaxBatch so no in-range
// size overflows — across default, MaxBatch=1 and MaxBatch>MaxQueue
// configurations.
func TestBatchHistogramBucketEdges(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"default64", Config{MaxBatch: 64}},
		{"single", Config{MaxBatch: 1}},
		{"nonPow2", Config{MaxBatch: 33}},
		{"batchAboveQueue", Config{MaxBatch: 128, MaxQueue: 4}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg.withDefaults()
			var c collector
			c.init(cfg)
			top := c.batchHist
			if maxLe := 1 << (len(top) - 1); maxLe < cfg.MaxBatch {
				t.Fatalf("top bucket Le=%d cannot hold MaxBatch=%d", maxLe, cfg.MaxBatch)
			}
			// Every boundary size the config can produce: exact powers
			// of two must land at Le = size, one above a power at the
			// next bucket.
			for size := 1; size <= cfg.MaxBatch; size++ {
				var fresh collector
				fresh.init(cfg)
				fresh.observeBatch(size, nil)
				st := fresh.snapshot(0)
				var le int
				for _, b := range st.BatchSizes {
					if b.Count == 1 {
						le = b.Le
					}
				}
				if le == 0 {
					t.Fatalf("size %d not counted in any bucket: %+v", size, st.BatchSizes)
				}
				if size > le || 2*size <= le {
					t.Fatalf("size %d landed in bucket Le=%d, want %d in (Le/2, Le]", size, le, size)
				}
				if size&(size-1) == 0 && le != size {
					t.Fatalf("power-of-two size %d landed at Le=%d, want Le=%d", size, le, size)
				}
			}
		})
	}
}

// TestStatsHistograms sanity-checks the histogram plumbing.
func TestStatsHistograms(t *testing.T) {
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
	if st.Batches == 0 || st.Completed == 0 {
		t.Fatalf("stats did not accumulate: %+v", st)
	}
	var batchTotal uint64
	for _, b := range st.BatchSizes {
		batchTotal += b.Count
	}
	if batchTotal != st.Batches {
		t.Fatalf("batch histogram total %d != batches %d", batchTotal, st.Batches)
	}
	if st.LatencyP50 <= 0 || st.LatencyP99 < st.LatencyP50 {
		t.Fatalf("implausible latency quantiles p50=%v p99=%v", st.LatencyP50, st.LatencyP99)
	}
}

// TestCloseRacesEnqueue drains the queue-vs-Close race: many
// goroutines submit searches while Close runs concurrently. Every
// request must resolve exactly one way — a real result, ErrClosed, or
// ErrQueueFull — with no hangs, no panics, and every request admitted
// before the drain completing with a correct result; and Close must
// return with the dispatcher fully stopped no matter how the race
// lands. Run under -race in CI.
func TestCloseRacesEnqueue(t *testing.T) {
	engine, queries := testEngine(t)
	want := make(map[string]fdr.PSM)
	wantOK := make(map[string]bool)
	for _, q := range queries {
		psm, ok, err := engine.SearchOne(q)
		if err != nil {
			t.Fatal(err)
		}
		wantOK[q.ID] = ok
		if ok {
			want[q.ID] = psm
		}
	}
	for round := 0; round < 8; round++ {
		srv, err := New(engine, Config{MaxBatch: 8})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		results := make([]error, len(queries)*2)
		for g := 0; g < 2; g++ {
			for qi, q := range queries {
				wg.Add(1)
				go func(slot int, q *spectrum.Spectrum) {
					defer wg.Done()
					psm, ok, err := srv.Search(context.Background(), q)
					results[slot] = err
					if err == nil {
						// A delivered result must be the engine's, drained
						// batches included.
						if ok != wantOK[q.ID] || (ok && psm != want[q.ID]) {
							t.Errorf("round %d: query %s served %+v ok=%v, want %+v ok=%v",
								round, q.ID, psm, ok, want[q.ID], wantOK[q.ID])
						}
					}
				}(g*len(queries)+qi, q)
			}
		}
		// Close concurrently with the submissions — sometimes before
		// the batcher has flushed anything, sometimes mid-drain.
		if round%2 == 0 {
			runtime.Gosched()
		}
		srv.Close()
		wg.Wait()
		for slot, err := range results {
			if err == nil {
				continue
			}
			if !errors.Is(err, ErrClosed) && !errors.Is(err, ErrQueueFull) {
				t.Fatalf("round %d: slot %d resolved with unexpected error %v", round, slot, err)
			}
		}
		// Idempotent double-close must not deadlock or panic.
		srv.Close()
	}
}
