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

// searchOne is one query searched alone: a batch of one.
func searchOne(e *core.Engine, q *spectrum.Spectrum) (fdr.PSM, bool, error) {
	psms, err := e.SearchAll([]*spectrum.Spectrum{q})
	if err != nil || len(psms) == 0 {
		return fdr.PSM{}, false, err
	}
	return psms[0], true, nil
}

// TestSearchMatchesEngine pins the serving contract: results from
// concurrent coalesced searches are PSM-for-PSM identical to serial
// searches of one query each, regardless of how requests landed in
// batches.
func TestSearchMatchesEngine(t *testing.T) {
	engine, queries := testEngine(t)
	want := make(map[string]fdr.PSM)
	wantOK := make(map[string]bool)
	for _, q := range queries {
		psm, ok, err := searchOne(engine, q)
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

func (e *gatedEngine) Search(ctx context.Context, qs []core.PreparedQuery, tr *obsv.Trace) ([]core.SearchResult, error) {
	e.entered <- len(qs)
	<-e.release
	return e.SearchEngine.Search(ctx, qs, tr)
}

// newGated starts a server over a gated stub engine. At cleanup the
// gate is held open until Close returns, so a test that fails with
// sweeps still parked ends all the same.
func newGated(t *testing.T, cfg Config) (*Server, *gatedEngine) {
	t.Helper()
	return newGatedOver(t, &stubEngine{res: make([]core.SearchResult, 64)}, cfg)
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

// TestCancelStopsLoneRequestSweep pins that a batch of one sweeps under
// its request's own context: a lone request canceled while its sweep is
// parked is counted once, as canceled and not completed, its sweep
// stops instead of scoring it, and the dispatcher then serves the next
// request with the engine's own answer.
func TestCancelStopsLoneRequestSweep(t *testing.T) {
	engine, queries := testEngine(t)
	var q *spectrum.Spectrum
	var want fdr.PSM
	for _, q = range queries {
		psm, ok, err := searchOne(engine, q)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			want = psm
			break
		}
	}
	pq, ok, err := engine.Prepare(q)
	if err != nil || !ok {
		t.Fatalf("Prepare(%s): ok=%v err=%v", q.ID, ok, err)
	}
	srv, e := newGatedOver(t, engine, Config{MaxBatch: 64})
	before := engine.PartitionStats()[0].RowsSwept
	ctx, cancel := context.WithCancel(context.Background())
	lone := submit(srv, ctx, pq)
	if n := sweepSize(t, e); n != 1 {
		t.Fatalf("lone request swept in a batch of %d", n)
	}
	cancel()
	if err := <-lone; !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	e.release <- struct{}{}

	type result struct {
		psm fdr.PSM
		ok  bool
		err error
	}
	next := make(chan result, 1)
	go func() {
		psm, ok, err := srv.SearchPrepared(context.Background(), pq)
		next <- result{psm, ok, err}
	}()
	if n := sweepSize(t, e); n != 1 {
		t.Fatalf("next request swept in a batch of %d", n)
	}
	swept := engine.PartitionStats()[0].RowsSwept - before
	e.release <- struct{}{}
	if r := <-next; r.err != nil || !r.ok || r.psm != want {
		t.Fatalf("next request: %+v ok=%v err=%v, want %+v", r.psm, r.ok, r.err, want)
	}
	srv.Close() // books every flush
	if st := srv.Stats(); st.Canceled != 1 || st.Completed != 1 || st.Batches != 1 || swept != 0 {
		t.Fatalf("canceled %d, completed %d, batches %d, %d rows swept for the canceled request; want 1, 1, 1 and 0",
			st.Canceled, st.Completed, st.Batches, swept)
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
	if st.LatencyP50US <= 0 || st.LatencyP99US < st.LatencyP50US {
		t.Fatalf("implausible latency quantiles p50=%dµs p99=%dµs", st.LatencyP50US, st.LatencyP99US)
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
		psm, ok, err := searchOne(engine, q)
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
