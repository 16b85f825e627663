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
		{MaxBatch: 4, MaxDelay: 200 * time.Microsecond},
		{MaxBatch: 64, MaxDelay: 5 * time.Millisecond},
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

	srv, err := New(engine, Config{MaxBatch: 8, MaxDelay: 500 * time.Microsecond})
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

// TestCoalescing pins that concurrent requests actually share batches
// rather than degenerating to one flush per request.
func TestCoalescing(t *testing.T) {
	engine, queries := testEngine(t)
	const clients = 8
	srv, err := New(engine, Config{MaxBatch: clients, MaxDelay: 250 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(q *spectrum.Spectrum) {
			defer wg.Done()
			if _, _, err := srv.Search(context.Background(), q); err != nil {
				t.Errorf("Search: %v", err)
			}
		}(queries[i])
	}
	wg.Wait()
	st := srv.Stats()
	if st.Completed == 0 {
		t.Fatal("no requests completed")
	}
	// All clients were in flight well within the 250ms window, so they
	// must have been scored in far fewer flushes than requests — with
	// the full-batch flush triggering at MaxBatch, typically exactly
	// one.
	if st.Batches >= st.Completed {
		t.Fatalf("no coalescing: %d batches for %d completed requests", st.Batches, st.Completed)
	}
	if st.MeanBatchSize <= 1 {
		t.Fatalf("mean batch size %.2f, want > 1", st.MeanBatchSize)
	}
}

// TestQueueFull pins admission control: with MaxQueue outstanding
// requests parked in the coalescing window, the next submission fails
// fast with ErrQueueFull.
func TestQueueFull(t *testing.T) {
	engine, queries := testEngine(t)
	srv, err := New(engine, Config{MaxBatch: 64, MaxDelay: time.Minute, MaxQueue: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	prep := func(i int) core.PreparedQuery {
		for _, q := range queries[i:] {
			pq, ok, err := engine.Prepare(q)
			if err == nil && ok {
				return pq
			}
		}
		t.Fatal("no preparable query")
		return core.PreparedQuery{}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		pq := prep(i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Parked until cancel: the minute-long window keeps the batch open.
			srv.SearchPrepared(ctx, pq)
		}()
	}
	// Wait for both to be admitted.
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().QueueDepth < 2 {
		if time.Now().After(deadline) {
			t.Fatal("requests never reached the queue")
		}
		time.Sleep(time.Millisecond)
	}
	if _, _, err := srv.SearchPrepared(context.Background(), prep(2)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third request got %v, want ErrQueueFull", err)
	}
	if srv.Stats().Rejected == 0 {
		t.Fatal("rejection not counted")
	}
	cancel()
	wg.Wait()
}

// TestContextCancel pins that a waiter whose context ends stops
// waiting immediately and is counted as canceled.
func TestContextCancel(t *testing.T) {
	engine, queries := testEngine(t)
	srv, err := New(engine, Config{MaxBatch: 64, MaxDelay: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, err = srv.Search(ctx, queries[0])
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want DeadlineExceeded", err)
	}
	if since := time.Since(start); since > 5*time.Second {
		t.Fatalf("cancellation took %v", since)
	}
	if srv.Stats().Canceled != 1 {
		t.Fatalf("canceled count %d, want 1", srv.Stats().Canceled)
	}
}

// TestClose pins shutdown: queued requests are flushed, later ones
// get ErrClosed, and Close is idempotent.
func TestClose(t *testing.T) {
	engine, queries := testEngine(t)
	srv, err := New(engine, Config{MaxBatch: 64, MaxDelay: time.Minute})
	if err != nil {
		t.Fatal(err)
	}

	// A request parked in the coalescing window is still answered at
	// shutdown: Close drains and flushes before releasing waiters.
	type result struct {
		ok  bool
		err error
	}
	res := make(chan result, 1)
	go func() {
		_, ok, err := srv.Search(context.Background(), queries[0])
		res <- result{ok: ok, err: err}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().QueueDepth == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never queued")
		}
		time.Sleep(time.Millisecond)
	}
	srv.Close()
	r := <-res
	if r.err != nil {
		t.Fatalf("queued request got %v, want flushed result", r.err)
	}
	if _, _, err := srv.Search(context.Background(), queries[1]); !errors.Is(err, ErrClosed) {
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
	srv, err := New(engine, Config{MaxBatch: 4, MaxDelay: time.Millisecond})
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
		srv, err := New(engine, Config{MaxBatch: 8, MaxDelay: 100 * time.Microsecond})
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
