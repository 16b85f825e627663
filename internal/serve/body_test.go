package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/spectrum"
)

// failingEngine refuses to prepare any spectrum whose ID starts with
// "bad", the way an encoder failure surfaces through Prepare.
type failingEngine struct {
	core.SearchEngine
}

func (e failingEngine) Prepare(q *spectrum.Spectrum) (core.PreparedQuery, bool, error) {
	if strings.HasPrefix(q.ID, "bad") {
		return core.PreparedQuery{}, false, fmt.Errorf("encoding %s: refused", q.ID)
	}
	return e.SearchEngine.Prepare(q)
}

// TestSearchManyMatchesEngine pins the body contract: every query of a
// SearchMany body gets, at its own input position, the PSM one engine
// sweep over the same prepared set gives it — for bodies shorter than,
// just past and several times MaxBatch, prepared on one worker and on
// four, with skipped and unprepareable spectra mixed in.
func TestSearchManyMatchesEngine(t *testing.T) {
	engine, queries := testEngine(t)
	const maxBatch = 8
	empty := &spectrum.Spectrum{ID: "empty", PrecursorMZ: 500, Charge: 2}
	if _, ok, err := engine.Prepare(empty); ok || err != nil {
		t.Fatalf("peakless spectrum prepared: ok=%v err=%v, want skipped", ok, err)
	}
	srv, err := New(failingEngine{engine}, Config{MaxBatch: maxBatch})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		for _, n := range []int{1, maxBatch - 1, maxBatch + 1, 3*maxBatch + 5} {
			body := make([]*spectrum.Spectrum, n)
			for i := range body {
				switch {
				case n > 1 && i%7 == 3:
					body[i] = empty
				case n > 1 && i%11 == 5:
					body[i] = &spectrum.Spectrum{ID: fmt.Sprintf("bad-%d", i)}
				default:
					body[i] = queries[i%len(queries)]
				}
			}
			// The oracle: one engine sweep over the prepared set.
			var preps []core.PreparedQuery
			var at []int
			for i, q := range body {
				if strings.HasPrefix(q.ID, "bad") {
					continue
				}
				pq, ok, err := engine.Prepare(q)
				if err != nil {
					t.Fatal(err)
				}
				if ok {
					preps = append(preps, pq)
					at = append(at, i)
				}
			}
			want := make([]Result, n)
			if len(preps) > 0 {
				res, err := engine.Search(context.Background(), preps, nil)
				if err != nil {
					t.Fatal(err)
				}
				for j, i := range at {
					want[i] = Result{PSM: res[j].PSM, OK: len(res[j].Top) > 0}
				}
			}

			got := srv.SearchMany(context.Background(), body)
			if len(got) != n {
				t.Fatalf("GOMAXPROCS %d, body of %d: %d results", procs, n, len(got))
			}
			for i, q := range body {
				if strings.HasPrefix(q.ID, "bad") {
					if got[i].Err == nil || got[i].OK {
						t.Fatalf("GOMAXPROCS %d, body of %d: unprepareable query %d got %+v, want an error", procs, n, i, got[i])
					}
					continue
				}
				if got[i] != want[i] {
					t.Fatalf("GOMAXPROCS %d, body of %d: query %d (%s) got %+v, want %+v", procs, n, i, q.ID, got[i], want[i])
				}
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// TestBatchNeverExceedsMaxBatch pins that MaxBatch counts queries: a
// body of 3·MaxBatch+5 queries is queued as MaxBatch-sized requests
// and swept in at least four flushes, and a request that would push a
// flush past MaxBatch waits for the next one instead.
func TestBatchNeverExceedsMaxBatch(t *testing.T) {
	const maxBatch = 8
	srv, e := newGated(t, Config{MaxBatch: maxBatch})
	ctx := context.Background()
	lone := submit(srv, ctx, core.PreparedQuery{})
	if n := sweepSize(t, e); n != 1 {
		t.Fatalf("lone request swept in a batch of %d", n)
	}
	body := func(n int) <-chan []Result {
		out := make(chan []Result, 1)
		go func() { out <- srv.SearchMany(ctx, make([]*spectrum.Spectrum, n)) }()
		return out
	}
	big := body(3*maxBatch + 5)
	waitQueued(t, srv, 4)
	small := body(5)
	waitQueued(t, srv, 5)

	// The big body's remainder (5) and the small body (5) would make
	// 10: the small one is held for a flush of its own.
	var sizes []int
	for range 5 {
		e.release <- struct{}{}
		sizes = append(sizes, sweepSize(t, e))
	}
	e.release <- struct{}{}
	if want := []int{maxBatch, maxBatch, maxBatch, 5, 5}; fmt.Sprint(sizes) != fmt.Sprint(want) {
		t.Fatalf("sweeps after the lone one took %v queries, want %v", sizes, want)
	}
	if err := <-lone; err != nil {
		t.Fatal(err)
	}
	for _, res := range []<-chan []Result{big, small} {
		for i, r := range <-res {
			if r.Err != nil {
				t.Fatalf("query %d: %v, want served", i, r.Err)
			}
		}
	}
	st := waitBatches(t, srv, 6)
	if want := uint64(1 + 3*maxBatch + 5 + 5); st.Completed != want || st.Requests != want {
		t.Fatalf("%d queries requested, %d completed; want %d", st.Requests, st.Completed, want)
	}
	for _, b := range st.BatchSizes {
		if b.Le > maxBatch && b.Count > 0 {
			t.Fatalf("batch histogram %+v fills a bucket above MaxBatch %d", st.BatchSizes, maxBatch)
		}
	}
	for _, tr := range srv.Slowest() {
		if tr.BatchSize > maxBatch {
			t.Fatalf("query traced in a batch of %d, above MaxBatch %d", tr.BatchSize, maxBatch)
		}
	}
}

// TestSearchManyAdmitsWhatFits pins that MaxQueue counts queries: a
// body longer than the queue has room for is served as far as it fits
// and refused, query by query, for the rest.
func TestSearchManyAdmitsWhatFits(t *testing.T) {
	srv, err := New(&stubEngine{res: make([]core.SearchResult, 64)}, Config{MaxBatch: 4, MaxQueue: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	got := srv.SearchMany(context.Background(), make([]*spectrum.Spectrum, 25))
	for i, r := range got {
		if i < 10 && r.Err != nil {
			t.Fatalf("query %d of the first 10: %v, want served", i, r.Err)
		}
		if i >= 10 && !errors.Is(r.Err, ErrQueueFull) {
			t.Fatalf("query %d past the first 10: %v, want ErrQueueFull", i, r.Err)
		}
	}
	if st := srv.Stats(); st.Requests != 25 || st.Rejected != 15 || st.Completed != 10 || st.QueueDepth != 0 {
		t.Fatalf("requests %d, rejected %d, completed %d, queue depth %d; want 25, 15, 10 and 0",
			st.Requests, st.Rejected, st.Completed, st.QueueDepth)
	}
}

// TestSearchManyCancel pins that a body whose context ends while its
// requests are queued answers every waiting query with the context's
// error, counts each as canceled, and that the flushes skip them.
func TestSearchManyCancel(t *testing.T) {
	srv, e := newGated(t, Config{MaxBatch: 4})
	first := submit(srv, context.Background(), core.PreparedQuery{})
	sweepSize(t, e)
	ctx, cancel := context.WithCancel(context.Background())
	out := make(chan []Result, 1)
	go func() { out <- srv.SearchMany(ctx, make([]*spectrum.Spectrum, 10)) }()
	waitQueued(t, srv, 3)
	cancel()
	for i, r := range <-out {
		if !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("query %d: %v, want context.Canceled", i, r.Err)
		}
	}
	e.release <- struct{}{}
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	// Nothing is left to sweep: the next request is swept alone.
	next := submit(srv, context.Background(), core.PreparedQuery{})
	if n := sweepSize(t, e); n != 1 {
		t.Fatalf("sweep after the canceled body took %d queries, want 1", n)
	}
	e.release <- struct{}{}
	if err := <-next; err != nil {
		t.Fatal(err)
	}
	if st := waitBatches(t, srv, 2); st.Canceled != 10 || st.Completed != 2 {
		t.Fatalf("canceled %d, completed %d; want 10 and 2", st.Canceled, st.Completed)
	}
}
