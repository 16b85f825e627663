package core

import (
	"context"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/fdr"
	"repro/internal/msdata"
	"repro/internal/spectrum"
)

// overlayEngine builds an engine in the state omsd serves between an
// append and the next compaction: three generation-1 base partitions,
// a generation-2 delta partition whose fences overlap them and which
// re-adds some base ids (shadowing the originals), and a generation-3
// tombstone.
func overlayEngine(t *testing.T, p Params, library []*spectrum.Spectrum) *Engine {
	t.Helper()
	cut := len(library) * 9 / 10
	base, _, err := BuildExact(p, library[:cut])
	if err != nil {
		t.Fatal(err)
	}
	set := splitSet(t, base.Library(), 3)
	appended, _, err := BuildExact(p, append(library[cut:len(library):len(library)], library[:5]...))
	if err != nil {
		t.Fatal(err)
	}
	set.Specs = append(set.Specs, PartitionSpec{Lib: appended.Library(), Gen: 2, Delta: true})
	set.Tombstones = map[string]uint64{library[7].ID: 3}
	set.Generation = 3
	engine, _, err := NewPartitionedEngine(p, set)
	if err != nil {
		t.Fatal(err)
	}
	if ov := engine.OverlayStats(); ov.DeltaPartitions != 1 || ov.HiddenRefs < 6 {
		t.Fatalf("overlay not in play: %+v", ov)
	}
	return engine
}

// TestSearchOneConcurrent pins the contract the serving layer depends
// on: Engine.Search is safe to call from many goroutines at once
// (run under -race in CI) and every concurrent result agrees
// PSM-for-PSM with serial search — over one partition, and over
// several with a live delta overlay, where each call fans out across
// partitions and merges. The engine holds no per-query mutable state —
// scratch lives in per-worker pools — so concurrent readers must be
// indistinguishable from serial ones.
func TestSearchOneConcurrent(t *testing.T) {
	ds, err := msdata.Generate(msdata.IPRG2012(0.001))
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	p.Accel.D = 1024
	p.Accel.NumChunks = 64
	single, _, err := BuildExact(p, ds.Library)
	if err != nil {
		t.Fatal(err)
	}
	for name, engine := range map[string]*Engine{"one-partition": single, "partitions+overlay": overlayEngine(t, p, ds.Library)} {
		t.Run(name, func(t *testing.T) {
			want := make([]fdr.PSM, len(ds.Queries))
			wantOK := make([]bool, len(ds.Queries))
			for i, q := range ds.Queries {
				want[i], wantOK[i], err = searchOne(engine, q)
				if err != nil {
					t.Fatal(err)
				}
			}

			const workers = 16
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					// Each worker walks the query set from a different offset so
					// distinct queries overlap in time.
					for i := range ds.Queries {
						j := (i + w) % len(ds.Queries)
						psm, ok, err := searchOne(engine, ds.Queries[j])
						if err != nil {
							t.Errorf("worker %d query %d: %v", w, j, err)
							return
						}
						if ok != wantOK[j] || psm != want[j] {
							t.Errorf("worker %d query %d: got %+v ok=%v, want %+v ok=%v",
								w, j, psm, ok, want[j], wantOK[j])
							return
						}
					}
				}(w)
			}
			wg.Wait()
		})
	}
}

// TestSearchPreparedMatchesSearchOne pins that batch scoring of
// prepared queries is bit-identical to per-query search — the
// determinism contract of the micro-batching service (a query's PSM
// must not depend on which batch it lands in).
func TestSearchPreparedMatchesSearchOne(t *testing.T) {
	ds, err := msdata.Generate(msdata.IPRG2012(0.001))
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	p.Accel.D = 1024
	p.Accel.NumChunks = 64
	engine, _, err := BuildExact(p, ds.Library)
	if err != nil {
		t.Fatal(err)
	}
	var preps []PreparedQuery
	var want []fdr.PSM
	var wantOK []bool
	for _, q := range ds.Queries {
		pq, ok, err := engine.Prepare(q)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			continue
		}
		preps = append(preps, pq)
		psm, ok1, err := searchOne(engine, q)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, psm)
		wantOK = append(wantOK, ok1)
	}
	if len(preps) == 0 {
		t.Fatal("no searchable queries")
	}
	// Score as one batch, then in two splits: per-query results must
	// not move.
	check := func(res []SearchResult, off int) {
		t.Helper()
		for i, r := range res {
			if ok := len(r.Top) > 0; ok != wantOK[off+i] || (ok && r.PSM != want[off+i]) {
				t.Fatalf("batch result %d: got %+v ok=%v, want %+v ok=%v",
					off+i, r.PSM, ok, want[off+i], wantOK[off+i])
			}
		}
	}
	check(search(engine, preps), 0)
	half := len(preps) / 2
	check(search(engine, preps[:half]), 0)
	check(search(engine, preps[half:]), half)
}

// pollCanceled is a context that another goroutine cancels when a
// sweep polls its Done channel for the nth time. The polling worker
// waits until the cancel has happened, so the search stops at a known
// row block, mid-batch, however the workers are scheduled.
type pollCanceled struct {
	context.Context
	left     atomic.Int64
	trigger  chan struct{} // closed by the nth poll
	canceled chan struct{} // closed once the other goroutine has canceled
}

func newPollCanceled(t *testing.T, n int64) *pollCanceled {
	ctx, cancel := context.WithCancel(context.Background())
	c := &pollCanceled{Context: ctx, trigger: make(chan struct{}), canceled: make(chan struct{})}
	c.left.Store(n)
	go func() {
		select {
		case <-c.trigger:
		case <-t.Context().Done():
		}
		cancel()
		close(c.canceled)
	}()
	return c
}

func (c *pollCanceled) Done() <-chan struct{} {
	if c.left.Add(-1) == 0 {
		close(c.trigger)
		<-c.canceled
	}
	return c.Context.Done()
}

// rowsSwept sums the engine's per-partition swept-row counters.
func rowsSwept(e *Engine) uint64 {
	var n uint64
	for _, st := range e.PartitionStats() {
		n += st.RowsSwept
	}
	return n
}

// TestCancelStopsPartitionedSearch pins Search's cancellation contract
// on a 4-partition engine: a context done before the call returns its
// error and sweeps no row; one canceled by another goroutine mid-batch
// stops every partition's sweep with only part of the batch swept; and
// uncancelled searches running beside the canceled ones return, bit for
// bit, what a one-partition engine over the same library returns.
func TestCancelStopsPartitionedSearch(t *testing.T) {
	ds := testDataset(t)
	p := testParams()
	built, _, err := BuildExact(p, ds.Library)
	if err != nil {
		t.Fatal(err)
	}
	engine, _, err := NewPartitionedEngine(p, splitSet(t, built.Library(), 4))
	if err != nil {
		t.Fatal(err)
	}
	qs := prepareAll(t, built, ds.Queries)
	want := search(built, qs)
	before := rowsSwept(engine)
	search(engine, qs)
	full := rowsSwept(engine) - before

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	before = rowsSwept(engine)
	if res, err := engine.Search(ctx, qs, nil); !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("pre-canceled: got %d results, err %v; want none and context.Canceled", len(res), err)
	}
	if got := rowsSwept(engine) - before; got != 0 {
		t.Fatalf("pre-canceled search swept %d rows, want 0", got)
	}

	check := func(t *testing.T, got []SearchResult) {
		t.Helper()
		for i := range want {
			if got[i].PSM != want[i].PSM || !slices.Equal(got[i].Top, want[i].Top) {
				t.Errorf("query %d: 4 partitions %+v, one partition %+v", i, got[i], want[i])
				return
			}
		}
	}
	pc := newPollCanceled(t, 5)
	before = rowsSwept(engine)
	if res, err := engine.Search(pc, qs, nil); !errors.Is(err, context.Canceled) || err != pc.Err() || res != nil {
		t.Fatalf("canceled mid-batch: got %d results, err %v; want none and ctx.Err() = %v", len(res), err, pc.Err())
	}
	if got := rowsSwept(engine) - before; got == 0 || got >= full {
		t.Fatalf("canceled mid-batch swept %d rows, want some but fewer than the %d a full search sweeps", got, full)
	}
	check(t, search(engine, qs))

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 4; i++ {
			check(t, search(engine, qs))
		}
	}()
	for i := 0; i < 4; i++ {
		if _, err := engine.Search(newPollCanceled(t, int64(1+3*i)), qs, nil); !errors.Is(err, context.Canceled) {
			t.Errorf("canceled beside an uncancelled search: err %v, want context.Canceled", err)
		}
	}
	wg.Wait()
}
