package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fdr"
	"repro/internal/libindex"
	"repro/internal/msdata"
	"repro/internal/serve"
	"repro/internal/spectrum"
)

// TestReloadSwapConsistency is the hot-reload race test (run under
// -race in CI): searches hammer the daemon while SIGHUP-style reloads
// swap between two distinguishable engine generations. Every search
// must return a result consistent with exactly one generation — the
// complete answer of either the old or the new index, never a mix, and
// never an error from the swap itself — and the retired generation's
// teardown must not fire while its last searches are in flight.
func TestReloadSwapConsistency(t *testing.T) {
	ds, err := msdata.Generate(msdata.IPRG2012(0.001))
	if err != nil {
		t.Fatal(err)
	}
	p := core.DefaultParams()
	p.Accel.D = 1024
	p.Accel.NumChunks = 64

	// Generation A serves the library as-is; generation B serves the
	// same spectra with marked peptides, so every PSM names the
	// generation that produced it.
	libB := make([]*spectrum.Spectrum, len(ds.Library))
	for i, s := range ds.Library {
		c := *s
		c.Peptide = c.Peptide + "@B"
		libB[i] = &c
	}
	engineA, _, err := core.BuildExact(p, ds.Library)
	if err != nil {
		t.Fatal(err)
	}
	engineB, _, err := core.BuildExact(p, libB)
	if err != nil {
		t.Fatal(err)
	}

	type expectation struct {
		ok   bool
		a, b fdr.PSM
	}
	want := make(map[string]expectation)
	for _, q := range ds.Queries {
		pa, oka, err := searchOne(engineA, q)
		if err != nil {
			t.Fatal(err)
		}
		pb, okb, err := searchOne(engineB, q)
		if err != nil {
			t.Fatal(err)
		}
		if oka != okb {
			t.Fatalf("query %s matches in one generation only", q.ID)
		}
		want[q.ID] = expectation{ok: oka, a: pa, b: pb}
	}

	var gen atomic.Int64
	d := newDaemon(func() (*serving, error) {
		engine := engineA
		if gen.Add(1)%2 == 0 {
			engine = engineB
		}
		srv, err := serve.New(engine, serve.Config{MaxBatch: 8})
		if err != nil {
			return nil, err
		}
		return &serving{srv: srv, engine: engine, loaded: time.Now()}, nil
	})
	if _, err := d.reload(); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var reloads sync.WaitGroup
	reloads.Add(1)
	go func() {
		defer reloads.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := d.reload(); err != nil {
				t.Errorf("reload: %v", err)
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 30; round++ {
				q := ds.Queries[(w+round)%len(ds.Queries)]
				sv := d.acquire()
				if sv == nil {
					t.Error("acquire returned nil while the daemon is live")
					return
				}
				psm, ok, err := sv.srv.Search(context.Background(), q)
				sv.release()
				if err != nil {
					t.Errorf("search %s across swap: %v", q.ID, err)
					return
				}
				exp := want[q.ID]
				if ok != exp.ok {
					t.Errorf("query %s ok=%v, both generations say %v", q.ID, ok, exp.ok)
					return
				}
				if ok && psm != exp.a && psm != exp.b {
					t.Errorf("query %s returned %+v, consistent with neither generation (%+v | %+v)",
						q.ID, psm, exp.a, exp.b)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	reloads.Wait()
	d.shutdown()
	if sv := d.acquire(); sv != nil {
		sv.release()
		t.Fatal("acquire returned a generation after shutdown")
	}
}

// TestIncrementalReloadSwapConsistency is the hot-reload race test for
// the incremental-update pipeline (run under -race in CI): search
// traffic hammers the daemon through the REAL serving path — on-disk
// partitioned manifest, mmap-backed engine, micro-batcher — while a
// publisher thread appends delta generations (each planting an exact
// clone of one query spectrum, so consecutive generations answer that
// query differently), compacts, and hot-swaps after every publish.
// Every response must be the complete answer of exactly one published
// generation — never a torn mix — and never older than the newest
// generation whose reload had completed before the search was
// admitted.
func TestIncrementalReloadSwapConsistency(t *testing.T) {
	const generations = 6
	ds, err := msdata.Generate(msdata.Config{
		Name: "incr-swap", NumReferences: 260, NumQueries: 16,
		DecoyFraction: 0.5, ModifiedFraction: 0.3, ForeignFraction: 0.1,
		PeptideLenMin: 7, PeptideLenMax: 20, NoisePeaks: 8,
		PeakJitterDa: 0.02, IntensityJitter: 0.25, DropPeakProb: 0.1,
		MaxFragmentCharge: 2, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := core.DefaultParams()
	p.Accel.D = 512
	p.Accel.NumChunks = 32
	queries := ds.Queries[:8]
	base := ds.Library[:200]
	pool := ds.Library[200:]

	manifest := filepath.Join(t.TempDir(), "lib.manifest")
	baseEngine, _, err := core.BuildExact(p, base)
	if err != nil {
		t.Fatal(err)
	}
	if err := libindex.SavePartitioned(manifest, p, baseEngine.Library(), 3); err != nil {
		t.Fatal(err)
	}

	type expectation struct {
		ok  bool
		psm fdr.PSM
	}
	// snapshot answers every query against the manifest as it stands —
	// the complete per-generation truth a served response must match.
	snapshot := func() map[string]expectation {
		pi, err := libindex.Open(manifest)
		if err != nil {
			t.Fatalf("snapshot: %v", err)
		}
		defer pi.Close()
		sp := pi.Params
		sp.Open = true // mirror buildServing's flag override
		pe, _, err := core.NewPartitionedEngine(sp, pi.PartitionSet())
		if err != nil {
			t.Fatalf("snapshot: %v", err)
		}
		exp := make(map[string]expectation, len(queries))
		for _, q := range queries {
			psm, ok, err := searchOne(pe, q)
			if err != nil {
				t.Fatalf("snapshot %s: %v", q.ID, err)
			}
			exp[q.ID] = expectation{ok: ok, psm: psm}
		}
		return exp
	}

	plan := make([]map[string]expectation, generations+1)
	plan[0] = snapshot()

	cfg := servingConfig{
		indexPath: manifest, maxBatch: 8,
		maxQueue: 1024,
	}
	d := newDaemon(func() (*serving, error) { return buildServing(cfg) })
	if _, err := d.reload(); err != nil {
		t.Fatal(err)
	}
	defer d.shutdown()

	// planned is the index of the newest generation whose snapshot is
	// in plan (stored before its reload, so a racing worker that lands
	// on the just-swapped generation finds its answers); reloaded is
	// the newest generation whose hot swap has completed (a search
	// admitted after that must not see anything older).
	var planned, reloaded atomic.Int64

	stop := make(chan struct{})
	var publisher sync.WaitGroup
	publisher.Add(1)
	go func() {
		defer publisher.Done()
		for g := 1; g <= generations; g++ {
			select {
			case <-stop:
				return
			default:
			}
			if g == generations/2 || g == generations {
				// Compaction publishes a new generation with the same
				// visible set: answers must not move by a bit.
				if _, err := libindex.Compact(manifest, 48); err != nil {
					t.Errorf("compact (gen %d): %v", g, err)
					return
				}
			} else {
				q := queries[(g-1)%len(queries)]
				plant := *q
				plant.ID = fmt.Sprintf("plant-%d", g)
				plant.Peptide = fmt.Sprintf("PLANT@%d", g)
				plant.Peaks = append([]spectrum.Peak(nil), q.Peaks...)
				chunk := []*spectrum.Spectrum{&plant}
				chunk = append(chunk, pool[(g-1)*4:(g-1)*4+4]...)
				st, err := libindex.LoadManifestLog(manifest)
				if err != nil {
					t.Errorf("publish gen %d: %v", g, err)
					return
				}
				mp, err := st.DecodeParams()
				if err != nil {
					t.Errorf("publish gen %d: %v", g, err)
					return
				}
				lib, err := libindex.BuildLibrary(chunk, mp)
				if err != nil {
					t.Errorf("publish gen %d: %v", g, err)
					return
				}
				if _, err := libindex.AppendDelta(manifest, st, lib, 32); err != nil {
					t.Errorf("publish gen %d: %v", g, err)
					return
				}
			}
			plan[g] = snapshot()
			planned.Store(int64(g))
			if _, err := d.reload(); err != nil {
				t.Errorf("reload gen %d: %v", g, err)
				return
			}
			reloaded.Store(int64(g))
			time.Sleep(500 * time.Microsecond)
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 60; round++ {
				q := queries[(w+round)%len(queries)]
				floor := reloaded.Load()
				sv := d.acquire()
				if sv == nil {
					t.Error("acquire returned nil while the daemon is live")
					return
				}
				psm, ok, err := sv.srv.Search(context.Background(), q)
				sv.release()
				if err != nil {
					t.Errorf("search %s across swap: %v", q.ID, err)
					return
				}
				ceil := planned.Load()
				// The response must reproduce some published generation's
				// answer exactly, and a fresh-enough one: at or above the
				// newest generation already swapped in when we started.
				matched := int64(-1)
				for g := ceil; g >= 0; g-- {
					exp := plan[g][q.ID]
					if ok == exp.ok && (!ok || psm == exp.psm) {
						matched = g
						break
					}
				}
				if matched < 0 {
					t.Errorf("query %s returned %+v ok=%v, consistent with no published generation 0..%d",
						q.ID, psm, ok, ceil)
					return
				}
				if matched < floor {
					t.Errorf("query %s answered by generation %d, but generation %d had already been swapped in",
						q.ID, matched, floor)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	publisher.Wait()
}

// TestReloadKeepsEncoder pins the one-encoder-per-daemon rule through
// the real serving path (on-disk manifest, the builder main wires): a
// reload of an index with the same operating point serves with the
// retiring generation's encoder — the same pointer — while searches
// still run on both generations (under -race in CI: the two engines
// share it concurrently), and an index rebuilt at the same path with
// another dimension, ID precision or seed gets a freshly drawn one.
// Every generation's answers equal a from-scratch engine's over the
// manifest as it stands.
func TestReloadKeepsEncoder(t *testing.T) {
	ds, err := msdata.Generate(msdata.Config{
		Name: "keep-encoder", NumReferences: 260, NumQueries: 16,
		DecoyFraction: 0.5, ModifiedFraction: 0.3, ForeignFraction: 0.1,
		PeptideLenMin: 7, PeptideLenMax: 20, NoisePeaks: 8,
		PeakJitterDa: 0.02, IntensityJitter: 0.25, DropPeakProb: 0.1,
		MaxFragmentCharge: 2, Seed: 43,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := core.DefaultParams()
	p.Accel.D = 512
	p.Accel.NumChunks = 32
	base, pool := ds.Library[:200], ds.Library[200:]
	manifest := filepath.Join(t.TempDir(), "lib.manifest")
	build := func(p core.Params) {
		t.Helper()
		engine, _, err := core.BuildExact(p, base)
		if err != nil {
			t.Fatal(err)
		}
		if err := libindex.SavePartitioned(manifest, p, engine.Library(), 3); err != nil {
			t.Fatal(err)
		}
	}
	// check searches every query on sv from four goroutines and holds the
	// answers to a fresh engine over the manifest.
	check := func(step string, svs ...*serving) {
		t.Helper()
		pi, err := libindex.Open(manifest)
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		defer pi.Close()
		sp := pi.Params
		sp.Open = true
		fresh, _, err := core.NewPartitionedEngine(sp, pi.PartitionSet())
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := range ds.Queries {
					q := ds.Queries[(w+i)%len(ds.Queries)]
					// Only the newest generation is held to the manifest; an
					// older one just has to keep answering while it drains.
					for g, sv := range svs {
						psm, ok, err := sv.srv.Search(context.Background(), q)
						if err != nil {
							t.Errorf("%s: search %s on generation %d: %v", step, q.ID, g, err)
							return
						}
						if g < len(svs)-1 {
							continue
						}
						want, wantOK, err := searchOne(fresh, q)
						if err != nil || ok != wantOK || psm != want {
							t.Errorf("%s: query %s = %+v ok=%v, a fresh engine says %+v ok=%v (err %v)", step, q.ID, psm, ok, want, wantOK, err)
							return
						}
					}
				}
			}(w)
		}
		wg.Wait()
	}

	build(p)
	cfg := servingConfig{indexPath: manifest, maxBatch: 8, maxQueue: 1024}
	var d *daemon
	d = newDaemon(func() (*serving, error) { return buildNext(cfg, d.acquire()) })
	first, err := d.reload()
	if err != nil {
		t.Fatal(err)
	}
	defer d.shutdown()
	// libindex.Open ANDs Mapped over the partitions; the load line must
	// say so for a manifest as it does for a single file.
	if first.enc == nil || !strings.HasSuffix(first.desc, "mmap=true, encoder drawn") {
		t.Fatalf("first load: encoder %p, logged as %q", first.enc, first.desc)
	}
	check("first load", first)

	// Same index parameters, one more generation: the encoder is kept,
	// and the retiring generation keeps serving with it meanwhile.
	st, err := libindex.LoadManifestLog(manifest)
	if err != nil {
		t.Fatal(err)
	}
	mp, err := st.DecodeParams()
	if err != nil {
		t.Fatal(err)
	}
	delta, err := libindex.BuildLibrary(pool[:20], mp)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := libindex.AppendDelta(manifest, st, delta, 32); err != nil {
		t.Fatal(err)
	}
	old := d.acquire()
	second, err := d.reload()
	if err != nil {
		t.Fatal(err)
	}
	if second.enc != first.enc || !strings.HasSuffix(second.desc, "mmap=true, encoder kept") {
		t.Fatalf("reload of an unchanged operating point: encoder %p, first load drew %p; logged as %q", second.enc, first.enc, second.desc)
	}
	check("append + reload", old, second)
	old.release()

	// The index rebuilt under another operating point: a fresh draw.
	kept := second.enc
	for _, change := range []struct {
		name string
		edit func(*core.Params)
	}{
		{"another -d", func(p *core.Params) { p.Accel.D, p.Accel.NumChunks = 1024, 64 }},
		{"another -precision", func(p *core.Params) { p.Accel.IDPrecision = 2 }},
		{"another seed", func(p *core.Params) { p.Accel.Seed = 77 }},
	} {
		np := p
		change.edit(&np)
		build(np)
		sv, err := d.reload()
		if err != nil {
			t.Fatalf("%s: %v", change.name, err)
		}
		if sv.enc == kept || !strings.HasSuffix(sv.desc, "encoder drawn") || sv.enc.D() != np.Accel.D {
			t.Fatalf("%s: encoder %p (D=%d) after %p; logged as %q", change.name, sv.enc, sv.enc.D(), kept, sv.desc)
		}
		check(change.name, sv)
		kept = sv.enc
	}
}

// TestGenerationRefsBalanced pins the serving generation's reference
// count: every handler releases each generation it acquires, on the
// error paths too, so the daemon's own reference is the only one left
// once a request returns; a reload releases the reference buildNext
// took on the generation it replaces, so that generation's index closes
// exactly once when the swap retires it, and shutdown closes the last.
func TestGenerationRefsBalanced(t *testing.T) {
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
	path := filepath.Join(t.TempDir(), "lib.omsidx")
	if err := libindex.SaveFile(path, p, engine.Library()); err != nil {
		t.Fatal(err)
	}

	cfg := servingConfig{indexPath: path, maxBatch: 8, maxQueue: 1024}
	closes := map[*serving]*atomic.Int32{} // written only by reload, below
	var d *daemon
	d = newDaemon(func() (*serving, error) {
		sv, err := buildNext(cfg, d.acquire())
		if err != nil {
			return nil, err
		}
		n, closeIndex := new(atomic.Int32), sv.closeIndex
		sv.closeIndex = func() error { n.Add(1); return closeIndex() }
		closes[sv] = n
		return sv, nil
	})
	first, err := d.reload()
	if err != nil {
		t.Fatal(err)
	}

	h := d.mux()
	requests := []struct {
		name string
		req  func() *http.Request
		code int
	}{
		{"search", func() *http.Request {
			var body bytes.Buffer
			if err := spectrum.WriteMGF(&body, ds.Queries); err != nil {
				t.Fatal(err)
			}
			return httptest.NewRequest("POST", "/search", &body)
		}, http.StatusOK},
		{"search bad body", func() *http.Request {
			req := httptest.NewRequest("POST", "/search", strings.NewReader("{"))
			req.Header.Set("Content-Type", "application/json")
			return req
		}, http.StatusBadRequest},
		{"healthz", func() *http.Request { return httptest.NewRequest("GET", "/healthz", nil) }, http.StatusOK},
		{"stats", func() *http.Request { return httptest.NewRequest("GET", "/stats", nil) }, http.StatusOK},
		{"metrics", func() *http.Request { return httptest.NewRequest("GET", "/metrics", nil) }, http.StatusOK},
		{"slowest", func() *http.Request { return httptest.NewRequest("GET", "/debug/slowest", nil) }, http.StatusOK},
	}
	serveAll := func(sv *serving) {
		t.Helper()
		for _, r := range requests {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r.req())
			if rec.Code != r.code {
				t.Fatalf("%s: status %d, want %d: %s", r.name, rec.Code, r.code, rec.Body.String())
			}
			if refs := sv.refs.Load(); refs != 1 {
				t.Fatalf("%s: serving generation holds %d references after the request, want 1", r.name, refs)
			}
		}
	}
	serveAll(first)

	second, err := d.reload()
	if err != nil {
		t.Fatal(err)
	}
	if n := closes[first].Load(); n != 1 {
		t.Fatalf("retired generation's index closed %d times after the reload, want 1", n)
	}
	if refs := second.refs.Load(); refs != 1 {
		t.Fatalf("new generation holds %d references after the reload, want 1", refs)
	}
	serveAll(second)

	d.shutdown()
	if n := closes[second].Load(); n != 1 {
		t.Fatalf("last generation's index closed %d times after shutdown, want 1", n)
	}
	// After shutdown there is no generation to pin: a search answers
	// each query with the closed error and touches no reference count.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, requests[0].req())
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), serve.ErrClosed.Error()) {
		t.Fatalf("search after shutdown: status %d: %s", rec.Code, rec.Body.String())
	}
	for sv, n := range closes {
		if refs, closed := sv.refs.Load(), n.Load(); refs != 0 || closed != 1 {
			t.Fatalf("%s: %d references, index closed %d times; want 0 and 1", sv.desc, refs, closed)
		}
	}
}
