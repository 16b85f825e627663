package core

import (
	"sync"
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
// on: Engine.SearchOne is safe to call from many goroutines at once
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
				want[i], wantOK[i], err = engine.SearchOne(q)
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
						psm, ok, err := engine.SearchOne(ds.Queries[j])
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
		psm, ok1, err := engine.SearchOne(q)
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
	check := func(psms []fdr.PSM, oks []bool, off int) {
		t.Helper()
		for i := range psms {
			if oks[i] != wantOK[off+i] || (oks[i] && psms[i] != want[off+i]) {
				t.Fatalf("batch result %d: got %+v ok=%v, want %+v ok=%v",
					off+i, psms[i], oks[i], want[off+i], wantOK[off+i])
			}
		}
	}
	psms, oks := engine.SearchPrepared(preps)
	check(psms, oks, 0)
	half := len(preps) / 2
	psms, oks = engine.SearchPrepared(preps[:half])
	check(psms, oks, 0)
	psms, oks = engine.SearchPrepared(preps[half:])
	check(psms, oks, half)
}
