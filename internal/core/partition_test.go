package core

import (
	"context"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/hdc"
	"repro/internal/msdata"
	"repro/internal/obsv"
)

// splitSet cuts a built library into n mass-contiguous generation-1
// base partitions — the partition set a manifest over it would yield.
func splitSet(t *testing.T, lib *Library, n int) PartitionSet {
	t.Helper()
	set := PartitionSet{Generation: 1, Skipped: lib.Skipped}
	for i := 0; i < n; i++ {
		lo, hi := i*lib.Len()/n, (i+1)*lib.Len()/n
		srcPos := make([]int, hi-lo)
		for j := range srcPos {
			srcPos[j] = j
		}
		part, err := RestoreLibrary(lib.Entries[lo:hi], lib.HVs[lo:hi], srcPos, 0)
		if err != nil {
			t.Fatal(err)
		}
		set.Specs = append(set.Specs, PartitionSpec{Lib: part, Gen: 1, GenRow: lo})
	}
	return set
}

// engineAllocs returns what one Search over qs allocates beyond the
// searcher's Search over the same plan — the engine's own bookkeeping,
// with the searcher's result lists taken out. Every query must reach
// partition part and no other.
func engineAllocs(t *testing.T, e *Engine, part int, qs []PreparedQuery) float64 {
	t.Helper()
	for i := range qs {
		for j := range e.parts {
			if lo, hi := e.partRange(&e.parts[j], &qs[i]); (lo < hi) != (j == part) {
				t.Fatalf("query %d reaches partition %d: %t; want partition %d alone", i, j, lo < hi, part)
			}
		}
	}
	hvs, ranges := e.plan(qs)
	ctx := context.Background()
	sweep := testing.AllocsPerRun(20, func() { e.searcher.Search(ctx, hvs, ranges, e.params.TopK, nil) })
	return testing.AllocsPerRun(20, func() { e.Search(ctx, qs, nil) }) - sweep
}

// maxEngineAllocs bounds the engine's own allocations per Search: the
// plan's hypervector and range lists and the result slots — nothing
// per query or per partition, and no merge state.
const maxEngineAllocs = 3

// TestOnePartitionBatchAllocs pins the one-partition engine (a single
// index file, a library built in memory) to a batch-size-independent
// allocation count above its searcher's: no per-query state, no sort,
// no goroutine.
func TestOnePartitionBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-detector instrumentation")
	}
	ds := testDataset(t)
	engine, _, err := BuildExact(testParams(), ds.Library)
	if err != nil {
		t.Fatal(err)
	}
	var qs []PreparedQuery
	for _, q := range ds.Queries {
		if pq, ok, err := engine.Prepare(q); err != nil {
			t.Fatal(err)
		} else if ok {
			qs = append(qs, pq)
		}
	}
	if len(qs) < 16 {
		t.Fatalf("only %d searchable queries", len(qs))
	}
	one, many := engineAllocs(t, engine, 0, qs[:1]), engineAllocs(t, engine, 0, qs)
	t.Logf("engine allocations above the sweep: %.0f at batch 1, %.0f at batch %d", one, many, len(qs))
	if one != many || one > maxEngineAllocs {
		t.Errorf("engine allocates %.0f above the sweep at batch 1 and %.0f at batch %d; want equal and <= %d",
			one, many, len(qs), maxEngineAllocs)
	}
}

// TestWindowInsideOnePartitionTakesNoSort pins a 4-partition engine's
// cost: queries whose windows lie inside one partition cost exactly
// what they cost a one-partition engine, and a window spanning two
// partitions costs no more — the searcher merges it with the rest, and
// nothing sorts.
func TestWindowInsideOnePartitionTakesNoSort(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-detector instrumentation")
	}
	ds := testDataset(t)
	p := testParams()
	p.Open = false // standard search: a ±0.05 Da window around the query mass
	built, _, err := BuildExact(p, ds.Library)
	if err != nil {
		t.Fatal(err)
	}
	lib := built.Library()
	engine, _, err := NewPartitionedEngine(p, splitSet(t, lib, 4))
	if err != nil {
		t.Fatal(err)
	}
	// Queries at the masses of rows in the middle of partition 2.
	const part = 2
	mid := engine.parts[part].start + engine.parts[part].lib.Len()/2
	var inside []PreparedQuery
	for row := mid - 4; row < mid+4; row++ {
		pq, ok := engine.ResolvePrepared("inside", lib.HVs[row], lib.Entries[row].Mass)
		if !ok {
			t.Fatalf("row %d's own mass resolves to no candidates", row)
		}
		inside = append(inside, pq)
	}
	one, many := engineAllocs(t, engine, part, inside[:1]), engineAllocs(t, engine, part, inside)
	if one != many || one > maxEngineAllocs {
		t.Errorf("inside one partition the engine allocates %.0f above the sweep at batch 1 and %.0f at batch %d; want equal and <= %d",
			one, many, len(inside), maxEngineAllocs)
	}
	// A window straddling the fence between partitions 1 and 2 draws
	// from both, at the same cost.
	fence := engine.parts[part].start
	span := PreparedQuery{QueryID: "span", HV: lib.HVs[fence], Mass: lib.Entries[fence].Mass, Lo: fence - 3, Hi: fence + 3}
	spanning := testing.AllocsPerRun(20, func() { search(engine, []PreparedQuery{span}) })
	within := testing.AllocsPerRun(20, func() { search(engine, inside[:1]) })
	if spanning > within {
		t.Errorf("a window spanning two partitions allocates %.0f, one inside a partition %.0f; want no more", spanning, within)
	}
	// And it merges exactly: the 4-partition list equals the
	// one-partition list.
	if got, want := topKList(engine, span), topKList(built, span); !slices.Equal(got, want) {
		t.Errorf("spanning window: 4 partitions %v, one partition %v", got, want)
	}
}

// TestPartitionedSearchIdenticalAcrossProcs pins the partition sweep's
// fan-out: over 3 base partitions, a delta partition and a tombstone,
// a batch reaching every partition returns the same results at any
// GOMAXPROCS, and a canceled context returns ctx.Err().
func TestPartitionedSearchIdenticalAcrossProcs(t *testing.T) {
	ds := testDataset(t)
	p := testParams()
	built, enc, err := BuildExact(p, ds.Library)
	if err != nil {
		t.Fatal(err)
	}
	set := splitSet(t, built.Library(), 3)
	set.Generation, set.Encoder = 3, enc
	base := set.Specs[1].Lib
	var entries []LibraryEntry
	var hvs []hdc.BinaryHV
	var srcPos []int
	for r := 0; r < base.Len(); r += 5 {
		entries, hvs = append(entries, base.Entries[r]), append(hvs, base.HVs[r])
		srcPos = append(srcPos, len(srcPos))
	}
	delta, err := RestoreLibrary(entries, hvs, srcPos, 0)
	if err != nil {
		t.Fatal(err)
	}
	set.Specs = append(set.Specs, PartitionSpec{Lib: delta, Gen: 2, Delta: true})
	set.Tombstones = map[string]uint64{set.Specs[0].Lib.Entries[1].ID: 3}
	engine, _, err := NewPartitionedEngine(p, set)
	if err != nil {
		t.Fatal(err)
	}
	if o := engine.OverlayStats(); o.Tombstones != 1 || o.HiddenRefs != len(entries)+1 {
		t.Fatalf("overlay %+v; want 1 tombstone hiding %d rows", o, len(entries)+1)
	}
	var qs []PreparedQuery
	for _, q := range ds.Queries {
		if pq, ok, err := engine.Prepare(q); err != nil {
			t.Fatal(err)
		} else if ok {
			qs = append(qs, pq)
		}
	}
	for i := range engine.parts {
		if !slices.ContainsFunc(qs, func(q PreparedQuery) bool {
			lo, hi := engine.partRange(&engine.parts[i], &q)
			return lo < hi
		}) {
			t.Fatalf("no query reaches partition %d", i)
		}
	}
	var want []SearchResult
	for _, procs := range []int{1, 2, 8} {
		atProcs(procs, func() {
			got := search(engine, qs)
			if want == nil {
				want = got
			} else if !reflect.DeepEqual(got, want) {
				t.Errorf("GOMAXPROCS=%d: results differ from GOMAXPROCS=1", procs)
			}
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if res, err := engine.Search(ctx, qs, nil); err != context.Canceled || res != nil {
				t.Errorf("GOMAXPROCS=%d: canceled Search returned %d results, %v; want none, %v", procs, len(res), err, context.Canceled)
			}
		})
	}
}

// TestAdmittedRowsAcrossPartitions pins that a query's admission floor
// spans every partition: one library split into 1, 2, 4 and 8 base
// partitions (splitSet) answers one batch of open queries identically,
// and at 4 partitions its rows admitted per query (obsv.Trace) stay
// within 10 % of one partition's. The trace holds one record per
// partition reached, with the batch's candidate rows in it. Floors that stopped at a partition
// edge admitted 158 rows per query at 4 partitions against 96 at one
// (40 000 references, k = 5). GOMAXPROCS 1 fixes the shard claim
// order, which the count depends on.
func TestAdmittedRowsAcrossPartitions(t *testing.T) {
	ds, err := msdata.Generate(msdata.IPRG2012(0.01))
	if err != nil {
		t.Fatal(err)
	}
	p := testParams()
	built, enc, err := BuildExact(p, ds.Library)
	if err != nil {
		t.Fatal(err)
	}
	var qs []PreparedQuery
	for _, q := range ds.Queries {
		if pq, ok, err := built.Prepare(q); err != nil {
			t.Fatal(err)
		} else if ok {
			qs = append(qs, pq)
		}
	}
	admitted := map[int]float64{}
	var want []SearchResult
	atProcs(1, func() {
		for _, n := range []int{1, 2, 4, 8} {
			set := splitSet(t, built.Library(), n)
			set.Encoder = enc
			engine, _, err := NewPartitionedEngine(p, set)
			if err != nil {
				t.Fatal(err)
			}
			var tr obsv.Trace
			got, err := engine.Search(context.Background(), qs, &tr)
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = got
			} else if !reflect.DeepEqual(got, want) {
				t.Errorf("%d partitions: results differ from one partition's", n)
			}
			admitted[n] = float64(tr.RowsAdmitted()) / float64(len(qs))
			wantRows, gotRows := map[int]int{}, map[int]int{}
			for i := range engine.parts {
				for qi := range qs {
					if lo, hi := engine.partRange(&engine.parts[i], &qs[qi]); lo < hi {
						wantRows[i] += hi - lo
					}
				}
			}
			var qt obsv.QueryTrace
			tr.Snapshot(&qt)
			for _, ps := range qt.Parts[:qt.NumParts] {
				if _, dup := gotRows[ps.Index]; dup {
					t.Errorf("%d partitions: partition %d recorded twice", n, ps.Index)
				}
				gotRows[ps.Index] = ps.Rows
			}
			if !maps.Equal(gotRows, wantRows) {
				t.Errorf("%d partitions: trace records rows %v, want %v", n, gotRows, wantRows)
			}
		}
	})
	t.Logf("%d references, %d queries: rows admitted per query %v", built.NumRefs(), len(qs), admitted)
	if math.Abs(admitted[4]-admitted[1]) > 0.1*admitted[1] {
		t.Errorf("4 partitions admit %.1f rows per query, one partition %.1f; want within 10 %%", admitted[4], admitted[1])
	}
}

// TestSpanTieOrder pins the searcher's tie order across partitions:
// two rows holding the query's own hypervector, in two partitions, tie
// at similarity D and must rank by rowOrder — ascending mass, then
// generation, then generation row — whatever their global rows say.
// In each case the keys before the one it names are equal, so
// inverting any one key fails a case; in the mass case the winner is
// the later global row, so ranking by global row fails too.
func TestSpanTieOrder(t *testing.T) {
	type part struct {
		gen    uint64
		genRow int
		delta  bool
		masses []float64 // ascending
		tie    int       // the row holding the query's hypervector
	}
	rng := rand.New(rand.NewSource(7))
	p := testParams()
	q := hdc.RandomBinaryHV(p.Accel.D, rng)
	for _, tc := range []struct {
		name  string
		parts []part
		first string // the tied row that ranks first
	}{
		{"mass", []part{{gen: 1, masses: []float64{500, 501}, tie: 1}, {gen: 2, delta: true, masses: []float64{500.5}}}, "p1-r0"},
		{"generation", []part{{gen: 1, masses: []float64{500, 501}, tie: 1}, {gen: 2, delta: true, masses: []float64{501}}}, "p0-r1"},
		{"generation row", []part{{gen: 1, masses: []float64{500, 501}, tie: 1}, {gen: 1, genRow: 2, masses: []float64{501, 502}}}, "p0-r1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			set := PartitionSet{Generation: 2}
			for i, pt := range tc.parts {
				var entries []LibraryEntry
				var hvs []hdc.BinaryHV
				for r, m := range pt.masses {
					entries = append(entries, LibraryEntry{ID: fmt.Sprintf("p%d-r%d", i, r), Peptide: "PEPTIDE", Mass: m})
					if hv := hdc.RandomBinaryHV(p.Accel.D, rng); r == pt.tie {
						hvs = append(hvs, q)
					} else {
						hvs = append(hvs, hv)
					}
				}
				lib, err := RestoreLibrary(entries, hvs, rng.Perm(len(entries)), 0)
				if err != nil {
					t.Fatal(err)
				}
				set.Specs = append(set.Specs, PartitionSpec{Lib: lib, Gen: pt.gen, GenRow: pt.genRow, Delta: pt.delta})
			}
			engine, _, err := NewPartitionedEngine(p, set)
			if err != nil {
				t.Fatal(err)
			}
			pq, ok := engine.ResolvePrepared("q", q, 600)
			if !ok {
				t.Fatal("no candidate rows")
			}
			var got []string
			for _, m := range topKList(engine, pq) {
				if m.Similarity == p.Accel.D {
					got = append(got, engine.EntryAt(m.Index).ID)
				}
			}
			if len(got) != 2 || got[0] != tc.first {
				t.Errorf("tied rows ranked %v, want %s first of two", got, tc.first)
			}
		})
	}
}
