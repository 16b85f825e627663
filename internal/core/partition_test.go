package core

import (
	"context"
	"slices"
	"testing"

	"repro/internal/hdc"
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

// engineAllocs returns what one Search over qs allocates beyond
// the sweep of partition part, the only partition qs may reach: the
// engine's own bookkeeping, with the searcher's result lists taken out.
func engineAllocs(t *testing.T, e *Engine, part int, qs []PreparedQuery) float64 {
	t.Helper()
	p := &e.parts[part]
	hvs := make([]hdc.BinaryHV, len(qs))
	ranges := make([]hdc.RowRange, len(qs))
	for i := range qs {
		lo, hi := e.partRange(p, &qs[i])
		if lo >= hi {
			t.Fatalf("query %d does not reach partition %d", i, part)
		}
		for j := range e.parts {
			if jlo, jhi := e.partRange(&e.parts[j], &qs[i]); j != part && jlo < jhi {
				t.Fatalf("query %d also reaches partition %d", i, j)
			}
		}
		hvs[i], ranges[i] = qs[i].HV, hdc.RowRange{Lo: lo, Hi: hi}
	}
	ctx := context.Background()
	sweep := testing.AllocsPerRun(20, func() { p.searcher.Search(ctx, hvs, ranges, e.params.TopK, nil) })
	return testing.AllocsPerRun(20, func() { e.Search(ctx, qs, nil) }) - sweep
}

// maxEngineAllocs bounds the engine's own allocations per Search
// that stays inside one partition: the result slots, the per-partition
// batch table, that partition's query/range lists and the output lists
// header — nothing per query. The single-store engine this one replaced
// allocated 4 (result slots, hypervector and range lists); the issue
// allows 6 more.
const maxEngineAllocs = 10

// TestOnePartitionBatchAllocs pins the one-partition engine (a single
// index file, a library built in memory) to a batch-size-independent
// allocation count above its searcher's: no per-query merge state, no
// sort, no goroutine.
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

// TestWindowInsideOnePartitionTakesNoSort pins the merge's
// single-contributor rule on a 4-partition engine: queries whose
// windows lie inside one partition cost exactly what they cost a
// one-partition engine — their lists are adopted as the searcher
// ordered them — while a window spanning two partitions pays for the
// concatenation and the sort.
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
	// from both: the same engine must now allocate more, or the check
	// above could not have seen a sort.
	fence := engine.parts[part].start
	span := PreparedQuery{QueryID: "span", HV: lib.HVs[fence], Mass: lib.Entries[fence].Mass, Lo: fence - 3, Hi: fence + 3}
	spanning := testing.AllocsPerRun(20, func() { search(engine, []PreparedQuery{span}) })
	within := testing.AllocsPerRun(20, func() { search(engine, inside[:1]) })
	if spanning <= within {
		t.Errorf("a window spanning two partitions allocates %.0f, one inside a partition %.0f; want more", spanning, within)
	}
	// And it merges exactly: the 4-partition list equals the
	// one-partition list.
	if got, want := topKList(engine, span), topKList(built, span); !slices.Equal(got, want) {
		t.Errorf("spanning window: 4 partitions %v, one partition %v", got, want)
	}
}
