package core

import (
	"slices"
	"sort"
	"testing"

	"repro/internal/hdc"
	"repro/internal/units"
)

// overlaySet is splitSet's two base partitions plus an overlay hiding
// about a third of partition 0: every third of its rows re-added by a
// generation-2 delta partition, every ninth-plus-one tombstoned at
// generation 3.
func overlaySet(t *testing.T, lib *Library) PartitionSet {
	t.Helper()
	set := splitSet(t, lib, 2)
	set.Generation = 3
	set.Tombstones = map[string]uint64{}
	var entries []LibraryEntry
	var hvs []hdc.BinaryHV
	for r, e := range set.Specs[0].Lib.Entries {
		switch {
		case r%3 == 0:
			entries, hvs = append(entries, e), append(hvs, set.Specs[0].Lib.HVs[r])
		case r%9 == 1:
			set.Tombstones[e.ID] = 3
		}
	}
	srcPos := make([]int, len(entries))
	for i := range srcPos {
		srcPos[i] = i
	}
	delta, err := RestoreLibrary(entries, hvs, srcPos, 0)
	if err != nil {
		t.Fatal(err)
	}
	set.Specs = append(set.Specs, PartitionSpec{Lib: delta, Gen: 2, Delta: true})
	return set
}

// TestHiddenRowsSweptAtTopK pins the masked-sweep contract from the
// engine's side: each partition holds exactly the rows HiddenRows
// shadows, no index that comes back names a hidden row, and every
// answer is full — Params.TopK matches, or every visible candidate
// when there are fewer — so no partition spends a slot of its top-k
// on a row it hides.
func TestHiddenRowsSweptAtTopK(t *testing.T) {
	ds := testDataset(t)
	built, enc, err := BuildExact(testParams(), ds.Library)
	if err != nil {
		t.Fatal(err)
	}
	for _, topK := range []int{1, 5} {
		p := testParams()
		p.TopK = topK
		p.ShardSize = 64
		set := overlaySet(t, built.Library())
		set.Encoder = enc
		engine, _, err := NewPartitionedEngine(p, set)
		if err != nil {
			t.Fatal(err)
		}
		hidden := HiddenRows(set.Specs, set.Tombstones)
		if n := len(hidden[0]); n < set.Specs[0].Lib.Len()/3 || len(hidden[1])+len(hidden[2]) != 0 {
			t.Fatalf("fixture hides %d, %d, %d rows; want a third of partition 0 and nothing else", n, len(hidden[1]), len(hidden[2]))
		}
		for i := range engine.parts {
			if got := engine.parts[i].hidden; !slices.Equal(got, hidden[i]) {
				t.Fatalf("partition %d hides %v; HiddenRows says %v", i, got, hidden[i])
			}
		}
		if got := engine.OverlayStats().HiddenRefs; got != len(hidden[0]) {
			t.Errorf("OverlayStats.HiddenRefs = %d, want %d", got, len(hidden[0]))
		}
		var qs []PreparedQuery
		for _, q := range ds.Queries {
			if pq, ok, err := engine.Prepare(q); err != nil {
				t.Fatal(err)
			} else if ok {
				qs = append(qs, pq)
			}
		}
		for qi, r := range search(engine, qs) {
			visible := 0
			for i := range engine.parts {
				part := &engine.parts[i]
				lo, hi := engine.partRange(part, &qs[qi])
				if lo < hi {
					visible += hi - lo - (sort.SearchInts(part.hidden, hi) - sort.SearchInts(part.hidden, lo))
				}
			}
			if want := min(topK, visible); len(r.Top) != want {
				t.Fatalf("TopK=%d: query %s got %d matches, want %d (%d visible candidates)", topK, qs[qi].QueryID, len(r.Top), want, visible)
			}
			for _, m := range r.Top {
				part, row := engine.locate(m.Index)
				if slices.Contains(part.hidden, row) {
					t.Fatalf("TopK=%d: query %s was answered with hidden row %d of a partition", topK, qs[qi].QueryID, row)
				}
			}
		}
	}
}

// TestKeptEncoderIsTheEnginesEncoder: PartitionSet.Encoder is used as
// given and handed back, and a nil one is drawn fresh.
func TestKeptEncoderIsTheEnginesEncoder(t *testing.T) {
	ds := testDataset(t)
	p := testParams()
	built, enc, err := BuildExact(p, ds.Library)
	if err != nil {
		t.Fatal(err)
	}
	set := splitSet(t, built.Library(), 2)
	set.Encoder = enc
	kept, got, err := NewPartitionedEngine(p, set)
	if err != nil || got != enc {
		t.Fatalf("NewPartitionedEngine with a kept encoder returned %p, %v; want %p", got, err, enc)
	}
	set.Encoder = nil
	fresh, got, err := NewPartitionedEngine(p, set)
	if err != nil || got == nil || got == enc {
		t.Fatalf("NewPartitionedEngine without one returned %p, %v; want a fresh encoder", got, err)
	}
	want, err := built.SearchAll(ds.Queries)
	if err != nil {
		t.Fatal(err)
	}
	for name, e := range map[string]*Engine{"kept": kept, "fresh": fresh} {
		if psms, err := e.SearchAll(ds.Queries); err != nil || !slices.Equal(psms, want) {
			t.Errorf("%s encoder: results differ from the built engine's (err %v)", name, err)
		}
	}
}

// TestPrepareOKMeansVisibleRows pins Prepare's ok to what Search
// finds: on a 4-partition engine, a standard-search window whose every
// row is tombstoned resolves to ok=false and Search finds nothing in
// it; leaving one of its rows visible resolves to ok=true and Search
// finds that row.
func TestPrepareOKMeansVisibleRows(t *testing.T) {
	ds := testDataset(t)
	p := testParams()
	p.Open = false
	p.StandardTol = units.Da(0.001)
	built, _, err := BuildExact(p, ds.Library)
	if err != nil {
		t.Fatal(err)
	}
	lib := built.Library()
	row := lib.Len() / 2
	mass := lib.Entries[row].Mass
	lo, hi := lib.CandidateRange(mass, p.queryWindow(mass))
	for _, visible := range []int{-1, lo} {
		set := splitSet(t, lib, 4)
		set.Generation = 2
		set.Tombstones = map[string]uint64{}
		for r := lo; r < hi; r++ {
			if r != visible {
				set.Tombstones[lib.Entries[r].ID] = 2
			}
		}
		engine, _, err := NewPartitionedEngine(p, set)
		if err != nil {
			t.Fatal(err)
		}
		pq, ok := engine.ResolvePrepared("q", lib.HVs[row], mass)
		top := topKList(engine, pq)
		if want := visible >= 0; ok != want || len(top) > 0 != want {
			t.Fatalf("window rows [%d,%d), row %d left visible: ok=%v and %d matches, want ok=%v and a match iff ok",
				lo, hi, visible, ok, len(top), want)
		}
	}
}
