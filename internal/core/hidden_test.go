package core

import (
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/hdc"
	"repro/internal/obsv"
)

// recordingSearcher is an exact searcher that notes the depth of every
// sweep it is asked for and the hidden list it was given.
type recordingSearcher struct {
	*hdc.ShardedSearcher
	mu     sync.Mutex
	ks     []int
	hidden []int
}

func (r *recordingSearcher) Hide(rows []int) {
	r.hidden = rows
	r.ShardedSearcher.Hide(rows)
}

func (r *recordingSearcher) BatchTopKRangeTraced(qs []hdc.BinaryHV, ranges []hdc.RowRange, k int, tr *obsv.Trace) [][]hdc.Match {
	r.mu.Lock()
	r.ks = append(r.ks, k)
	r.mu.Unlock()
	return r.ShardedSearcher.BatchTopKRangeTraced(qs, ranges, k, tr)
}

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
// engine's side: whatever a partition hides, its searcher is asked for
// exactly Params.TopK matches and is the one told what to hide, and no
// index that comes back names a hidden row.
func TestHiddenRowsSweptAtTopK(t *testing.T) {
	ds := testDataset(t)
	built, enc, err := BuildExact(testParams(), ds.Library)
	if err != nil {
		t.Fatal(err)
	}
	for _, topK := range []int{1, 5} {
		p := testParams()
		p.TopK = topK
		set := overlaySet(t, built.Library())
		var recs []*recordingSearcher
		engine, err := newEngine(p, enc, set, func(spec PartitionSpec) (Searcher, error) {
			exact, err := hdc.NewShardedSearcher(spec.Lib.HVs, 64, hdc.CascadeConfig{})
			recs = append(recs, &recordingSearcher{ShardedSearcher: exact})
			return recs[len(recs)-1], err
		})
		if err != nil {
			t.Fatal(err)
		}
		hidden := HiddenRows(set.Specs, set.Tombstones)
		if n := len(hidden[0]); n < set.Specs[0].Lib.Len()/3 || len(hidden[1])+len(hidden[2]) != 0 {
			t.Fatalf("fixture hides %d, %d, %d rows; want a third of partition 0 and nothing else", n, len(hidden[1]), len(hidden[2]))
		}
		if !slices.Equal(recs[0].hidden, hidden[0]) || recs[1].hidden != nil || recs[2].hidden != nil {
			t.Fatalf("searchers were told to hide %v, %v, %v; HiddenRows says %v", recs[0].hidden, recs[1].hidden, recs[2].hidden, hidden)
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
		engine.SearchPrepared(qs)
		for _, pq := range qs {
			for _, m := range engine.TopKPrepared(pq) {
				part, row := engine.locate(m.Index)
				if slices.Contains(part.hidden, row) {
					t.Fatalf("TopK=%d: query %s was answered with hidden row %d of a partition", topK, pq.QueryID, row)
				}
			}
		}
		for i, rec := range recs {
			if len(rec.ks) == 0 {
				t.Fatalf("partition %d was never swept", i)
			}
			for _, k := range rec.ks {
				if k != topK {
					t.Fatalf("partition %d (%d hidden rows) was swept at k=%d, want TopK=%d", i, len(hidden[i]), k, topK)
				}
			}
		}
	}
}

// TestHiddenRowsNeedAHidingSearcher: a partition with shadowed rows over a
// searcher that cannot mask them is a construction error that says so,
// not an engine that serves retracted spectra.
func TestHiddenRowsNeedAHidingSearcher(t *testing.T) {
	ds := testDataset(t)
	p := testParams()
	built, enc, err := BuildExact(p, ds.Library)
	if err != nil {
		t.Fatal(err)
	}
	plain := func(spec PartitionSpec) (Searcher, error) {
		exact, err := p.exactSearcher(spec)
		return struct{ Searcher }{exact}, err // the interface's methods only: no Hide
	}
	_, err = newEngine(p, enc, overlaySet(t, built.Library()), plain)
	if err == nil || !strings.Contains(err.Error(), "cannot hide rows") || !strings.Contains(err.Error(), "partition 0") {
		t.Fatalf("newEngine over a non-hiding searcher with shadowed rows: err = %v, want a partition-0 \"cannot hide rows\" error", err)
	}
	// With nothing to hide the same searcher is fine.
	if _, err := newEngine(p, enc, splitSet(t, built.Library(), 2), plain); err != nil {
		t.Fatalf("newEngine over a non-hiding searcher with no shadowed rows: %v", err)
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
