package libindex

import (
	"bytes"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/hdc"
)

// liveHeap is the heap still reachable after two collections (the
// second empties the sync.Pool victim caches the first filled).
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestEngineHoldsRowsOnce pins that a library's rows exist once: an
// engine from BuildExact, and one from NewPartitionedEngine over a
// built library, add well under 10 % of the row bytes on top of the
// library (a searcher that copied the rows would add 100 %), and
// decoding an index makes no per-row hypervector header — the decoded
// library's rows are the image's words section.
func TestEngineHoldsRowsOnce(t *testing.T) {
	ds := testWorkload(t)
	p := testParams(8192, 0, 3)

	enc, err := core.NewEncoder(p.Accel)
	if err != nil {
		t.Fatal(err)
	}
	lib, err := core.BuildLibrary(ds.Library, p, enc)
	if err != nil {
		t.Fatal(err)
	}
	rowBytes := int64(len(lib.Rows()) * 8)
	check := func(what string, added int64) {
		t.Helper()
		t.Logf("%s adds %d B over %d B of rows", what, added, rowBytes)
		if added >= rowBytes/10 {
			t.Errorf("%s adds %d B on top of its library's %d B of rows, want under 10 %%", what, added, rowBytes)
		}
	}

	h0 := liveHeap()
	e, _, err := core.NewPartitionedEngine(p, core.PartitionSet{
		Specs: []core.PartitionSpec{{Lib: lib, Gen: 1}}, Generation: 1, Encoder: enc})
	if err != nil {
		t.Fatal(err)
	}
	check("NewPartitionedEngine", liveHeap()-h0)
	runtime.KeepAlive(e)
	e, lib, enc = nil, nil, nil

	// BuildExact draws its own encoder: weigh it against an encoder
	// plus a library built alone.
	h0 = liveHeap()
	enc, err = core.NewEncoder(p.Accel)
	if err != nil {
		t.Fatal(err)
	}
	if lib, err = core.BuildLibrary(ds.Library, p, enc); err != nil {
		t.Fatal(err)
	}
	alone := liveHeap() - h0
	runtime.KeepAlive(lib)
	runtime.KeepAlive(enc)
	lib, enc = nil, nil
	h0 = liveHeap()
	if e, _, err = core.BuildExact(p, ds.Library); err != nil {
		t.Fatal(err)
	}
	check("BuildExact", liveHeap()-h0-alone)
	runtime.KeepAlive(e)
	runtime.KeepAlive(ds) // the spectra stay live through every measurement

	// Decoding: what parseIndex allocates per row beyond the entries,
	// masses, source positions and the one copy of the entry strings,
	// measured as the difference between two library sizes so the fixed
	// costs (params JSON) cancel.
	decodeExtra := func(n int) int64 {
		sp, slib := syntheticLibrary(t, n, 64)
		var buf bytes.Buffer
		if err := Save(&buf, sp, slib); err != nil {
			t.Fatal(err)
		}
		img := buf.Bytes()
		known := int64(n) * int64(unsafe.Sizeof(core.LibraryEntry{})+8+8)
		for _, en := range slib.Entries {
			known += int64(9 + len(en.ID) + len(en.Peptide))
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, dlib, err := parseIndex(img)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if dlib.HVs != nil {
			t.Fatalf("decoded library carries %d hypervector headers", len(dlib.HVs))
		}
		if rows := dlib.Rows(); &rows[0] != &dlib.Row(0).Words[0] || len(rows) != n*hdc.WordsPerHV(64) {
			t.Fatalf("decoded rows are not one block of %d rows", n)
		}
		return int64(after.TotalAlloc-before.TotalAlloc) - known
	}
	const n1, n2 = 10000, 30000
	perRow := (decodeExtra(n2) - decodeExtra(n1)) / (n2 - n1)
	t.Logf("decoding allocates %d B per row beyond its entries, masses, source positions and strings", perRow)
	if header := int64(unsafe.Sizeof(hdc.BinaryHV{})); perRow >= header/4 {
		t.Errorf("decoding allocates %d B per row beyond its entries, masses, source positions and strings; a per-row hypervector header is %d B", perRow, header)
	}
}
