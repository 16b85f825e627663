//go:build linux && (amd64 || arm64)

package libindex

import (
	"context"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/hdc"
)

// guardFixture is one row's view of the indexes under test: a
// single-shard index file, a copy of it (the same size, for the reopen
// row), a 3-partition manifest of the same library, and prepared
// queries whose windows reach its rows. It records the address range
// of every mapping a row opens, so a fault is only credited when it
// lands in one of them.
type guardFixture struct {
	t                    *testing.T
	file, twin, manifest string
	queries              []core.PreparedQuery
	spans                [][2]uintptr
}

// track records a view's address range, rounded out to whole pages.
func (g *guardFixture) track(base unsafe.Pointer, size uintptr) {
	page := uintptr(os.Getpagesize())
	lo := uintptr(base) &^ (page - 1)
	g.spans = append(g.spans, [2]uintptr{lo, (uintptr(base) + size + page - 1) &^ (page - 1)})
}

// inSpan reports whether addr lies in a tracked mapping.
func (g *guardFixture) inSpan(addr uintptr) bool {
	for _, s := range g.spans {
		if s[0] <= addr && addr < s[1] {
			return true
		}
	}
	return false
}

// openFile opens path, asserts it is mapped (the guard must never move
// OpenFile onto the copying loader) and tracks its mapping.
func (g *guardFixture) openFile(path string) *Index {
	g.t.Helper()
	ix, err := OpenFile(path)
	if err != nil {
		g.t.Fatal(err)
	}
	if !ix.Mapped() {
		g.t.Fatalf("%s: not mapped", path)
	}
	g.track(unsafe.Pointer(&ix.mapped[0]), uintptr(len(ix.mapped)))
	g.t.Cleanup(func() { g.must(ix.Close()) })
	return ix
}

func (g *guardFixture) openManifest() *PartitionedIndex {
	g.t.Helper()
	pi, err := OpenManifest(g.manifest)
	if err != nil {
		g.t.Fatal(err)
	}
	for i, part := range pi.Parts {
		if !part.Mapped() {
			g.t.Fatalf("partition %d: not mapped", i)
		}
		g.track(unsafe.Pointer(&part.mapped[0]), uintptr(len(part.mapped)))
	}
	g.t.Cleanup(func() { g.must(pi.Close()) })
	return pi
}

// open opens the single-file index through Open; its one partition
// block is what a row can reach.
func (g *guardFixture) open() *Opened {
	g.t.Helper()
	o, err := Open(g.file)
	if err != nil {
		g.t.Fatal(err)
	}
	if !o.Mapped {
		g.t.Fatal("Opened: not mapped")
	}
	for _, spec := range o.PartitionSet().Specs {
		g.track(unsafe.Pointer(&spec.Block[0]), uintptr(len(spec.Block))*8)
	}
	g.t.Cleanup(func() { g.must(o.Close()) })
	return o
}

// must fails the row on a Close error: the reservation that replaces
// an unmap has to succeed.
func (g *guardFixture) must(err error) {
	g.t.Helper()
	if err != nil {
		g.t.Fatal(err)
	}
}

// search sweeps every prepared query through engine on this goroutine:
// the index has one shard and Open's set one partition, so nothing
// fans out to a goroutine without SetPanicOnFault.
func (g *guardFixture) search(engine *core.Engine, err error) {
	g.t.Helper()
	if err != nil {
		g.t.Fatal(err)
	}
	if _, err := engine.Search(context.Background(), g.queries, nil); err != nil {
		g.t.Fatal(err)
	}
}

// faultIn runs fn under debug.SetPanicOnFault and returns the address
// it faulted at, or 0 when it returned normally. Any other panic fails
// the test.
func faultIn(t *testing.T, fn func()) (addr uintptr) {
	t.Helper()
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		fault, ok := r.(interface {
			runtime.Error
			Addr() uintptr
		})
		if !ok {
			t.Fatalf("panicked with %v, not a memory fault", r)
		}
		addr = fault.Addr()
	}()
	fn()
	return 0
}

// sink keeps a row's read of a view from being compiled away.
var sink uint64

// holder is the struct a view escapes into.
type holder struct {
	block []uint64
	set   core.PartitionSet
}

// guardRow is one bug shape run against real opened indexes. A hazard
// row must fault inside a mapping it opened; any other row must not
// fault at all. layout names the index kind the row opens.
type guardRow struct {
	name   string
	layout string
	hazard bool
	run    func(g *guardFixture)
}

// runGuardRows builds one library, saves it as a single file, a
// same-size copy of that file and a 3-partition manifest, and runs each
// row as a subtest under debug.SetPanicOnFault.
func runGuardRows(t *testing.T, rows []guardRow) {
	t.Helper()
	ds := testWorkload(t)
	p := testParams(512, 1<<16, 3)
	built := buildEngine(t, p, ds.Library)
	if n := built.NumRefs(); n > p.ShardSize {
		t.Fatalf("%d references exceed one %d-row shard", n, p.ShardSize)
	}
	dir := t.TempDir()
	file, twin, manifest := filepath.Join(dir, "a.omsidx"), filepath.Join(dir, "b.omsidx"), filepath.Join(dir, "lib.manifest")
	if err := SaveFile(file, p, built.Library()); err != nil {
		t.Fatal(err)
	}
	img, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(twin, img, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := SavePartitioned(manifest, p, built.Library(), 3); err != nil {
		t.Fatal(err)
	}
	var queries []core.PreparedQuery
	for _, q := range ds.Queries {
		pq, ok, err := built.Prepare(q)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			queries = append(queries, pq)
		}
	}
	if len(queries) == 0 {
		t.Fatal("no searchable query")
	}

	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			g := &guardFixture{t: t, file: file, twin: twin, manifest: manifest, queries: queries}
			addr := faultIn(t, func() { row.run(g) })
			switch {
			case !row.hazard && addr != 0:
				t.Fatalf("%s: faulted at %#x, want no fault", row.layout, addr)
			case row.hazard && addr == 0:
				t.Fatalf("%s: no fault, want one in a mapping this row opened", row.layout)
			case row.hazard && !g.inSpan(addr):
				t.Fatalf("%s: faulted at %#x, outside every mapping this row opened %#x", row.layout, addr, g.spans)
			}
		})
	}
}

// TestMappingGuardFaultsOnWrite runs the write shapes the retired
// mmapwrite analyzer looked for, one row per fixture function it was
// tested on: writes to and escapes of the packed word block. A write
// through any view faults because the mapping is PROT_READ.
func TestMappingGuardFaultsOnWrite(t *testing.T) {
	runGuardRows(t, []guardRow{
		{"writes: w[0] = 1", "file", true, func(g *guardFixture) {
			w := g.openFile(g.file).Words()
			w[0] = 1
		}},
		{"writes: w[1]++", "file", true, func(g *guardFixture) {
			w := g.openFile(g.file).Words()
			w[1]++
		}},
		{"writes: s[0] = 1 through s := w[2:8]", "file", true, func(g *guardFixture) {
			s := g.openFile(g.file).Words()[2:8]
			s[0] = 1
		}},
		{"writes: copy(w, s)", "file", true, func(g *guardFixture) {
			w := g.openFile(g.file).Words()
			copy(w, w[2:8])
		}},
		{"writes: append(w, 1) reallocates", "file", false, func(g *guardFixture) {
			// Every view is handed out with len == cap, so an append
			// copies to the heap instead of writing past the view.
			ix := g.openFile(g.file)
			pi := g.openManifest()
			views := [][]uint64{ix.Words()}
			for _, spec := range pi.PartitionSet().Specs {
				views = append(views, spec.Block)
			}
			for _, hv := range ix.Lib.HVs {
				views = append(views, hv.Words)
			}
			for i, v := range views {
				if len(v) != cap(v) {
					g.t.Fatalf("view %d: len %d, cap %d", i, len(v), cap(v))
				}
			}
			w := ix.Words()
			if grown := append(w, 1); &grown[0] == &w[0] {
				g.t.Fatal("append wrote into the mapping")
			}
		}},
		{"writes: ix.Words()[2] = 3", "file", true, func(g *guardFixture) {
			g.openFile(g.file).Words()[2] = 3
		}},
		{"escapes: h.block = w", "file", true, func(g *guardFixture) {
			var h holder
			h.block = g.openFile(g.file).Words()
			h.block[0] = 1
		}},
		{"escapes: holder{block: w}", "file", true, func(g *guardFixture) {
			h := holder{block: g.openFile(g.file).Words()}
			h.block[0] = 1
		}},
		{"partitioned: h.set = set", "manifest", true, func(g *guardFixture) {
			var h holder
			h.set = g.openManifest().PartitionSet()
			h.set.Specs[1].Block[0] = 1
		}},
		{"opened: h.set = o.PartitionSet()", "opened", true, func(g *guardFixture) {
			var h holder
			h.set = g.open().PartitionSet()
			h.set.Specs[0].Block[0] = 1
		}},
		{"sharedWithSearcher: block[0] = 1", "file", true, func(g *guardFixture) {
			ix := g.openFile(g.file)
			block := ix.Words()
			if _, err := hdc.NewShardedSearcherFromPacked(block, ix.Params.Accel.D, 1024, hdc.CascadeConfig{}); err != nil {
				g.t.Fatal(err)
			}
			block[0] = 1
		}},
		{"freshCopyIsWritable", "file", false, func(g *guardFixture) {
			w := g.openFile(g.file).Words()
			cp := make([]uint64, len(w))
			copy(cp, w)
			cp[0] = 1
		}},
	})
}

// TestMappingGuardFaultsOnStaleRead runs the shapes the retired
// unmaplife analyzer looked for, one row per fixture function it was
// tested on: views used, or escaping, after their index closed. Such a
// read faults because, in a test binary, Close leaves a PROT_NONE
// reservation in place (reserveFreed).
func TestMappingGuardFaultsOnStaleRead(t *testing.T) {
	runGuardRows(t, []guardRow{
		{"useAfterClose", "file", true, func(g *guardFixture) {
			ix := g.openFile(g.file)
			w := ix.Words()
			g.must(ix.Close())
			sink = w[0]
		}},
		{"derivedUseAfterClose", "file", true, func(g *guardFixture) {
			ix := g.openFile(g.file)
			s := ix.Words()[2:8]
			g.must(ix.Close())
			sink = s[0]
		}},
		{"branchOrdersUseAfterClose", "file", true, func(g *guardFixture) {
			ix := g.openFile(g.file)
			w := ix.Words()
			if flush := len(w) > 0; flush {
				g.must(ix.Close())
			}
			sink = w[0]
		}},
		{"engineAfterClose", "file", true, func(g *guardFixture) {
			ix := g.openFile(g.file)
			engine, _, err := core.NewExactEngineFromPacked(ix.Params, ix.Lib, ix.Words())
			g.must(ix.Close())
			g.search(engine, err)
		}},
		{"partitionedUseAfterClose", "manifest", true, func(g *guardFixture) {
			pi := g.openManifest()
			set := pi.PartitionSet()
			g.must(pi.Close())
			sink = set.Specs[len(set.Specs)-1].Block[0]
		}},
		{"openedEngineAfterClose", "opened", true, func(g *guardFixture) {
			o := g.open()
			engine, _, err := core.NewPartitionedEngine(o.Params, o.PartitionSet())
			g.must(o.Close())
			g.search(engine, err)
		}},
		{"aliasClose", "file", true, func(g *guardFixture) {
			ix := g.openFile(g.file)
			w := ix.Words()
			ix2 := ix
			g.must(ix2.Close())
			sink = w[0]
		}},
		{"storedCloserClose", "file", true, func(g *guardFixture) {
			ix := g.openFile(g.file)
			w := ix.Words()
			cl := ix.Close
			g.must(cl())
			sink = w[0]
		}},
		{"fieldUseAfterClose: the escaped field read by the caller", "file", true, func(g *guardFixture) {
			var h holder
			func() {
				ix := g.openFile(g.file)
				h.block = ix.Words()
				g.must(ix.Close())
			}()
			sink = h.block[0]
		}},
		{"fieldUseAfterClose: h.block[1] after Close", "file", true, func(g *guardFixture) {
			var h holder
			ix := g.openFile(g.file)
			h.block = ix.Words()
			sink = h.block[0]
			g.must(ix.Close())
			sink = h.block[1]
		}},
		{"escapeThenClose", "file", true, func(g *guardFixture) {
			var h holder
			func() {
				ix := g.openFile(g.file)
				w := ix.Words()
				h.block = w
				g.must(ix.Close())
			}()
			sink = h.block[0]
		}},
		{"returnViewWithDeferredClose", "file", true, func(g *guardFixture) {
			w := func() []uint64 {
				ix := g.openFile(g.file)
				defer ix.Close()
				return ix.Words()
			}()
			sink = w[0]
		}},
		{"useBeforeCloseIsFine", "file", false, func(g *guardFixture) {
			ix := g.openFile(g.file)
			sink = ix.Words()[0]
			g.must(ix.Close())
		}},
		{"deferredCloseIsFine", "file", false, func(g *guardFixture) {
			ix := g.openFile(g.file)
			defer ix.Close()
			sink = ix.Words()[0]
		}},
		{"returnViewWithoutCloseIsFine", "file", false, func(g *guardFixture) {
			ix := g.openFile(g.file)
			w := func() []uint64 { return ix.Words() }()
			sink = w[0]
			g.must(ix.Close())
		}},
		{"freshCopyOutlivesClose", "file", false, func(g *guardFixture) {
			ix := g.openFile(g.file)
			w := ix.Words()
			cp := make([]uint64, len(w))
			copy(cp, w)
			g.must(ix.Close())
			cp[0]++
		}},

		// Without the guard, Close unmaps, the kernel hands the same
		// range to the next same-size mapping, and the stale view reads
		// the other index's words without a fault.
		{"stale view after close, then reopen a same-size file", "file", true, func(g *guardFixture) {
			a := g.openFile(g.file)
			w := a.Words()
			g.must(a.Close())
			g.openFile(g.twin)
			sink = w[0]
		}},
	})
}
