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

// open opens path through Open, asserts every partition is mapped
// (the guard must never move a partition onto the copying loader) and
// tracks the mappings.
func (g *guardFixture) open(path string) *Index {
	g.t.Helper()
	ix, err := Open(path)
	if err != nil {
		g.t.Fatal(err)
	}
	for i, part := range ix.parts {
		if part.mapped == nil {
			g.t.Fatalf("%s partition %d: not mapped", path, i)
		}
		g.track(unsafe.Pointer(&part.mapped[0]), uintptr(len(part.mapped)))
	}
	g.t.Cleanup(func() { g.must(ix.Close()) })
	return ix
}

// words is the packed word block of a bare index file's one partition.
func (ix *Index) words() []uint64 { return ix.parts[0].Words() }

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
			w := g.open(g.file).words()
			w[0] = 1
		}},
		{"writes: w[1]++", "file", true, func(g *guardFixture) {
			w := g.open(g.file).words()
			w[1]++
		}},
		{"writes: s[0] = 1 through s := w[2:8]", "file", true, func(g *guardFixture) {
			s := g.open(g.file).words()[2:8]
			s[0] = 1
		}},
		{"writes: copy(w, s)", "file", true, func(g *guardFixture) {
			w := g.open(g.file).words()
			copy(w, w[2:8])
		}},
		{"writes: append(w, 1) reallocates", "file", false, func(g *guardFixture) {
			// Every view is handed out with len == cap, so an append
			// copies to the heap instead of writing past the view.
			ix := g.open(g.file)
			pi := g.open(g.manifest)
			views := [][]uint64{ix.words()}
			for _, spec := range pi.PartitionSet().Specs {
				views = append(views, spec.Lib.Rows())
			}
			for lib, i := ix.parts[0].Lib, 0; i < lib.Len(); i++ {
				views = append(views, lib.Row(i).Words)
			}
			for i, v := range views {
				if len(v) != cap(v) {
					g.t.Fatalf("view %d: len %d, cap %d", i, len(v), cap(v))
				}
			}
			w := ix.words()
			if grown := append(w, 1); &grown[0] == &w[0] {
				g.t.Fatal("append wrote into the mapping")
			}
		}},
		{"writes: ix.Words()[2] = 3", "file", true, func(g *guardFixture) {
			g.open(g.file).words()[2] = 3
		}},
		{"escapes: h.block = w", "file", true, func(g *guardFixture) {
			var h holder
			h.block = g.open(g.file).words()
			h.block[0] = 1
		}},
		{"escapes: holder{block: w}", "file", true, func(g *guardFixture) {
			h := holder{block: g.open(g.file).words()}
			h.block[0] = 1
		}},
		{"partitioned: h.set = set", "manifest", true, func(g *guardFixture) {
			var h holder
			h.set = g.open(g.manifest).PartitionSet()
			h.set.Specs[1].Lib.Rows()[0] = 1
		}},
		{"opened: h.set = o.PartitionSet()", "opened", true, func(g *guardFixture) {
			var h holder
			h.set = g.open(g.file).PartitionSet()
			h.set.Specs[0].Lib.Rows()[0] = 1
		}},
		{"sharedWithSearcher: block[0] = 1", "file", true, func(g *guardFixture) {
			ix := g.open(g.file)
			block := ix.words()
			if _, err := hdc.NewShardedSearcher(block, ix.Params.Accel.D, 1024); err != nil {
				g.t.Fatal(err)
			}
			block[0] = 1
		}},
		{"freshCopyIsWritable", "file", false, func(g *guardFixture) {
			w := g.open(g.file).words()
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
			ix := g.open(g.file)
			w := ix.words()
			g.must(ix.Close())
			sink = w[0]
		}},
		{"derivedUseAfterClose", "file", true, func(g *guardFixture) {
			ix := g.open(g.file)
			s := ix.words()[2:8]
			g.must(ix.Close())
			sink = s[0]
		}},
		{"branchOrdersUseAfterClose", "file", true, func(g *guardFixture) {
			ix := g.open(g.file)
			w := ix.words()
			if flush := len(w) > 0; flush {
				g.must(ix.Close())
			}
			sink = w[0]
		}},
		{"engineAfterClose", "file", true, func(g *guardFixture) {
			ix := g.open(g.file)
			engine, _, err := core.NewPartitionedEngine(ix.Params, ix.PartitionSet())
			g.must(ix.Close())
			g.search(engine, err)
		}},
		{"partitionedUseAfterClose", "manifest", true, func(g *guardFixture) {
			pi := g.open(g.manifest)
			set := pi.PartitionSet()
			g.must(pi.Close())
			sink = set.Specs[len(set.Specs)-1].Lib.Rows()[0]
		}},
		{"openedEngineAfterClose", "opened", true, func(g *guardFixture) {
			o := g.open(g.file)
			engine, _, err := core.NewPartitionedEngine(o.Params, o.PartitionSet())
			g.must(o.Close())
			g.search(engine, err)
		}},
		{"aliasClose", "file", true, func(g *guardFixture) {
			ix := g.open(g.file)
			w := ix.words()
			ix2 := ix
			g.must(ix2.Close())
			sink = w[0]
		}},
		{"storedCloserClose", "file", true, func(g *guardFixture) {
			ix := g.open(g.file)
			w := ix.words()
			cl := ix.Close
			g.must(cl())
			sink = w[0]
		}},
		{"fieldUseAfterClose: the escaped field read by the caller", "file", true, func(g *guardFixture) {
			var h holder
			func() {
				ix := g.open(g.file)
				h.block = ix.words()
				g.must(ix.Close())
			}()
			sink = h.block[0]
		}},
		{"fieldUseAfterClose: h.block[1] after Close", "file", true, func(g *guardFixture) {
			var h holder
			ix := g.open(g.file)
			h.block = ix.words()
			sink = h.block[0]
			g.must(ix.Close())
			sink = h.block[1]
		}},
		{"escapeThenClose", "file", true, func(g *guardFixture) {
			var h holder
			func() {
				ix := g.open(g.file)
				w := ix.words()
				h.block = w
				g.must(ix.Close())
			}()
			sink = h.block[0]
		}},
		{"returnViewWithDeferredClose", "file", true, func(g *guardFixture) {
			w := func() []uint64 {
				ix := g.open(g.file)
				defer ix.Close()
				return ix.words()
			}()
			sink = w[0]
		}},
		{"useBeforeCloseIsFine", "file", false, func(g *guardFixture) {
			ix := g.open(g.file)
			sink = ix.words()[0]
			g.must(ix.Close())
		}},
		{"deferredCloseIsFine", "file", false, func(g *guardFixture) {
			ix := g.open(g.file)
			defer ix.Close()
			sink = ix.words()[0]
		}},
		{"returnViewWithoutCloseIsFine", "file", false, func(g *guardFixture) {
			ix := g.open(g.file)
			w := func() []uint64 { return ix.words() }()
			sink = w[0]
			g.must(ix.Close())
		}},
		{"freshCopyOutlivesClose", "file", false, func(g *guardFixture) {
			ix := g.open(g.file)
			w := ix.words()
			cp := make([]uint64, len(w))
			copy(cp, w)
			g.must(ix.Close())
			cp[0]++
		}},

		// Without the guard, Close unmaps, the kernel hands the same
		// range to the next same-size mapping, and the stale view reads
		// the other index's words without a fault.
		{"stale view after close, then reopen a same-size file", "file", true, func(g *guardFixture) {
			a := g.open(g.file)
			w := a.words()
			g.must(a.Close())
			g.open(g.twin)
			sink = w[0]
		}},
	})
}
