// Package unmaplifetest plants mmap lifetime violations for the
// unmaplife analyzer against the real source APIs: views that are used
// after the owning index closes, views that escape a function which
// also closes their generation, and the compliant shapes — use before
// close, deferred close with local uses, fresh copies, //oms:transfer
// handoffs — that must stay silent.
package unmaplifetest

import (
	"repro/internal/core"
	"repro/internal/libindex"
)

type holder struct {
	block  []uint64
	engine core.SearchEngine
	close  func() error
}

func useAfterClose(ix *libindex.Index) uint64 {
	w := ix.Words()
	ix.Close()
	return w[0] // want `w is a view into ix's mapping and is used after ix is closed`
}

func derivedUseAfterClose(ix *libindex.Index) uint64 {
	w := ix.Words()
	s := w[2:8]
	ix.Close()
	return s[0] // want `s is a view into ix's mapping and is used after ix is closed`
}

func useBeforeCloseIsFine(ix *libindex.Index) uint64 {
	w := ix.Words()
	v := w[0]
	ix.Close()
	return v
}

func deferredCloseIsFine(ix *libindex.Index) uint64 {
	defer ix.Close()
	w := ix.Words()
	return w[0]
}

func branchOrdersUseAfterClose(ix *libindex.Index, flush bool) uint64 {
	w := ix.Words()
	if flush {
		ix.Close()
	}
	return w[0] // want `w is a view into ix's mapping and is used after ix is closed`
}

func engineAfterClose(ix *libindex.Index) int {
	engine, _, err := core.NewExactEngineFromPacked(ix.Params, ix.Lib, ix.Words())
	if err != nil {
		return 0
	}
	ix.Close()
	return engine.NumRefs() // want `engine is a view into ix's mapping and is used after ix is closed`
}

func partitionedUseAfterClose(pi *libindex.PartitionedIndex) int {
	set := pi.PartitionSet()
	pi.Close()
	return len(set.Specs) // want `set is a view into pi's mapping and is used after pi is closed`
}

func openedEngineAfterClose(o *libindex.Opened) int {
	engine, _, err := core.NewPartitionedEngine(o.Params, o.PartitionSet())
	if err != nil {
		return 0
	}
	o.Close()
	return engine.NumRefs() // want `engine is a view into o's mapping and is used after o is closed`
}

func aliasClose(ix *libindex.Index) uint64 {
	w := ix.Words()
	ix2 := ix
	ix2.Close()
	return w[0] // want `w is a view into ix's mapping and is used after ix is closed`
}

func storedCloserClose(ix *libindex.Index) uint64 {
	w := ix.Words()
	cl := ix.Close
	cl()
	return w[0] // want `w is a view into ix's mapping and is used after ix is closed`
}

func fieldUseAfterClose(ix *libindex.Index, h *holder) uint64 {
	h.block = ix.Words() // want `a view stored outside the function escapes this function but ix's mapping is closed here too`
	v := h.block[0]
	ix.Close()
	_ = v
	return h.block[1] // want `field block holds a view into ix's mapping and is used after ix is closed`
}

func escapeThenClose(ix *libindex.Index, h *holder) {
	w := ix.Words()
	h.block = w //oms:allow(mmapwrite) fixture: exercising the unmaplife escape path // want `a view stored outside the function escapes this function but ix's mapping is closed here too`
	ix.Close()
}

func returnViewWithDeferredClose(ix *libindex.Index) []uint64 {
	defer ix.Close()
	w := ix.Words()
	return w // want `a returned view escapes this function but ix's mapping is closed here too`
}

func returnViewWithoutCloseIsFine(ix *libindex.Index) []uint64 {
	// No Close in this function: the caller owns the lifetime.
	return ix.Words()
}

func freshCopyOutlivesClose(ix *libindex.Index) []uint64 {
	w := ix.Words()
	cp := make([]uint64, len(w))
	copy(cp, w)
	ix.Close()
	cp[0]++ // a fresh copy does not alias the mapping
	return cp
}

func transferAnnotatedHandoff(ix *libindex.Index, h *holder) {
	engine, _, err := core.NewExactEngineFromPacked(ix.Params, ix.Lib, ix.Words())
	if err != nil {
		ix.Close()
		return
	}
	h.engine = engine //oms:transfer fixture: holder's close ordering takes over
	h.close = ix.Close
	if h.engine == nil {
		h.close()
	}
}

func allowedUseAfterClose(ix *libindex.Index) uint64 {
	w := ix.Words()
	ix.Close()
	return w[0] //oms:allow(unmaplife) fixture: documented intentional read of poisoned view
}

// assemblyBacked has no body (the shape of hdc's AVX-512 kernel): there
// is no control flow to build and nothing to report.
func assemblyBacked(qw, packed []uint64, dst []int)
