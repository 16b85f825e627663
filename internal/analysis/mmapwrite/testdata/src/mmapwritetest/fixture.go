// Package mmapwritetest plants writes and escapes of mmap-derived word
// slices for the mmapwrite analyzer, against the real source APIs
// (libindex.Index.Words, PartitionedIndex.PartitionSet,
// Opened.PartitionSet) and the aliasing constructor sink. Reads,
// fresh copies and //oms:allow-annotated ownership transfers must stay
// silent.
package mmapwritetest

import (
	"repro/internal/core"
	"repro/internal/hdc"
	"repro/internal/libindex"
)

type holder struct {
	block []uint64
	set   core.PartitionSet
}

func writes(ix *libindex.Index) uint64 {
	w := ix.Words()
	w[0] = 1 // want `write through a slice derived from the mmap-backed packed block \(w\)`
	w[1]++   // want `write through a slice derived from the mmap-backed packed block \(w\)`
	s := w[2:8]
	s[0] = 1          // want `write through a slice derived from the mmap-backed packed block \(s\)`
	copy(w, s)        // want `copy into a slice derived from the mmap-backed packed block`
	_ = append(w, 1)  // want `append to a slice derived from the mmap-backed packed block`
	ix.Words()[2] = 3 // want `write through a slice derived from the mmap-backed packed block \(block\)`
	return w[0]       // reads are fine
}

func escapes(ix *libindex.Index, h *holder) holder {
	w := ix.Words()
	h.block = w             // want `mmap-derived slice escapes into struct field block`
	return holder{block: w} // want `mmap-derived slice escapes into a composite literal`
}

func partitioned(pi *libindex.PartitionedIndex, h *holder) {
	set := pi.PartitionSet()
	h.set = set // want `mmap-derived slice escapes into struct field set`
}

func opened(o *libindex.Opened, h *holder) {
	h.set = o.PartitionSet() // want `mmap-derived slice escapes into struct field set`
}

func sharedWithSearcher(block []uint64, d int) error {
	_, err := hdc.NewShardedSearcherFromPacked(block, d, 1024, hdc.CascadeConfig{})
	block[0] = 1 // want `write through a slice derived from the mmap-backed packed block \(block\)`
	return err
}

func freshCopyIsWritable(ix *libindex.Index) []uint64 {
	w := ix.Words()
	cp := make([]uint64, len(w))
	copy(cp, w)
	cp[0] = 1 // a fresh copy does not alias the mapping
	return cp
}

func allowedTransfer(ix *libindex.Index, h *holder) {
	h.block = ix.Words() //oms:allow(mmapwrite) fixture: documented ownership transfer
}

// assemblyBacked has no body (the shape of hdc's AVX-512 kernel): there
// is no control flow to build and nothing to report.
func assemblyBacked(qw, packed []uint64, dst []int)
