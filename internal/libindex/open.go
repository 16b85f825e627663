package libindex

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"unsafe"

	"repro/internal/core"
	"repro/internal/hdc"
)

// Index is an opened library index: the decoded library and build
// parameters plus the contiguous packed word block every hypervector
// is a view over. When the index is memory-mapped (the normal case on
// unix), the block aliases the mapping directly — opening costs one
// metadata parse, not a copy of the bulk words, and the word pages
// fault in lazily as searches touch them. On platforms without mmap,
// or when mapping fails, OpenFile transparently falls back to the
// copying loader and the block lives on the heap.
type Index struct {
	// Params are the engine parameters the library was built with
	// (ShardSize from the header, everything else from the params JSON).
	Params core.Params
	// Lib is the decoded library; its HVs are views over Words.
	Lib *core.Library

	words  []uint64
	mapped []byte // non-nil iff mmap-backed
	closed bool
	path   string
}

// Words returns the contiguous packed word block (n × WordsPerHV(d)),
// row-major in mass order — the input of the packed searcher
// constructors. The block aliases the mapping when Mapped reports
// true: no view outlives the index's Close. Words panics after Close —
// deterministically, on every platform, so a lifetime bug surfaces as
// a descriptive panic at the call site instead of a SIGSEGV inside a
// kernel loop on mmap platforms and silent success elsewhere.
func (ix *Index) Words() []uint64 {
	if ix.closed {
		panic("libindex: Words on closed index " + ix.path + " (no view outlives its generation's Close)")
	}
	return ix.words
}

// partitionSet is the index as core.NewPartitionedEngine's input: one
// generation-1 partition over the packed words.
func (ix *Index) partitionSet() core.PartitionSet {
	return core.PartitionSet{
		Specs:      []core.PartitionSpec{{Lib: ix.Lib, Block: ix.Words(), Gen: 1}},
		Generation: 1,
		Skipped:    ix.Lib.Skipped,
	}
}

// Mapped reports whether the index is memory-mapped (true) or was
// copied to the heap by the fallback loader (false).
func (ix *Index) Mapped() bool { return ix.mapped != nil }

// Close releases the mapping and poisons the index: the words view is
// zeroed and Words panics afterwards, for a copied index exactly as
// for a mapped one, so misuse does not depend on which loader ran.
// Every view already handed out — Lib.HVs, Words results, and any
// searcher or engine packed over them — is invalid after Close; close
// only after the engine built over this index is unreachable. Close is
// idempotent: the second and later calls return nil without touching
// the mapping again.
func (ix *Index) Close() error {
	if ix.closed {
		return nil
	}
	ix.closed = true
	ix.words = nil
	m := ix.mapped
	ix.mapped = nil
	if m == nil {
		return nil
	}
	return munmapFile(m)
}

// Verify checksums the full index image against its CRC-32C trailer
// and re-checks the packed-tail invariant (verifyImage). OpenFile
// validates the metadata sections structurally but — unlike the
// copying loader — does not touch the bulk word pages, so a mapped index of untrusted
// provenance can be verified explicitly here (at the cost of faulting
// in every page). A copied index already passed the same pass in the
// loader; Verify reports nil without re-reading it.
func (ix *Index) Verify() error {
	if ix.mapped == nil {
		return nil
	}
	return verifyImage(ix.mapped, ix.words, ix.Params.Accel.D)
}

// OpenFile opens a library index with the bulk word section
// memory-mapped: the metadata sections (params, masses, source
// positions, entry strings) are decoded and validated exactly as the
// copying loader does, but the packed words become a zero-copy
// []uint64 view over the mapping, so opening is metadata-bound —
// independent of library size — and the resident cost of a partition
// is only the pages its searches touch.
// The word payload itself is not checksummed here (that would fault in
// every page, defeating the point); use Index.Verify when the file's
// integrity is in question. On platforms without mmap, or
// when mapping fails, OpenFile falls back to the copying loader —
// callers observe the same Index either way.
func OpenFile(path string) (*Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if !mmapSupported {
		return openCopied(f, path)
	}
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	data, err := mmapFile(f, st.Size())
	if err != nil {
		return openCopied(f, path)
	}
	p, lib, words, err := parseIndex(data)
	if err != nil {
		munmapFile(data)
		return nil, err
	}
	return &Index{Params: p, Lib: lib, words: words, mapped: data, path: path}, nil
}

// openCopied is OpenFile's fallback: the copying loader, wrapped in
// the same Index shape (heap-backed block, nil mapping).
func openCopied(f *os.File, path string) (*Index, error) {
	p, lib, block, err := loadImage(f)
	if err != nil {
		return nil, err
	}
	return &Index{Params: p, Lib: lib, words: block, path: path}, nil
}

// byteCursor walks an in-memory index image with bounds-checked reads,
// capturing the first error so call sites stay linear (the read-side
// mirror of sectionWriter; every length is validated against the bytes
// actually present before any slice is taken, so a crafted header can
// neither panic nor drive an oversized allocation).
type byteCursor struct {
	data []byte
	off  int
	err  error
}

// take consumes n bytes, returning nil (with the error recorded) when
// fewer remain.
func (c *byteCursor) take(n int) []byte {
	if c.err != nil {
		return nil
	}
	if n < 0 || n > len(c.data)-c.off {
		c.err = fmt.Errorf("truncated index: %d bytes needed at offset %d, %d remain", n, c.off, len(c.data)-c.off)
		return nil
	}
	b := c.data[c.off : c.off+n]
	c.off += n
	return b
}

func (c *byteCursor) u8() byte {
	b := c.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (c *byteCursor) u16() uint16 {
	b := c.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (c *byteCursor) u32() uint32 {
	b := c.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (c *byteCursor) u64() uint64 {
	b := c.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// parseIndex is the one index decoder, behind both the mmap-backed
// OpenFile and the copying loadImage. It decodes an image in place:
// metadata is copied out (entry strings must survive the mapping), the
// packed words become a view over data when the section is 8-byte
// aligned (always, for a page-aligned mapping) and are copied
// otherwise. The CRC trailer is located but not verified, and the word
// pages are not touched — that is verifyImage, which loadImage runs eagerly
// and a mapped index runs on request (Index.Verify).
func parseIndex(data []byte) (core.Params, *core.Library, []uint64, error) {
	fail := func(format string, args ...any) (core.Params, *core.Library, []uint64, error) {
		return core.Params{}, nil, nil, fmt.Errorf("libindex: "+format, args...)
	}
	c := &byteCursor{data: data}
	var hdr [6]byte
	copy(hdr[:], c.take(6))
	if c.err != nil {
		return fail("%v", c.err)
	}
	if hdr != magic {
		return fail("not an OMS library index (bad magic %q)", hdr[:])
	}
	if version := c.u16(); c.err == nil && version != Version {
		return core.Params{}, nil, nil, versionErr(version)
	}
	d := int(c.u32())
	shardSize := int(c.u32())
	n64 := c.u64()
	skipped := c.u64()
	paramsLen := int(c.u32())
	if c.err != nil {
		return fail("%v", c.err)
	}
	if d <= 0 || d > maxDim {
		return fail("implausible hypervector dimension %d in header", d)
	}
	if n64 == 0 || n64 > maxEntries {
		return fail("implausible entry count %d in header", n64)
	}
	if paramsLen <= 0 || paramsLen > maxParamsLen {
		return fail("implausible params length %d in header", paramsLen)
	}
	n := int(n64)
	words := hdc.WordsPerHV(d)
	if int64(n)*int64(words) > maxTotalWords {
		return fail("implausible index size: %d entries × %d words", n, words)
	}
	// The whole image is in hand, so the claimed entry count can be
	// checked against the bytes actually present before any allocation:
	// every entry costs at least 8 (mass) + 8 (srcPos) + 9 (metadata)
	// bytes plus its words, and the params, permLen field and CRC
	// trailer are fixed.
	minSize := int64(c.off) + int64(paramsLen) + 4 + int64(n)*(8+8+9) + int64(n)*int64(words)*8 + 4
	if minSize > int64(len(data)) {
		return fail("truncated index: %d entries need at least %d bytes, file has %d", n, minSize, len(data))
	}

	paramsJSON := c.take(paramsLen)
	if permLen := c.u32(); c.err == nil && permLen != 0 {
		return fail("index stores a %d-entry bit-layout permutation (the removed entropy layout), which this build does not read: rebuild the index with omsbuild", permLen)
	}
	masses := make([]float64, n)
	for i := range masses {
		masses[i] = math.Float64frombits(c.u64())
	}
	srcPos := make([]int, n)
	for i := range srcPos {
		p64 := c.u64()
		if c.err == nil && p64 >= n64 {
			return fail("source position %d out of range [0,%d)", p64, n)
		}
		srcPos[i] = int(p64)
	}
	// The entry section is validated first, then copied off the image
	// once (entry strings must survive an unmapped index): every ID and
	// peptide is a substring of that one copy.
	entriesOff := c.off
	for range n {
		c.u8()
		c.str()
		c.str()
	}
	if c.err != nil {
		return fail("%v", c.err)
	}
	strs := string(data[entriesOff:c.off])
	sec := &byteCursor{data: data[entriesOff:c.off]}
	next := func() string { // the section's next string, out of strs
		ln := len(sec.str())
		return strs[sec.off-ln : sec.off]
	}
	entries := make([]core.LibraryEntry, n)
	for i := range entries {
		flags := sec.u8()
		id := next()
		entries[i] = core.LibraryEntry{ID: id, Peptide: next(), IsDecoy: flags&1 != 0, Mass: masses[i]}
	}
	pad := c.take(int(-int64(c.off) & 7))
	for _, b := range pad {
		if b != 0 {
			return fail("nonzero alignment padding")
		}
	}
	wordsOff := c.off
	if c.take(n*words*8) == nil || c.take(4) == nil {
		return fail("%v", c.err)
	}
	if c.off != len(data) {
		return fail("trailing data after checksum")
	}

	p, err := decodeParams(paramsJSON)
	if err != nil {
		return fail("decoding params: %v", err)
	}
	if p.Accel.D != d {
		return fail("params dimension D=%d disagrees with header dimension %d", p.Accel.D, d)
	}
	p.ShardSize = shardSize // header is authoritative for the shard hint
	for i, m := range masses {
		if math.IsNaN(m) || math.IsInf(m, 0) {
			return fail("non-finite precursor mass at entry %d", i)
		}
		if i > 0 && m < masses[i-1] {
			return fail("entries not in ascending mass order at index %d", i)
		}
	}

	var block []uint64
	if uintptr(unsafe.Pointer(&data[wordsOff]))%8 == 0 {
		block = unsafe.Slice((*uint64)(unsafe.Pointer(&data[wordsOff])), n*words)
	} else {
		// A non-page-aligned backing buffer (tests, fuzzing) cannot be
		// viewed as []uint64; copy the words out instead.
		block = make([]uint64, n*words)
		for i := range block {
			block[i] = binary.LittleEndian.Uint64(data[wordsOff+i*8:])
		}
	}
	hvs := make([]hdc.BinaryHV, n)
	for i := range hvs {
		hvs[i] = hdc.BinaryHV{D: d, Words: block[i*words : (i+1)*words : (i+1)*words]}
	}
	lib, err := core.RestoreLibrary(entries, hvs, srcPos, int(skipped))
	if err != nil {
		return core.Params{}, nil, nil, err
	}
	return p, lib, block, nil
}

// str consumes a length-prefixed string, returning its bytes: a view of
// the backing buffer.
func (c *byteCursor) str() []byte {
	ln := int(c.u32())
	if c.err != nil {
		return nil
	}
	if ln > maxStringLen {
		c.err = fmt.Errorf("string length %d exceeds limit %d", ln, maxStringLen)
		return nil
	}
	return c.take(ln)
}
