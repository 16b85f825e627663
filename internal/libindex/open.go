package libindex

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"unsafe"

	"repro/internal/core"
	"repro/internal/hdc"
)

// partition is one opened index file: the decoded library and build
// parameters; the library's packed rows are the file's words section.
// When the file is memory-mapped (the normal case on unix), the rows
// alias the mapping directly — opening costs one
// metadata parse, not a copy of the bulk words, and the word pages
// fault in lazily as searches touch them. On platforms without mmap,
// or when mapping fails, openPartition transparently falls back to the
// copying loader and the block lives on the heap.
type partition struct {
	// Params are the engine parameters the file was built with
	// (ShardSize from the header, everything else from the params JSON).
	Params core.Params
	// Lib is the decoded library; its Rows are Words.
	Lib *core.Library

	words  []uint64
	mapped []byte // non-nil iff mmap-backed
	// size is the file's length and crc its CRC-32C trailer — the
	// content checksum a manifest records for it.
	size   int64
	crc    uint32
	closed bool
	path   string
}

// Words returns the contiguous packed word block (n × WordsPerHV(d)),
// row-major in mass order: Lib.Rows. The block aliases the mapping when
// the file is mapped: no view outlives the partition's Close. Words
// panics after Close (mustOpen).
func (pt *partition) Words() []uint64 {
	pt.mustOpen()
	return pt.words
}

// mustOpen panics once the partition is closed — deterministically, on
// every platform, so a lifetime bug surfaces as a descriptive panic at
// the call site instead of a SIGSEGV inside a kernel loop on mmap
// platforms and silent success elsewhere.
func (pt *partition) mustOpen() {
	if pt.closed {
		panic("libindex: use of closed index " + pt.path + " (no view outlives its generation's Close)")
	}
}

// Close releases the mapping and poisons the partition: the words view
// is zeroed and Words panics afterwards, for a copied file exactly as
// for a mapped one, so misuse does not depend on which loader ran.
// Every view already handed out — Lib.Rows, Words results, and any
// searcher or engine over them — is invalid after Close.
// Idempotent: the second and later calls return nil without touching
// the mapping again.
func (pt *partition) Close() error {
	if pt.closed {
		return nil
	}
	pt.closed = true
	pt.words = nil
	m := pt.mapped
	pt.mapped = nil
	if m == nil {
		return nil
	}
	return munmapFile(m)
}

// openPartition opens an index file with the bulk word section
// memory-mapped: the metadata sections are decoded and validated as
// the copying loader does, but the packed words become a zero-copy
// view over the mapping, so opening is metadata-bound and the words
// are not checksummed (Index.Verify does that on request). Without
// mmap, or when mapping fails, it falls back to the copying loader.
func openPartition(path string) (*partition, error) {
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
	p, lib, err := parseIndex(data)
	if err != nil {
		munmapFile(data)
		return nil, err
	}
	return newPartition(path, data, data, p, lib), nil
}

// openCopied is openPartition's fallback: the copying loader, wrapped
// in the same partition shape (heap-backed block, nil mapping).
func openCopied(f *os.File, path string) (*partition, error) {
	data, err := io.ReadAll(f)
	if err != nil {
		return nil, fmt.Errorf("libindex: reading index: %w", err)
	}
	p, lib, err := loadImage(data)
	if err != nil {
		return nil, err
	}
	return newPartition(path, data, nil, p, lib), nil
}

// newPartition wraps a decoded image; mapped is the image if it is a
// mapping, nil if it is a heap copy.
func newPartition(path string, data, mapped []byte, p core.Params, lib *core.Library) *partition {
	return &partition{Params: p, Lib: lib, words: lib.Rows(), mapped: mapped, path: path,
		size: int64(len(data)), crc: binary.LittleEndian.Uint32(data[len(data)-4:])}
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
// openPartition and the copying loadImage. It decodes an image in place:
// metadata is copied out (entry strings must survive the mapping), the
// packed words become the library's rows (core.LibraryOver) as a view
// over data when the section is 8-byte aligned (always, for a
// page-aligned mapping) and as a copy otherwise; no per-row header is
// made. The CRC trailer is located but not verified, and the word
// pages are not touched — that is verifyImage, which loadImage runs eagerly
// and a mapped index runs on request (Index.Verify).
func parseIndex(data []byte) (core.Params, *core.Library, error) {
	fail := func(format string, args ...any) (core.Params, *core.Library, error) {
		return core.Params{}, nil, fmt.Errorf("libindex: "+format, args...)
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
		return core.Params{}, nil, versionErr(version)
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
	lib, err := core.LibraryOver(entries, block, d, srcPos, int(skipped))
	if err != nil {
		return core.Params{}, nil, err
	}
	return p, lib, nil
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
