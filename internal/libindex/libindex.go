// Package libindex persists a built core.Library — the expensive
// product of preprocessing and HD-encoding an entire spectral library
// — as versioned, checksummed binary index files. Opening an index
// reconstructs a search engine in milliseconds (the words are mapped,
// not re-encoded), which is what makes a resident search service
// (cmd/omsd) economical: one library write is amortized across
// arbitrarily many queries.
//
// Every index is a generation of partition files: a manifest log
// (manifest.go, log.go) names the live files of its newest generation,
// and a bare index file is generation 1 with one partition, itself.
// Open is the one way to open either, and Index the one opened type.
//
// # File format (version 3, all integers little-endian)
//
//	magic      [6]byte  "OMSIDX"
//	version    uint16   3
//	d          uint32   hypervector dimension
//	shardSize  uint32   search shard size hint (0 = default)
//	n          uint64   entry count
//	skipped    uint64   spectra rejected by preprocessing at build time
//	paramsLen  uint32   length of the params JSON
//	params     []byte   JSON-encoded core.Params the library was built with
//	permLen    uint32   0 (see below)
//	masses     n×f64    ascending precursor masses (entry order = mass rank)
//	srcPos     n×u64    mass-rank → build-order permutation (Library.SourcePositions)
//	entries    n×{flags u8, idLen u32, id, pepLen u32, pep}
//	pad        0–7 zero bytes aligning the words section to 8 bytes
//	words      n×W×u64  packed hypervector words, W = hdc.WordsPerHV(d)
//	crc        uint32   CRC-32C (Castagnoli) of every preceding byte
//
// The pad section (new in version 2) puts the bulk word section on an
// 8-byte file offset, so a memory-mapped partition can expose the
// words as an aligned []uint64 view with zero copying.
//
// The permLen field (new in version 3) once introduced a bit-layout
// permutation section. Every index is now written in the encoder's own
// dimension order with permLen 0, and a file that carries a
// permutation is rejected with a rebuild message rather than served
// under a layout no query is encoded in.
//
// One decoder (parseIndex) reads the format, for a mapped partition
// and its copying fallback alike, and validates the structural
// invariants the engine relies on (ascending masses, a true source
// permutation) so a corrupted file can never silently mis-score
// searches. The trailing checksum covers the header too, so
// truncation, bit rot and partial writes are all detected; checking it
// — and the zero tail bits beyond dimension d — touches every word
// page, so the copying loader does it eagerly and a mapped index on request
// (Index.Verify).
package libindex

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"repro/internal/core"
	"repro/internal/hdc"
)

var magic = [6]byte{'O', 'M', 'S', 'I', 'D', 'X'}

// Version is the current index file format version. Version 3 added
// the permLen field (always 0 on write); version 2 added the alignment
// pad before the words section. Older files are rejected with a
// version-specific message — rebuild them with omsbuild.
const Version = 3

// Sanity bounds on header fields, so a corrupted length can't drive a
// huge allocation. The decoder additionally checks the claimed entry
// count against the bytes actually present before allocating anything
// (parseIndex), so a tiny crafted file with an enormous header count
// fails on truncation.
const (
	maxDim        = 1 << 22 // 4M-dimensional hypervectors
	maxEntries    = 1 << 28 // 268M library entries (paper scale: 3M)
	maxTotalWords = 1 << 33 // 64 GiB of packed hypervector words
	maxParamsLen  = 1 << 20 // 1 MiB of params JSON
	maxStringLen  = 1 << 20 // 1 MiB per ID/peptide string
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Save writes the library and the parameters it was built with as a
// current-version index to w.
func Save(w io.Writer, p core.Params, lib *core.Library) error {
	if lib == nil || lib.Len() == 0 {
		return fmt.Errorf("libindex: refusing to save empty library")
	}
	// Refuse to write a file the decoder would reject: a hand-assembled
	// library that never ran SortByMass has no permutation and no packed
	// rows and may be out of mass order, and the failure should surface
	// now rather than after the expensive build is gone.
	n := lib.Len()
	srcPos := lib.SourcePositions()
	if len(srcPos) != n {
		return fmt.Errorf("libindex: library has %d entries but %d source positions (SortByMass never ran?)", n, len(srcPos))
	}
	d := lib.Row(0).D
	if p.Accel.D != d {
		return fmt.Errorf("libindex: params dimension D=%d does not match library hypervector dimension D=%d", p.Accel.D, d)
	}
	for i := 1; i < n; i++ {
		if lib.Entries[i].Mass < lib.Entries[i-1].Mass {
			return fmt.Errorf("libindex: library entries not in ascending mass order at index %d", i)
		}
	}
	paramsJSON, err := json.Marshal(p)
	if err != nil {
		return fmt.Errorf("libindex: encoding params: %w", err)
	}
	if len(paramsJSON) > maxParamsLen {
		return fmt.Errorf("libindex: params JSON of %d bytes exceeds limit %d", len(paramsJSON), maxParamsLen)
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	crc := crc32.New(castagnoli)
	out := io.MultiWriter(bw, crc)
	enc := sectionWriter{w: out}

	enc.bytes(magic[:])
	enc.u16(Version)
	enc.u32(uint32(d))
	enc.u32(uint32(p.ShardSize))
	enc.u64(uint64(n))
	enc.u64(uint64(lib.Skipped))
	enc.u32(uint32(len(paramsJSON)))
	enc.bytes(paramsJSON)
	enc.u32(0) // permLen: no bit-layout permutation
	for _, e := range lib.Entries {
		enc.f64(e.Mass)
	}
	for _, pos := range srcPos {
		enc.u64(uint64(pos))
	}
	for _, e := range lib.Entries {
		var flags byte
		if e.IsDecoy {
			flags |= 1
		}
		if len(e.ID) > maxStringLen || len(e.Peptide) > maxStringLen {
			return fmt.Errorf("libindex: entry %q: string exceeds %d bytes", e.ID, maxStringLen)
		}
		enc.u8(flags)
		enc.str(e.ID)
		enc.str(e.Peptide)
	}
	// Align the bulk word section to an 8-byte file offset so a
	// memory-mapped index can view it as []uint64 without copying.
	var pad [8]byte
	enc.bytes(pad[:-enc.n&7])
	enc.u64s(lib.Rows())
	if enc.err != nil {
		return fmt.Errorf("libindex: writing index: %w", enc.err)
	}
	// The checksum trailer goes to the buffered writer only — it must
	// not hash itself.
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], crc.Sum32())
	if _, err := bw.Write(tail[:]); err != nil {
		return fmt.Errorf("libindex: writing index: %w", err)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("libindex: writing index: %w", err)
	}
	return nil
}

// SaveFile saves the library index to path atomically (writeAtomic):
// readers, and a crash, see either the old index or the whole new one.
func SaveFile(path string, p core.Params, lib *core.Library) error {
	return writeAtomic(path, func(f file) error { return Save(f, p, lib) })
}

// loadImage is the copying loader behind openPartition's fallback: a
// whole image read to the heap is decoded by parseIndex — the one
// decoder, shared with the mmap-backed path — and then, unlike a
// mapping, eagerly verified (verifyImage), which the heap copy has
// already paid the page touches for. It returns the parameters the
// library was built with and the library over the image's words — no
// spectrum is re-encoded.
func loadImage(data []byte) (core.Params, *core.Library, error) {
	p, lib, err := parseIndex(data)
	if err != nil {
		return core.Params{}, nil, err
	}
	if err := verifyImage(data, lib.Rows(), p.Accel.D); err != nil {
		return core.Params{}, nil, err
	}
	return p, lib, nil
}

// verifyImage is the integrity pass over a parsed index image that
// touches every word page: the CRC-32C trailer must match every
// preceding byte (truncation, bit rot and partial writes all land
// here), and the packed-tail invariant must hold — bits beyond
// dimension d are zero, or every Hamming similarity would be silently
// skewed. The checksum goes first, so damage reports as corruption
// rather than as whichever invariant it happened to break.
func verifyImage(data []byte, block []uint64, d int) error {
	got := crc32.Checksum(data[:len(data)-4], castagnoli)
	want := binary.LittleEndian.Uint32(data[len(data)-4:])
	if got != want {
		return fmt.Errorf("libindex: checksum mismatch (file %08x, computed %08x): index is corrupted", want, got)
	}
	if rem := d % 64; rem != 0 {
		words := hdc.WordsPerHV(d)
		for i := words - 1; i < len(block); i += words {
			if block[i]>>uint(rem) != 0 {
				return fmt.Errorf("libindex: hypervector %d has bits set beyond dimension %d", i/words, d)
			}
		}
	}
	return nil
}

// versionErr renders a version mismatch with enough history to tell
// the operator what to do about it.
func versionErr(version uint16) error {
	switch {
	case version < Version:
		return fmt.Errorf("libindex: index version %d predates the bit-layout permutation section (this build reads version %d): rebuild the index with omsbuild", version, Version)
	default:
		return fmt.Errorf("libindex: index version %d is newer than this build understands (version %d): upgrade the reader or rebuild the index", version, Version)
	}
}

// sectionWriter writes fixed-width little-endian fields, capturing the
// first error so call sites stay linear and counting bytes written so
// the alignment pad before the words section can be sized. scratch
// stages strings and word runs; it belongs to the writer, so writing a
// row allocates nothing once it has grown to the longest one.
type sectionWriter struct {
	w       io.Writer
	err     error
	n       int64
	buf     [8]byte
	scratch []byte
}

func (s *sectionWriter) bytes(b []byte) {
	if s.err != nil {
		return
	}
	_, s.err = s.w.Write(b)
	if s.err == nil {
		s.n += int64(len(b))
	}
}

func (s *sectionWriter) u8(v byte) {
	s.buf[0] = v
	s.bytes(s.buf[:1])
}

func (s *sectionWriter) u16(v uint16) {
	binary.LittleEndian.PutUint16(s.buf[:2], v)
	s.bytes(s.buf[:2])
}

func (s *sectionWriter) u32(v uint32) {
	binary.LittleEndian.PutUint32(s.buf[:4], v)
	s.bytes(s.buf[:4])
}

func (s *sectionWriter) u64(v uint64) {
	binary.LittleEndian.PutUint64(s.buf[:8], v)
	s.bytes(s.buf[:8])
}

func (s *sectionWriter) f64(v float64) { s.u64(math.Float64bits(v)) }

func (s *sectionWriter) str(v string) {
	s.u32(uint32(len(v)))
	s.scratch = append(s.scratch[:0], v...)
	s.bytes(s.scratch)
}

// u64s writes a word slice in chunks through the scratch buffer,
// avoiding a per-word Write without materializing the whole section.
func (s *sectionWriter) u64s(vs []uint64) {
	const chunkWords = 8192
	for len(vs) > 0 && s.err == nil {
		c := min(chunkWords, len(vs))
		s.scratch = s.scratch[:0]
		for _, v := range vs[:c] {
			s.scratch = binary.LittleEndian.AppendUint64(s.scratch, v)
		}
		s.bytes(s.scratch)
		vs = vs[c:]
	}
}
