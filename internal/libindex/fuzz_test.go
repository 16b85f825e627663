package libindex

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/hdc"
)

// FuzzIndexLoad drives crafted index images through the one open
// path, openPartition's decode: parseIndex, then the checksum and
// tail-bit check (checkImage). Neither may panic or size an allocation
// from an unvalidated header field: parseIndex checks the claimed
// entry count against the image size before allocating anything, so
// whatever an accepted image decodes to is backed byte for byte by the
// image (asserted below; an over-allocation on a rejected image
// surfaces as the fuzz worker's memory blow-up). Structure-aware seeds
// start from a valid save so the fuzzer explores deep states, not
// just magic-number rejections.
func FuzzIndexLoad(f *testing.F) {
	valid := validIndexImage(f)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	// Header-field mutants: entry counts are the dangerous fields (they
	// size allocations); offsets per the format doc: magic 6, version
	// 2, d 4, shardSize 4, n 8, skipped 8, paramsLen 4. The seed list
	// is kept short — each corpus entry costs noticeable coordinator
	// warmup on small CI boxes before mutation throughput kicks in.
	for _, mut := range []struct {
		off int
		val uint64
		n   int
	}{
		{16, 1 << 60, 8}, // absurd entry count
		{16, 1 << 27, 8}, // large-but-bounded entry count
		{8, 63, 4},       // dimension not a multiple of 64
	} {
		img := append([]byte(nil), valid...)
		switch mut.n {
		case 2:
			binary.LittleEndian.PutUint16(img[mut.off:], uint16(mut.val))
		case 4:
			binary.LittleEndian.PutUint32(img[mut.off:], uint32(mut.val))
		case 8:
			binary.LittleEndian.PutUint64(img[mut.off:], mut.val)
		}
		f.Add(img)
	}
	// Permutation-section seeds, all rejected: an older build's image
	// carrying a bit-layout permutation, the same with a duplicated perm
	// entry, and an image claiming a nonzero perm length it does not
	// carry.
	permuted := withPermSection(f, valid, reversal(128))
	f.Add(permuted)
	dup := append([]byte(nil), permuted...)
	off := permSectionOffset(dup)
	copy(dup[off+8:off+12], dup[off+4:off+8])
	fixCRC(dup)
	f.Add(dup)
	badLen := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(badLen[permSectionOffset(badLen):], 7)
	f.Add(badLen)
	f.Fuzz(func(t *testing.T, data []byte) {
		p, lib, err := decodeImage(data)
		if err != nil {
			return
		}
		// Every entry costs at least a mass, a source position, its
		// metadata record and its packed words in the image.
		n, words := lib.Len(), len(lib.Row(0).Words)
		if words != hdc.WordsPerHV(p.Accel.D) || n*(8+8+9+8*words) > len(data) {
			t.Fatalf("accepted image of %d bytes decodes to %d entries × %d words at D=%d",
				len(data), n, words, p.Accel.D)
		}
	})
}

// validIndexImage builds a small valid index image for seeding — a
// synthetic library (random hypervectors, ascending masses), not a
// full encoding pipeline, so every fuzz worker starts instantly.
func validIndexImage(f *testing.F) []byte {
	f.Helper()
	p, lib := syntheticLibrary(f, 6, 128)
	var buf bytes.Buffer
	if err := Save(&buf, p, lib); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}
