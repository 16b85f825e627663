package libindex

import (
	"encoding/binary"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestVerifyPartitionsRejectsBodyCorruption pins the two integrity
// layers every partition passes as it opens against *body* damage —
// bit flips in the bulk word section that every structural check
// (magic, sizes, params, fences) sails past — with a mapped and with a
// copied image alike:
//
//   - a flipped word bit breaks the partition's own CRC trailer, so
//     Open refuses it, naming the partition — in a manifest's
//     partition file and in a bare index file alike;
//   - a flipped word bit with the trailer recomputed to match is an
//     internally consistent file from "a different build" — only the
//     manifest's recorded CRC-32C can catch the swap, and the error
//     must say so.
func TestVerifyPartitionsRejectsBodyCorruption(t *testing.T) {
	ds := testWorkload(t)
	p := testParams(512, 0, 3)
	built := buildEngine(t, p, ds.Library)
	dir := t.TempDir()
	manifest := filepath.Join(dir, "lib.manifest")
	if err := SavePartitioned(manifest, p, built.Library(), 2); err != nil {
		t.Fatal(err)
	}

	// cloneLibrary copies the manifest and its partitions into a fresh
	// directory so each subtest corrupts its own set.
	cloneLibrary := func(t *testing.T) string {
		t.Helper()
		dst := t.TempDir()
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			src, err := os.Open(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			out, err := os.Create(filepath.Join(dst, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := io.Copy(out, src); err != nil {
				t.Fatal(err)
			}
			if err := src.Close(); err != nil {
				t.Fatal(err)
			}
			if err := out.Close(); err != nil {
				t.Fatal(err)
			}
		}
		return filepath.Join(dst, filepath.Base(manifest))
	}

	// open opens the index, closing it if it opened, and returns Open's
	// error.
	open := func(m string) error {
		ix, err := Open(m)
		if err == nil {
			ix.Close()
		}
		return err
	}
	// refused runs open on path under each loader and wants an error
	// naming the partition and the fault, with the package prefix once.
	refused := func(t *testing.T, path, partition, fault string) {
		eachLoader(t, func(t *testing.T) {
			err := open(path)
			if err == nil || !strings.Contains(err.Error(), partition) || !strings.Contains(err.Error(), fault) {
				t.Fatalf("Open: got %v, want %s refused as %q", err, partition, fault)
			}
			if n := strings.Count(err.Error(), "libindex:"); n != 1 || !strings.HasPrefix(err.Error(), "libindex: ") {
				t.Fatalf("Open: %q carries the package prefix %d times, want once, at the front", err, n)
			}
		})
	}

	t.Run("pristine", func(t *testing.T) {
		m := cloneLibrary(t)
		eachLoader(t, func(t *testing.T) {
			if err := open(m); err != nil {
				t.Fatalf("Open on a pristine library: %v", err)
			}
		})
	})

	t.Run("flipped word bit", func(t *testing.T) {
		m := cloneLibrary(t)
		// Flip one bit in the packed words, well clear of the metadata
		// sections at the front and the 4-byte CRC trailer at the back.
		flipByte(t, PartitionFileName(m, 1), -64, 0x10)
		refused(t, m, "partition 1 (lib.manifest.part001)", "corrupted")
	})

	t.Run("flipped word bit in a bare file", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "lib.omsidx")
		if err := SaveFile(path, p, built.Library()); err != nil {
			t.Fatal(err)
		}
		flipByte(t, path, -64, 0x10)
		refused(t, path, "partition 0 (lib.omsidx)", "corrupted")
	})

	t.Run("swapped partition with consistent trailer", func(t *testing.T) {
		m := cloneLibrary(t)
		part := PartitionFileName(m, 0)
		// Alter a word and recompute the file's own CRC trailer: the
		// partition is now internally consistent but not the file the
		// manifest recorded — the replaced-file case.
		img := flipByte(t, part, -32, 0x04)
		binary.LittleEndian.PutUint32(img[len(img)-4:], crc32.Checksum(img[:len(img)-4], castagnoli))
		if err := os.WriteFile(part, img, 0o644); err != nil {
			t.Fatal(err)
		}
		refused(t, m, "partition 0 (lib.manifest.part000)", "disagrees with manifest CRC")
	})
}

// flipByte XORs mask into the byte at off of the file at path (from
// the end when off is negative), keeping its size, and returns the
// image it wrote.
func flipByte(t testing.TB, path string, off int, mask byte) []byte {
	t.Helper()
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if off < 0 {
		off += len(img)
	}
	img[off] ^= mask
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	return img
}
