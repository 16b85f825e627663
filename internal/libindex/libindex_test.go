package libindex

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/hdc"
	"repro/internal/msdata"
	"repro/internal/spectrum"
)

// testParams returns a small but non-degenerate engine configuration.
func testParams(d, shardSize, precision int) core.Params {
	p := core.DefaultParams()
	p.Accel.D = d
	p.Accel.NumChunks = max(d/32, 32)
	p.Accel.IDPrecision = precision
	p.ShardSize = shardSize
	return p
}

// testWorkload generates a small dataset shared by the tests.
func testWorkload(t testing.TB) *msdata.Dataset {
	t.Helper()
	cfg := msdata.IPRG2012(0.001)
	ds, err := msdata.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// buildEngine builds the exact engine and returns it with its library.
func buildEngine(t testing.TB, p core.Params, library []*spectrum.Spectrum) *core.Engine {
	t.Helper()
	engine, _, err := core.BuildExact(p, library)
	if err != nil {
		t.Fatal(err)
	}
	return engine
}

// loadFile opens an index file with the copying loader, the one
// openPartition falls back to where mapping is unavailable or fails.
func loadFile(path string) (core.Params, *core.Library, error) {
	defer func(prev func(*os.File, int64) ([]byte, error)) { mapFile = prev }(mapFile)
	mapFile = noMapping
	pt, err := openPartition(path)
	if err != nil {
		return core.Params{}, nil, err
	}
	return pt.Params, pt.Lib, nil
}

// noMapping is a mapFile that always fails, so openPartition copies.
func noMapping(*os.File, int64) ([]byte, error) {
	return nil, errors.New("mapping disabled by the test")
}

// copyingLoader makes Open copy every partition to the heap for the
// rest of the test, as it does where mapping is unavailable or fails.
func copyingLoader(t testing.TB) {
	prev := mapFile
	mapFile = noMapping
	t.Cleanup(func() { mapFile = prev })
}

// decodeImage runs an in-memory index image through openPartition's
// decode (parse, then check), as a copied file's image would.
func decodeImage(img []byte) (core.Params, *core.Library, error) {
	pt, err := decodePartition(bytes.NewReader(img), "image.omsidx", img, nil)
	if err != nil {
		return core.Params{}, nil, err
	}
	return pt.Params, pt.Lib, nil
}

// liveRefs sums the live partitions' row counts, hidden rows included.
func liveRefs(st *ManifestState) int {
	n := 0
	for _, ps := range st.Partitions() {
		n += ps.Refs
	}
	return n
}

// TestRoundTripSearchIdentical pins the core contract: save → load →
// search is bit-identical to searching with the freshly built engine,
// across dimensions, shard sizes and ID precisions.
func TestRoundTripSearchIdentical(t *testing.T) {
	ds := testWorkload(t)
	cases := []struct{ d, shard, precision int }{
		{512, 0, 3},
		{1024, 64, 1},
		{2048, 128, 2},
		{1000, 96, 3}, // non-multiple-of-64 dimension exercises the tail mask
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("D%d/shard%d/p%d", tc.d, tc.shard, tc.precision), func(t *testing.T) {
			p := testParams(tc.d, tc.shard, tc.precision)
			built := buildEngine(t, p, ds.Library)

			var buf bytes.Buffer
			if err := Save(&buf, p, built.Library()); err != nil {
				t.Fatalf("Save: %v", err)
			}
			lp, lib, err := decodeImage(buf.Bytes())
			if err != nil {
				t.Fatalf("Load: %v", err)
			}
			if lp.Accel.D != p.Accel.D || lp.Accel.IDPrecision != p.Accel.IDPrecision ||
				lp.Accel.Seed != p.Accel.Seed || lp.ShardSize != p.ShardSize {
				t.Fatalf("params round-trip mismatch: saved %+v loaded %+v", p.Accel, lp.Accel)
			}
			loaded, _, err := core.NewExactEngineFromLibrary(lp, lib)
			if err != nil {
				t.Fatalf("NewExactEngineFromLibrary: %v", err)
			}

			// Library-level identity.
			if lib.Len() != built.Library().Len() || lib.Skipped != built.Library().Skipped {
				t.Fatalf("library size mismatch: loaded %d/%d, built %d/%d",
					lib.Len(), lib.Skipped, built.Library().Len(), built.Library().Skipped)
			}
			for i := 0; i < lib.Len(); i++ {
				if lib.Entries[i] != built.Library().Entries[i] {
					t.Fatalf("entry %d mismatch: %+v vs %+v", i, lib.Entries[i], built.Library().Entries[i])
				}
				if !slices.Equal(lib.Row(i).Words, built.Library().Row(i).Words) {
					t.Fatalf("hypervector %d differs after round trip", i)
				}
				if lib.SourcePos(i) != built.Library().SourcePos(i) {
					t.Fatalf("source position %d mismatch", i)
				}
			}

			// PSM-for-PSM identity on the full query set.
			want, err := built.SearchAll(ds.Queries)
			if err != nil {
				t.Fatal(err)
			}
			got, err := loaded.SearchAll(ds.Queries)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("PSM count mismatch: loaded %d, built %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("PSM %d mismatch:\nloaded %+v\nbuilt  %+v", i, got[i], want[i])
				}
			}
		})
	}
}

// TestPackedStoreMatchesIndex verifies the loaded engine's packed rows
// are bit-identical to the saved hypervector words, through the
// sharded searcher's kernel: every built hypervector must score full
// similarity D against its own packed row.
func TestPackedStoreMatchesIndex(t *testing.T) {
	ds := testWorkload(t)
	p := testParams(512, 100, 3)
	built := buildEngine(t, p, ds.Library)

	var buf bytes.Buffer
	if err := Save(&buf, p, built.Library()); err != nil {
		t.Fatal(err)
	}
	lp, lib, err := decodeImage(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	s, err := hdc.NewShardedSearcher(lp.Accel.D, lp.ShardSize, nil, nil, lib.Rows())
	if err != nil {
		t.Fatal(err)
	}
	var sim []int
	for i, hv := range built.Library().HVs {
		if sim = s.SimilaritiesRangeInto(hv, i, i+1, sim); sim[0] != p.Accel.D {
			t.Fatalf("row %d scores %d against its built hypervector, want D=%d", i, sim[0], p.Accel.D)
		}
	}
}

// TestRoundTripSingleEntry pins the degenerate 1-entry library through
// Save/Load and engine reconstruction (the 0-entry case is rejected by
// Save and BuildLibrary).
func TestRoundTripSingleEntry(t *testing.T) {
	ds := testWorkload(t)
	p := testParams(512, 0, 3)
	built := buildEngine(t, p, ds.Library[:1])
	if built.Library().Len() != 1 {
		t.Fatalf("library has %d entries, want 1", built.Library().Len())
	}
	path := t.TempDir() + "/one.omsidx"
	if err := SaveFile(path, p, built.Library()); err != nil {
		t.Fatal(err)
	}
	lp, lib, err := loadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if lib.Len() != 1 || lib.SourcePos(0) != 0 {
		t.Fatalf("loaded %d entries, srcPos(0)=%d", lib.Len(), lib.SourcePos(0))
	}
	loaded, _, err := core.NewExactEngineFromLibrary(lp, lib)
	if err != nil {
		t.Fatal(err)
	}
	want, err := built.SearchAll(ds.Queries)
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.SearchAll(ds.Queries)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("PSM count mismatch: %d vs %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("PSM %d mismatch on single-entry library", i)
		}
	}
}

// fixCRC recomputes the CRC-32C trailer after a deliberate mutation,
// so a test can craft a structurally valid but semantically bad image.
func fixCRC(img []byte) {
	binary.LittleEndian.PutUint32(img[len(img)-4:], crc32.Checksum(img[:len(img)-4], castagnoli))
}

// permSectionOffset locates the version-3 permLen field in an index
// image (fixed 36-byte header, then the params JSON).
func permSectionOffset(img []byte) int {
	return 36 + int(binary.LittleEndian.Uint32(img[32:36]))
}

// reversal is a non-identity dimension permutation over [0, d).
func reversal(d int) []int {
	perm := make([]int, d)
	for i := range perm {
		perm[i] = d - 1 - i
	}
	return perm
}

// withPermSection rewrites a current image the way an older build
// wrote an entropy-layout index: permLen = len(perm) followed by the
// permutation, checksum re-sealed. len(perm) must be even, so the
// insert keeps the word section 8-byte aligned.
func withPermSection(tb testing.TB, img []byte, perm []int) []byte {
	tb.Helper()
	if len(perm)%2 != 0 {
		tb.Fatalf("odd permutation length %d would misalign the word section", len(perm))
	}
	off := permSectionOffset(img)
	out := binary.LittleEndian.AppendUint32(append([]byte(nil), img[:off]...), uint32(len(perm)))
	for _, dim := range perm {
		out = binary.LittleEndian.AppendUint32(out, uint32(dim))
	}
	out = append(out, img[off+4:]...)
	fixCRC(out)
	return out
}

// TestOpenRejectsStoredPermutation pins the legacy contract for an
// index an older build wrote under the entropy bit layout: its words
// are permuted, and no query is encoded that way any more, so both
// loaders refuse it with a rebuild message instead of serving wrong
// distances.
func TestOpenRejectsStoredPermutation(t *testing.T) {
	p, lib := syntheticLibrary(t, 6, 128)
	var buf bytes.Buffer
	if err := Save(&buf, p, lib); err != nil {
		t.Fatal(err)
	}
	img := withPermSection(t, buf.Bytes(), reversal(128))
	const want = "rebuild the index with omsbuild"
	if _, _, err := decodeImage(img); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("copying loader: got %v, want %q", err, want)
	}
	path := t.TempDir() + "/entropy.omsidx"
	if err := writeFile(path, img); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Open: got %v, want %q", err, want)
	}
}

// TestLoadRejectsNonBijectivePerm pins that a malformed stored
// permutation — an entry repeated, so no bijection — meets the same
// rebuild rejection as a valid one, from the copying and the mapping
// loader alike: no permutation section is read past its length.
func TestLoadRejectsNonBijectivePerm(t *testing.T) {
	p, lib := syntheticLibrary(t, 6, 128)
	var buf bytes.Buffer
	if err := Save(&buf, p, lib); err != nil {
		t.Fatal(err)
	}
	perm := reversal(128)
	perm[1] = perm[0]
	img := withPermSection(t, buf.Bytes(), perm)
	const want = "rebuild the index with omsbuild"
	if _, _, err := decodeImage(img); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("copying loader: got %v, want %q", err, want)
	}
	path := t.TempDir() + "/dup.omsidx"
	if err := writeFile(path, img); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("mmap loader: got %v, want %q", err, want)
	}
}

// TestVerifyRejectsTailBits pins the packed-tail invariant of the
// check every partition passes at open: a checksummed image with a bit
// set beyond dimension d is structurally perfect, so only checkImage
// can reject it — whichever loader opened it.
func TestVerifyRejectsTailBits(t *testing.T) {
	p, lib := syntheticLibrary(t, 6, 100) // 2 words per row, 36 live bits in the last
	var buf bytes.Buffer
	if err := Save(&buf, p, lib); err != nil {
		t.Fatal(err)
	}
	img := append([]byte(nil), buf.Bytes()...)
	// The image ends words…|crc: set the top bit of the last row's last
	// word and re-seal the checksum.
	img[len(img)-5] |= 0x80
	fixCRC(img)
	const want = "bits set beyond dimension 100"
	if _, _, err := decodeImage(img); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("decode: got %v, want a tail-bit rejection", err)
	}
	path := t.TempDir() + "/tail.omsidx"
	if err := writeFile(path, img); err != nil {
		t.Fatal(err)
	}
	eachLoader(t, func(t *testing.T) {
		if _, err := Open(path); err == nil || !strings.Contains(err.Error(), "partition 0 (tail.omsidx)") || !strings.Contains(err.Error(), want) {
			t.Fatalf("Open: got %v, want partition 0 (tail.omsidx) refused for %q", err, want)
		}
	})
}

// eachLoader runs f as a subtest per loader: "mapped" (openPartition's
// default where the platform maps) and "copied" (its fallback).
func eachLoader(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	t.Run("mapped", f)
	t.Run("copied", func(t *testing.T) {
		copyingLoader(t)
		f(t)
	})
}

func writeFile(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644)
}

// corruptionCase mutates a valid index image and names the failure it
// should provoke.
type corruptionCase struct {
	name    string
	mutate  func(img []byte) []byte
	wantSub string
}

// TestLoadRejectsCorruption pins that truncated, corrupted and
// wrong-version files are rejected with descriptive errors.
func TestLoadRejectsCorruption(t *testing.T) {
	ds := testWorkload(t)
	p := testParams(512, 0, 3)
	built := buildEngine(t, p, ds.Library)
	var buf bytes.Buffer
	if err := Save(&buf, p, built.Library()); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	cases := []corruptionCase{
		{
			name:    "empty",
			mutate:  func(img []byte) []byte { return nil },
			wantSub: "truncated",
		},
		{
			name:    "bad magic",
			mutate:  func(img []byte) []byte { img[0] = 'X'; return img },
			wantSub: "bad magic",
		},
		{
			name:    "newer version",
			mutate:  func(img []byte) []byte { img[6] = 99; return img },
			wantSub: "index version 99 is newer",
		},
		{
			name:    "older version",
			mutate:  func(img []byte) []byte { img[6] = 2; return img },
			wantSub: "index version 2 predates the bit-layout permutation",
		},
		{
			name:    "truncated header",
			mutate:  func(img []byte) []byte { return img[:10] },
			wantSub: "truncated",
		},
		{
			name:    "truncated mid-body",
			mutate:  func(img []byte) []byte { return img[:len(img)/2] },
			wantSub: "truncated",
		},
		{
			name:    "truncated checksum",
			mutate:  func(img []byte) []byte { return img[:len(img)-2] },
			wantSub: "truncated",
		},
		{
			// Flip a bit deep in the packed-words section: structurally
			// valid, caught only by the checksum.
			name:    "flipped body bit",
			mutate:  func(img []byte) []byte { img[len(img)-100] ^= 0x40; return img },
			wantSub: "corrupted",
		},
		{
			name:    "flipped checksum bit",
			mutate:  func(img []byte) []byte { img[len(img)-1] ^= 0x01; return img },
			wantSub: "corrupted",
		},
		{
			name:    "trailing garbage",
			mutate:  func(img []byte) []byte { return append(img, 0xAA) },
			wantSub: "trailing data",
		},
		{
			// Header entry count beyond the hard bound fails before any
			// section allocation.
			name: "absurd entry count",
			mutate: func(img []byte) []byte {
				binary.LittleEndian.PutUint64(img[16:24], 1<<60)
				return img
			},
			wantSub: "implausible entry count",
		},
		{
			// A large-but-bounded crafted count must fail on truncation
			// (chunk-growing section reads track the actual file size)
			// rather than attempting a count-sized allocation.
			name: "inflated entry count",
			mutate: func(img []byte) []byte {
				binary.LittleEndian.PutUint64(img[16:24], 1<<27)
				return img
			},
			wantSub: "truncated",
		},
		{
			// Any nonzero perm length fails before a perm entry is read
			// (and before the checksum, so no re-CRC here).
			name: "bad perm length",
			mutate: func(img []byte) []byte {
				off := permSectionOffset(img)
				binary.LittleEndian.PutUint32(img[off:off+4], 7)
				return img
			},
			wantSub: "stores a 7-entry bit-layout permutation",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			img := append([]byte(nil), valid...)
			img = tc.mutate(img)
			_, _, err := decodeImage(img)
			if err == nil {
				t.Fatalf("Load accepted a %s index", tc.name)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
	// The pristine image must still load after all that slicing.
	if _, _, err := decodeImage(valid); err != nil {
		t.Fatalf("pristine image failed to load: %v", err)
	}
}

// TestSaveFileLoadFile exercises the atomic file path.
func TestSaveFileLoadFile(t *testing.T) {
	ds := testWorkload(t)
	p := testParams(512, 0, 3)
	built := buildEngine(t, p, ds.Library)
	path := t.TempDir() + "/lib.omsidx"
	if err := SaveFile(path, p, built.Library()); err != nil {
		t.Fatal(err)
	}
	lp, lib, err := loadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if lib.Len() != built.Library().Len() {
		t.Fatalf("loaded %d entries, want %d", lib.Len(), built.Library().Len())
	}
	if _, _, err := core.NewExactEngineFromLibrary(lp, lib); err != nil {
		t.Fatal(err)
	}
}

// TestFailedSaveFileKeepsIndex pins writeAtomic's failure contract: a
// save that fails while writing leaves the existing index byte for
// byte, one that fails at the rename leaves nothing, and neither leaves
// its temporary behind.
func TestFailedSaveFileKeepsIndex(t *testing.T) {
	ds := testWorkload(t)
	p := testParams(512, 0, 3)
	built := buildEngine(t, p, ds.Library)
	dir := t.TempDir()
	path := filepath.Join(dir, "lib.omsidx")
	if err := SaveFile(path, p, built.Library()); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	wrong := p
	wrong.Accel.D = 1024
	if err := SaveFile(path, wrong, built.Library()); err == nil {
		t.Fatal("SaveFile accepted params whose D disagrees with the library")
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, before) {
		t.Fatalf("failed save changed the existing index (read err %v)", err)
	}
	// A non-empty directory at the target makes the rename fail after
	// a complete write.
	blocked := filepath.Join(dir, "blocked")
	if err := os.MkdirAll(filepath.Join(blocked, "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := SaveFile(blocked, p, built.Library()); err == nil {
		t.Fatal("SaveFile renamed over a non-empty directory")
	}
	for _, tmp := range []string{path + ".tmp", blocked + ".tmp"} {
		if _, err := os.Stat(tmp); !os.IsNotExist(err) {
			t.Errorf("%s left behind (stat err %v)", filepath.Base(tmp), err)
		}
	}
}

// TestSaveRejectsMismatch pins Save's own validation.
func TestSaveRejectsMismatch(t *testing.T) {
	ds := testWorkload(t)
	p := testParams(512, 0, 3)
	built := buildEngine(t, p, ds.Library)
	var buf bytes.Buffer
	if err := Save(&buf, p, nil); err == nil {
		t.Fatal("Save accepted a nil library")
	}
	wrong := p
	wrong.Accel.D = 1024
	if err := Save(&buf, wrong, built.Library()); err == nil {
		t.Fatal("Save accepted params whose D disagrees with the library")
	}
	// A hand-assembled library that never ran SortByMass has no
	// permutation; Save must refuse rather than write a file Load
	// would reject.
	unsorted := &core.Library{
		Entries: append([]core.LibraryEntry(nil), built.Library().Entries...),
		HVs:     append([]hdc.BinaryHV(nil), built.Library().HVs...),
	}
	if err := Save(&buf, p, unsorted); err == nil || !strings.Contains(err.Error(), "source positions") {
		t.Fatalf("Save of a never-sorted library: got %v, want source-position refusal", err)
	}
}
