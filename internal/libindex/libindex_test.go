package libindex

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
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

// loadFile reads an index file the way OpenFile does without a mapping:
// through openCopied, the eagerly verified copying loader.
func loadFile(path string) (core.Params, *core.Library, error) {
	f, err := os.Open(path)
	if err != nil {
		return core.Params{}, nil, err
	}
	defer f.Close()
	ix, err := openCopied(f, path)
	if err != nil {
		return core.Params{}, nil, err
	}
	return ix.Params, ix.Lib, nil
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
			lp, lib, _, err := loadImage(bytes.NewReader(buf.Bytes()))
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
				if !lib.HVs[i].Equal(built.Library().HVs[i]) {
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
// sharded searcher's PackedRow accessor.
func TestPackedStoreMatchesIndex(t *testing.T) {
	ds := testWorkload(t)
	p := testParams(512, 100, 3)
	built := buildEngine(t, p, ds.Library)

	var buf bytes.Buffer
	if err := Save(&buf, p, built.Library()); err != nil {
		t.Fatal(err)
	}
	lp, lib, _, err := loadImage(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	s, err := hdc.NewShardedSearcher(lib.HVs, lp.ShardSize, hdc.CascadeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	words := hdc.WordsPerHV(p.Accel.D)
	for i := 0; i < lib.Len(); i++ {
		row := s.PackedRow(i)
		if len(row) != words {
			t.Fatalf("row %d has %d words, want %d", i, len(row), words)
		}
		for w, v := range row {
			if v != built.Library().HVs[i].Words[w] {
				t.Fatalf("row %d word %d differs from built library", i, w)
			}
		}
	}
}

// TestRoundTripCascadeParams pins that the cascade knobs ride the
// params JSON: an index built with a two-tier cascade configuration
// reloads with the same knobs, the loaded engine actually runs the
// cascade (pruning counters move), and its results stay PSM-for-PSM
// identical to the freshly built cascade engine — and, exact mode
// being exact, to a single-tier engine over the same library.
func TestRoundTripCascadeParams(t *testing.T) {
	ds := testWorkload(t)
	p := testParams(1024, 64, 3)
	p.Tiers = []int{4}
	built := buildEngine(t, p, ds.Library)

	var buf bytes.Buffer
	if err := Save(&buf, p, built.Library()); err != nil {
		t.Fatal(err)
	}
	lp, lib, _, err := loadImage(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(lp.Tiers, p.Tiers) {
		t.Fatalf("cascade ladder did not round-trip: saved %v, loaded %v", p.Tiers, lp.Tiers)
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
		t.Fatalf("PSM count mismatch: loaded %d, built %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("PSM %d mismatch:\nloaded %+v\nbuilt  %+v", i, got[i], want[i])
		}
	}
	if cs, ok := loaded.CascadeStats(); !ok || cs.Prefiltered() == 0 {
		t.Fatalf("loaded engine did not run the cascade: stats %+v ok=%v", cs, ok)
	}
	// Loader overrides: dropping the ladder must fall back to the
	// single-tier layout with identical results.
	flat := lp
	flat.Tiers = nil
	flatEngine, _, err := core.NewExactEngineFromLibrary(flat, lib)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := flatEngine.CascadeStats(); ok {
		t.Fatal("single-tier override still reports cascade stats")
	}
	flatPSMs, err := flatEngine.SearchAll(ds.Queries)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if flatPSMs[i] != want[i] {
			t.Fatalf("exact cascade diverged from single-tier on PSM %d: %+v vs %+v", i, flatPSMs[i], want[i])
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

// TestRoundTripEntropyLayout pins the version-3 permutation section:
// an entropy-laid-out library round-trips its bit-layout permutation
// through Save/Load, the loaded engine searches PSM-for-PSM
// identically to the built one, and — the exactness claim — both agree
// with a natural-layout build of the same library.
func TestRoundTripEntropyLayout(t *testing.T) {
	ds := testWorkload(t)
	p := testParams(1024, 64, 3)
	p.Tiers = []int{2, 4, 10}
	p.BitLayout = core.BitLayoutEntropy
	built := buildEngine(t, p, ds.Library)
	if len(built.Library().DimPerm) == 0 {
		t.Fatal("entropy build produced no bit-layout permutation")
	}

	var buf bytes.Buffer
	if err := Save(&buf, p, built.Library()); err != nil {
		t.Fatalf("Save: %v", err)
	}
	lp, lib, _, err := loadImage(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if lp.BitLayout != core.BitLayoutEntropy || len(lp.Tiers) != 3 {
		t.Fatalf("layout knobs did not round-trip: %+v", lp)
	}
	if !permsEqual(lib.DimPerm, built.Library().DimPerm) {
		t.Fatalf("bit-layout permutation did not round-trip: %d vs %d entries",
			len(lib.DimPerm), len(built.Library().DimPerm))
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
	natural := p
	natural.BitLayout = core.BitLayoutNatural
	natEngine := buildEngine(t, natural, ds.Library)
	natPSMs, err := natEngine.SearchAll(ds.Queries)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) || len(natPSMs) != len(want) {
		t.Fatalf("PSM counts diverge: loaded %d, built %d, natural %d", len(got), len(want), len(natPSMs))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("PSM %d mismatch after round trip:\nloaded %+v\nbuilt  %+v", i, got[i], want[i])
		}
		if natPSMs[i] != want[i] {
			t.Fatalf("entropy layout changed PSM %d vs natural layout:\nentropy %+v\nnatural %+v", i, want[i], natPSMs[i])
		}
	}
}

// fixCRC recomputes the CRC-32C trailer after a deliberate mutation,
// so a test can craft a structurally valid but semantically bad image.
func fixCRC(img []byte) {
	binary.LittleEndian.PutUint32(img[len(img)-4:], crc32.Checksum(img[:len(img)-4], castagnoli))
}

// permSectionOffset locates the version-3 perm-length field in an
// index image (fixed 36-byte header, then the params JSON).
func permSectionOffset(img []byte) int {
	return 36 + int(binary.LittleEndian.Uint32(img[32:36]))
}

// TestLoadRejectsNonBijectivePerm pins that both loaders reject a
// checksummed image whose stored permutation is not a bijection — the
// invariant that keeps permuted search exact.
func TestLoadRejectsNonBijectivePerm(t *testing.T) {
	ds := testWorkload(t)
	p := testParams(512, 0, 3)
	p.BitLayout = core.BitLayoutEntropy
	built := buildEngine(t, p, ds.Library)
	if len(built.Library().DimPerm) == 0 {
		t.Fatal("entropy build produced no bit-layout permutation")
	}
	var buf bytes.Buffer
	if err := Save(&buf, p, built.Library()); err != nil {
		t.Fatal(err)
	}
	img := append([]byte(nil), buf.Bytes()...)
	// Duplicate perm entry 0 into entry 1 and re-seal the checksum:
	// structurally perfect, semantically a non-bijection.
	off := permSectionOffset(img)
	copy(img[off+8:off+12], img[off+4:off+8])
	fixCRC(img)
	if _, _, _, err := loadImage(bytes.NewReader(img)); err == nil || !strings.Contains(err.Error(), "not a bijection") {
		t.Fatalf("copying loader: got %v, want a not-a-bijection rejection", err)
	}
	path := t.TempDir() + "/dup.omsidx"
	if err := writeFile(path, img); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFile(path); err == nil || !strings.Contains(err.Error(), "not a bijection") {
		t.Fatalf("mmap loader: got %v, want a not-a-bijection rejection", err)
	}
}

// TestVerifyRejectsTailBits pins the packed-tail invariant of the
// verify pass: a checksummed image with a bit set beyond dimension d
// is structurally perfect, so only verifyImage — eagerly in Load, on
// request through Index.Verify for a mapped index — can reject it.
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
	if _, _, _, err := loadImage(bytes.NewReader(img)); err == nil || !strings.Contains(err.Error(), "bits set beyond dimension 100") {
		t.Fatalf("Load: got %v, want a tail-bit rejection", err)
	}
	if !mmapSupported {
		return // OpenFile is the copying loader here: same rejection, at open
	}
	path := t.TempDir() + "/tail.omsidx"
	if err := writeFile(path, img); err != nil {
		t.Fatal(err)
	}
	ix, err := OpenFile(path)
	if err != nil {
		t.Fatalf("OpenFile rejected a structurally valid image: %v", err)
	}
	defer ix.Close()
	if err := ix.Verify(); err == nil || !strings.Contains(err.Error(), "bits set beyond dimension 100") {
		t.Fatalf("Verify: got %v, want a tail-bit rejection", err)
	}
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
			// A perm length that is neither 0 nor d fails before any perm
			// entry is read (and before the checksum, so no re-CRC here).
			name: "bad perm length",
			mutate: func(img []byte) []byte {
				off := permSectionOffset(img)
				binary.LittleEndian.PutUint32(img[off:off+4], 7)
				return img
			},
			wantSub: "bit-layout permutation has 7 entries",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			img := append([]byte(nil), valid...)
			img = tc.mutate(img)
			_, _, _, err := loadImage(bytes.NewReader(img))
			if err == nil {
				t.Fatalf("Load accepted a %s index", tc.name)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
	// The pristine image must still load after all that slicing.
	if _, _, _, err := loadImage(bytes.NewReader(valid)); err != nil {
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
