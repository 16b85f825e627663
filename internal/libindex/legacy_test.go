package libindex

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/fdr"
	"repro/internal/hdc"
	"repro/internal/spectrum"
)

// legacyParams rewrites stored params JSON the way a build before the
// K-tier ladder wrote it: no ladder, the two-tier cascade as a
// PrefilterWords count.
func legacyParams(t *testing.T, params []byte, pf int) []byte {
	t.Helper()
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(params, &fields); err != nil {
		t.Fatal(err)
	}
	fields["Tiers"] = json.RawMessage("null")
	fields["PrefilterWords"] = json.RawMessage(strconv.Itoa(pf))
	out, err := json.Marshal(fields)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// legacyImage reassembles an index image around legacyParams: header
// with the new params length, the params, the metadata sections as
// they were, fresh alignment padding, the untouched words and a new
// CRC trailer.
func legacyImage(t *testing.T, img []byte, pf int) []byte {
	t.Helper()
	const paramsOff = 36
	le := binary.LittleEndian
	d, n := int(le.Uint32(img[8:])), int(le.Uint64(img[16:]))
	paramsEnd := paramsOff + int(le.Uint32(img[32:]))
	wordsOff := len(img) - 4 - n*hdc.WordsPerHV(d)*8
	// Walk the metadata to find where it ends and the padding starts.
	off := paramsEnd
	off += 4 + 4*int(le.Uint32(img[off:])) // bit-layout permutation
	off += 16 * n                          // masses, source positions
	for i := 0; i < n; i++ {
		off++ // flags
		off += 4 + int(le.Uint32(img[off:]))
		off += 4 + int(le.Uint32(img[off:]))
	}
	if pad := wordsOff - off; pad < 0 || pad > 7 {
		t.Fatalf("metadata walk ended at %d, words start at %d", off, wordsOff)
	}
	params := legacyParams(t, img[paramsOff:paramsEnd], pf)
	out := append([]byte(nil), img[:paramsOff]...)
	le.PutUint32(out[32:], uint32(len(params)))
	out = append(out, params...)
	out = append(out, img[paramsEnd:off]...)
	out = append(out, make([]byte, -len(out)&7)...)
	out = append(out, img[wordsOff:len(img)-4]...)
	return le.AppendUint32(out, crc32.Checksum(out, castagnoli))
}

func searchAll(t *testing.T, e *core.Engine, queries []*spectrum.Spectrum) []fdr.PSM {
	t.Helper()
	psms, err := e.SearchAll(queries)
	if err != nil {
		t.Fatal(err)
	}
	return psms
}

// TestLegacyPrefilterWordsTranslated pins the one-time translation of
// the removed two-tier alias: an image whose params carry
// PrefilterWords = pf opens — as a file, copied or mapped, and as a
// manifest — with the ladder [pf, words−pf] it always meant, the same
// CascadeStats shape and the same results as the image that stores that
// ladder outright; pf covering the whole row means no ladder.
func TestLegacyPrefilterWordsTranslated(t *testing.T) {
	ds := testWorkload(t)
	const d, pf = 1024, 4
	words := hdc.WordsPerHV(d)
	p := testParams(d, 64, 3)
	p.Tiers = []int{pf, words - pf}
	built := buildEngine(t, p, ds.Library)
	var modern bytes.Buffer
	if err := Save(&modern, p, built.Library()); err != nil {
		t.Fatal(err)
	}
	want := searchAll(t, built, ds.Queries)
	wantStats, _ := built.CascadeStats()
	check := func(name string, lp core.Params, e *core.Engine) {
		t.Helper()
		if !slices.Equal(lp.Tiers, p.Tiers) {
			t.Fatalf("%s: opened with ladder %v, want %v", name, lp.Tiers, p.Tiers)
		}
		if got := searchAll(t, e, ds.Queries); !slices.Equal(got, want) {
			t.Fatalf("%s: results differ from the engine built with the ladder", name)
		}
		// Same depth and the same swept volume; how many rows survive to
		// the deeper tier depends on the partitioning, not on the params.
		if cs, ok := e.CascadeStats(); !ok || cs.NumTiers() != wantStats.NumTiers() || cs.Prefiltered() != wantStats.Prefiltered() {
			t.Fatalf("%s: cascade stats %+v ok=%v, want the shape of %+v", name, cs, ok, wantStats)
		}
	}

	legacy := legacyImage(t, modern.Bytes(), pf)
	lp, lib, err := Load(bytes.NewReader(legacy))
	if err != nil {
		t.Fatal(err)
	}
	loaded, _, err := core.NewExactEngineFromLibrary(lp, lib)
	if err != nil {
		t.Fatal(err)
	}
	check("Load", lp, loaded)

	dir := t.TempDir()
	path := filepath.Join(dir, "legacy.omsidx")
	if err := os.WriteFile(path, legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	o, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	if o.Partitions != 0 {
		t.Fatalf("single file opened with Partitions = %d", o.Partitions)
	}
	opened, _, err := core.NewPartitionedEngine(o.Params, o.PartitionSet())
	if err != nil {
		t.Fatal(err)
	}
	check("Open(file)", o.Params, opened)

	// A count covering the whole row left nothing to complete: no ladder.
	lp, lib, err = Load(bytes.NewReader(legacyImage(t, modern.Bytes(), words)))
	if err != nil {
		t.Fatal(err)
	}
	if len(lp.Tiers) != 0 {
		t.Fatalf("PrefilterWords = %d of %d words opened with ladder %v, want none", words, words, lp.Tiers)
	}
	flat, _, err := core.NewExactEngineFromLibrary(lp, lib)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := flat.CascadeStats(); ok {
		t.Fatal("whole-row PrefilterWords still runs a cascade")
	}
	if got := searchAll(t, flat, ds.Queries); !slices.Equal(got, want) {
		t.Fatal("single-tier fallback results differ")
	}

	// Manifest: the base record's params and every partition file's.
	manifest := filepath.Join(dir, "legacy.manifest")
	if err := SavePartitioned(manifest, p, built.Library(), 2); err != nil {
		t.Fatal(err)
	}
	line, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := decodeRecord(bytes.TrimSuffix(line, []byte("\n")))
	if err != nil {
		t.Fatal(err)
	}
	rec.Params = legacyParams(t, rec.Params, pf)
	for i := range rec.Partitions {
		info := &rec.Partitions[i]
		partPath := filepath.Join(dir, info.File)
		img, err := os.ReadFile(partPath)
		if err != nil {
			t.Fatal(err)
		}
		img = legacyImage(t, img, pf)
		if err := os.WriteFile(partPath, img, 0o644); err != nil {
			t.Fatal(err)
		}
		info.Bytes, info.CRC32C = int64(len(img)), binary.LittleEndian.Uint32(img[len(img)-4:])
	}
	if line, err = marshalRecord(rec); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(manifest, line, 0o644); err != nil {
		t.Fatal(err)
	}
	om, err := Open(manifest)
	if err != nil {
		t.Fatal(err)
	}
	defer om.Close()
	if om.Partitions != 2 {
		t.Fatalf("manifest opened with Partitions = %d, want 2", om.Partitions)
	}
	parted, _, err := core.NewPartitionedEngine(om.Params, om.PartitionSet())
	if err != nil {
		t.Fatal(err)
	}
	check("Open(manifest)", om.Params, parted)
}
