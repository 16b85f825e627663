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

// paramsRewrite edits the fields of stored params JSON into what an
// older build wrote.
type paramsRewrite func(fields map[string]json.RawMessage)

// prefilterWords is the params of a build before the K-tier ladder: no
// ladder, the two-tier cascade as a PrefilterWords count.
func prefilterWords(pf int) paramsRewrite {
	return func(fields map[string]json.RawMessage) {
		fields["Tiers"] = json.RawMessage("null")
		fields["PrefilterWords"] = json.RawMessage(strconv.Itoa(pf))
	}
}

// legacyParams applies rewrite to stored params JSON.
func legacyParams(t *testing.T, params []byte, rewrite paramsRewrite) []byte {
	t.Helper()
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(params, &fields); err != nil {
		t.Fatal(err)
	}
	rewrite(fields)
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
func legacyImage(t *testing.T, img []byte, rewrite paramsRewrite) []byte {
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
	params := legacyParams(t, img[paramsOff:paramsEnd], rewrite)
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

// openLegacy saves lib under p, rewrites the stored params the way an
// older build wrote them, and hands check the params and engine of
// every way the image opens: Load (copied), Open on the file (mapped
// where supported) and Open on a two-partition manifest whose base
// record and partition files are all rewritten.
func openLegacy(t *testing.T, p core.Params, lib *core.Library, rewrite paramsRewrite, check func(name string, lp core.Params, e *core.Engine)) {
	t.Helper()
	var modern bytes.Buffer
	if err := Save(&modern, p, lib); err != nil {
		t.Fatal(err)
	}
	legacy := legacyImage(t, modern.Bytes(), rewrite)
	lp, llib, _, err := loadImage(bytes.NewReader(legacy))
	if err != nil {
		t.Fatal(err)
	}
	loaded, _, err := core.NewExactEngineFromLibrary(lp, llib)
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

	// Manifest: the base record's params and every partition file's.
	manifest := filepath.Join(dir, "legacy.manifest")
	if err := SavePartitioned(manifest, p, lib, 2); err != nil {
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
	rec.Params = legacyParams(t, rec.Params, rewrite)
	for i := range rec.Partitions {
		info := &rec.Partitions[i]
		partPath := filepath.Join(dir, info.File)
		img, err := os.ReadFile(partPath)
		if err != nil {
			t.Fatal(err)
		}
		img = legacyImage(t, img, rewrite)
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

// ladderCheck is the check both legacy cases share: the image opens
// with p's ladder, the CascadeStats shape of the engine built with that
// ladder outright, and its results.
func ladderCheck(t *testing.T, p core.Params, built *core.Engine, queries []*spectrum.Spectrum) func(name string, lp core.Params, e *core.Engine) {
	want := searchAll(t, built, queries)
	wantStats, _ := built.CascadeStats()
	return func(name string, lp core.Params, e *core.Engine) {
		t.Helper()
		if !slices.Equal(lp.Tiers, p.Tiers) {
			t.Fatalf("%s: opened with ladder %v, want %v", name, lp.Tiers, p.Tiers)
		}
		if got := searchAll(t, e, queries); !slices.Equal(got, want) {
			t.Fatalf("%s: results differ from the engine built with the ladder", name)
		}
		// Same depth and the same swept volume; how many rows survive to
		// the deeper tier depends on the partitioning, not on the params.
		if cs, ok := e.CascadeStats(); !ok || cs.NumTiers() != wantStats.NumTiers() || cs.Prefiltered() != wantStats.Prefiltered() {
			t.Fatalf("%s: cascade stats %+v ok=%v, want the shape of %+v", name, cs, ok, wantStats)
		}
	}
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
	openLegacy(t, p, built.Library(), prefilterWords(pf), ladderCheck(t, p, built, ds.Queries))

	// A count covering the whole row left nothing to complete: no ladder.
	var modern bytes.Buffer
	if err := Save(&modern, p, built.Library()); err != nil {
		t.Fatal(err)
	}
	lp, lib, _, err := loadImage(bytes.NewReader(legacyImage(t, modern.Bytes(), prefilterWords(words))))
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
	if got, want := searchAll(t, flat, ds.Queries), searchAll(t, built, ds.Queries); !slices.Equal(got, want) {
		t.Fatal("single-tier fallback results differ")
	}
}

// TestLegacyShortlistIgnored pins how an image from a build that still
// had the approximate shortlist mode opens: its params'
// "ShortlistPerQuery" is an unknown field, so the image — as a file,
// copied or mapped, and as a manifest — is the exact ladder it
// describes, with that ladder's results.
func TestLegacyShortlistIgnored(t *testing.T) {
	ds := testWorkload(t)
	const d = 1024
	p := testParams(d, 64, 3)
	p.Tiers = []int{4, hdc.WordsPerHV(d) - 4}
	built := buildEngine(t, p, ds.Library)
	shortlist := func(fields map[string]json.RawMessage) {
		fields["ShortlistPerQuery"] = json.RawMessage("25")
	}
	openLegacy(t, p, built.Library(), shortlist, ladderCheck(t, p, built, ds.Queries))
}
