package libindex

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fdr"
	"repro/internal/hdc"
	"repro/internal/spectrum"
)

// paramsRewrite edits the fields of stored params JSON into what an
// older build wrote.
type paramsRewrite func(fields map[string]json.RawMessage)

// ladderParams is the params of a build that stored a search ladder:
// the removed K-tier cascade's tiers and bit layout, and the
// PrefilterWords count of the two-tier cascade before it. (encoding/json
// matches keys to fields case-insensitively, so "bitlayout" is the
// field such a build wrote.)
func ladderParams(fields map[string]json.RawMessage) {
	fields["Tiers"] = json.RawMessage("[4,12]")
	fields["bitlayout"] = json.RawMessage(`"natural"`)
	fields["PrefilterWords"] = json.RawMessage("4")
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
	lp, llib, err := decodeImage(legacy)
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
	if n := len(o.parts); n != 1 {
		t.Fatalf("single file opened with %d partitions, want 1", n)
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
	if n := len(om.parts); n != 2 {
		t.Fatalf("manifest opened with %d partitions, want 2", n)
	}
	parted, _, err := core.NewPartitionedEngine(om.Params, om.PartitionSet())
	if err != nil {
		t.Fatal(err)
	}
	check("Open(manifest)", om.Params, parted)
}

// plainCheck is the check every legacy case shares: the image opens
// with the plain build's params and its results.
func plainCheck(t *testing.T, p core.Params, built *core.Engine, queries []*spectrum.Spectrum) func(name string, lp core.Params, e *core.Engine) {
	want := searchAll(t, built, queries)
	return func(name string, lp core.Params, e *core.Engine) {
		t.Helper()
		if got, want := mustJSON(t, lp), mustJSON(t, p); got != want {
			t.Fatalf("%s: opened with params %s, want the plain build's %s", name, got, want)
		}
		if got := searchAll(t, e, queries); !slices.Equal(got, want) {
			t.Fatalf("%s: results differ from the plain build's", name)
		}
	}
}

// mustJSON is the canonical JSON of stored params.
func mustJSON(t *testing.T, p core.Params) string {
	t.Helper()
	raw, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// TestLegacyLadderIgnored pins how an image from a build that stored a
// ladder opens: its params' ladder fields and PrefilterWords are
// unknown fields, so the image — as a file, copied or mapped, and as a
// manifest — opens as the plain build, with the plain build's results.
func TestLegacyLadderIgnored(t *testing.T) {
	ds := testWorkload(t)
	p := testParams(1024, 64, 3)
	built := buildEngine(t, p, ds.Library)
	openLegacy(t, p, built.Library(), ladderParams, plainCheck(t, p, built, ds.Queries))
}

// TestLegacyShortlistIgnored pins how an image from a build that still
// had the approximate shortlist mode opens: its params'
// "ShortlistPerQuery" is an unknown field, so the image — as a file,
// copied or mapped, and as a manifest — is the plain build it
// describes, with that build's results.
func TestLegacyShortlistIgnored(t *testing.T) {
	ds := testWorkload(t)
	p := testParams(1024, 64, 3)
	built := buildEngine(t, p, ds.Library)
	shortlist := func(fields map[string]json.RawMessage) {
		fields["ShortlistPerQuery"] = json.RawMessage("25")
	}
	openLegacy(t, p, built.Library(), shortlist, plainCheck(t, p, built, ds.Queries))
}

// TestOpenManifestRejectsStoredPermutation pins the legacy contract for a
// manifest an older build wrote under the entropy bit layout: its base
// record carries the dim_perm its partitions' words are permuted
// under, which no query is encoded in any more, so opening it fails
// with a rebuild message.
func TestOpenManifestRejectsStoredPermutation(t *testing.T) {
	p, lib := syntheticLibrary(t, 6, 128)
	manifest := filepath.Join(t.TempDir(), "entropy.manifest")
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
	rec.LegacyPerm = reversal(128)
	if line, err = marshalRecord(rec); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(manifest, line, 0o644); err != nil {
		t.Fatal(err)
	}
	const want = "rebuild the partitioned index with omsbuild"
	if _, err := Open(manifest); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Open: got %v, want %q", err, want)
	}
}
