package libindex

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
)

// resealRecordLine re-seals a tampered manifest log line (recomputes
// its CRC) so the per-record checksum passes and the deeper
// cross-checks are the ones exercised.
func resealRecordLine(t *testing.T, line string) []byte {
	t.Helper()
	var rec LogRecord
	if err := json.Unmarshal([]byte(strings.TrimSuffix(line, "\n")), &rec); err != nil {
		t.Fatalf("resealing tampered record: %v", err)
	}
	out, err := marshalRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestOpenFileMatchesLoad pins that Open on a bare index file (the
// mmap-backed path) yields a library, params and packed block
// bit-identical to the copying loader, and that an engine over the
// opened partition set searches identically to one over the loaded
// library. A case with pf > 0
// stores the PrefilterWords = pf an older build's two-tier cascade
// wrote into its params; both paths must ignore it alike.
func TestOpenFileMatchesLoad(t *testing.T) {
	ds := testWorkload(t)
	cases := []struct{ d, shard, prefilter int }{
		{512, 0, 0},
		{1024, 64, 4},
		{1000, 96, 3}, // non-multiple-of-64 dimension exercises the tail mask
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("D%d/shard%d/pf%d", tc.d, tc.shard, tc.prefilter), func(t *testing.T) {
			p := testParams(tc.d, tc.shard, 3)
			built := buildEngine(t, p, ds.Library)
			path := filepath.Join(t.TempDir(), "lib.omsidx")
			if err := SaveFile(path, p, built.Library()); err != nil {
				t.Fatal(err)
			}
			if tc.prefilter > 0 {
				img, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				img = legacyImage(t, img, func(fields map[string]json.RawMessage) {
					fields["PrefilterWords"] = json.RawMessage(strconv.Itoa(tc.prefilter))
				})
				if err := os.WriteFile(path, img, 0o644); err != nil {
					t.Fatal(err)
				}
			}

			lp, lib, err := loadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			ix, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer ix.Close()
			if !ix.Mapped() {
				t.Fatal("Open did not map the index on a unix platform")
			}
			olib := ix.parts[0].Lib
			if ix.Params.Accel != lp.Accel || ix.Params.ShardSize != lp.ShardSize {
				t.Fatalf("params mismatch: open %+v load %+v", ix.Params.Accel, lp.Accel)
			}
			if got, want := mustJSON(t, lp), mustJSON(t, p); got != want {
				t.Fatalf("loaded params %s, want the saved %s", got, want)
			}
			if olib.Len() != lib.Len() || olib.Skipped != lib.Skipped {
				t.Fatalf("library size mismatch: open %d/%d load %d/%d",
					olib.Len(), olib.Skipped, lib.Len(), lib.Skipped)
			}
			for i := 0; i < lib.Len(); i++ {
				if olib.Entries[i] != lib.Entries[i] {
					t.Fatalf("entry %d mismatch", i)
				}
				if !slices.Equal(olib.Row(i).Words, lib.Row(i).Words) {
					t.Fatalf("hypervector %d differs between open and load", i)
				}
				if olib.SourcePos(i) != lib.SourcePos(i) {
					t.Fatalf("source position %d mismatch", i)
				}
			}
			// Engine over the zero-copy block == engine over the loaded
			// library, PSM for PSM.
			packedEngine, _, err := core.NewPartitionedEngine(ix.Params, ix.PartitionSet())
			if err != nil {
				t.Fatal(err)
			}
			loadedEngine, _, err := core.NewExactEngineFromLibrary(lp, lib)
			if err != nil {
				t.Fatal(err)
			}
			want, err := loadedEngine.SearchAll(ds.Queries)
			if err != nil {
				t.Fatal(err)
			}
			got, err := packedEngine.SearchAll(ds.Queries)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("PSM count mismatch: packed %d, loaded %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("PSM %d mismatch:\npacked %+v\nloaded %+v", i, got[i], want[i])
				}
			}
		})
	}
}

// TestOpenFileRejectsCorruption runs the Load corruption matrix
// through Open's mmap parser — same crafted images, same refusals —
// and a flipped body bit, which no structural check sees and the
// checksum every partition passes at open does.
func TestOpenFileRejectsCorruption(t *testing.T) {
	ds := testWorkload(t)
	p := testParams(512, 0, 3)
	built := buildEngine(t, p, ds.Library)
	var buf bytes.Buffer
	if err := Save(&buf, p, built.Library()); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	dir := t.TempDir()

	open := func(img []byte) error {
		path := filepath.Join(dir, "crafted.omsidx")
		if err := os.WriteFile(path, img, 0o644); err != nil {
			t.Fatal(err)
		}
		ix, err := Open(path)
		if err == nil {
			if cerr := ix.Close(); cerr != nil {
				t.Fatal(cerr)
			}
		}
		return err
	}

	cases := []corruptionCase{
		{"empty", func(img []byte) []byte { return nil }, "truncated"},
		{"bad magic", func(img []byte) []byte { img[0] = 'X'; return img }, "bad magic"},
		{"newer version", func(img []byte) []byte { img[6] = 99; return img }, "index version 99 is newer"},
		{"older version", func(img []byte) []byte { img[6] = 2; return img }, "index version 2 predates"},
		{"truncated header", func(img []byte) []byte { return img[:10] }, "truncated"},
		{"truncated mid-body", func(img []byte) []byte { return img[:len(img)/2] }, "truncated"},
		{"trailing garbage", func(img []byte) []byte { return append(img, 0xAA) }, "trailing data"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			img := append([]byte(nil), valid...)
			img = tc.mutate(img)
			err := open(img)
			if err == nil {
				t.Fatalf("Open accepted a %s index", tc.name)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
	// A flipped word bit is structurally invisible; the checksum sees it.
	img := append([]byte(nil), valid...)
	img[len(img)-100] ^= 0x40
	if err := open(img); err == nil || !strings.Contains(err.Error(), "partition 0 (crafted.omsidx)") || !strings.Contains(err.Error(), "corrupted") {
		t.Fatalf("Open on a flipped-bit image: got %v, want partition 0 (crafted.omsidx) named as corrupted", err)
	}
	// The pristine image must still open.
	if err := open(append([]byte(nil), valid...)); err != nil {
		t.Fatalf("pristine image failed to open: %v", err)
	}
}

// TestSavePartitionedRoundTrip pins the partition writer/opener pair:
// the manifest fences tile the library, the concatenated partitions
// reproduce the library entry for entry and word for word, and the
// skipped count survives.
func TestSavePartitionedRoundTrip(t *testing.T) {
	ds := testWorkload(t)
	p := testParams(512, 100, 3)
	built := buildEngine(t, p, ds.Library)
	lib := built.Library()
	lib.Skipped = 7 // force a nonzero skipped count through the round trip

	for _, parts := range []int{1, 2, 3, 7} {
		t.Run(fmt.Sprintf("parts%d", parts), func(t *testing.T) {
			dir := t.TempDir()
			manifest := filepath.Join(dir, "lib.manifest")
			if err := SavePartitioned(manifest, p, lib, parts); err != nil {
				t.Fatal(err)
			}
			if m, err := isManifest(manifest); err != nil || !m {
				t.Fatalf("isManifest(manifest) = %v, %v", m, err)
			}
			if m, err := isManifest(PartitionFileName(manifest, 0)); err != nil || m {
				t.Fatalf("isManifest(partition) = %v, %v", m, err)
			}
			pi, err := Open(manifest)
			if err != nil {
				t.Fatal(err)
			}
			defer pi.Close()
			if got := len(pi.parts); got != parts {
				t.Fatalf("%d partitions opened, want %d", got, parts)
			}
			if refs := liveRefs(pi.State); refs != lib.Len() || pi.State.Skipped != lib.Skipped {
				t.Fatalf("manifest identity %d/%d, want %d/%d",
					refs, pi.State.Skipped, lib.Len(), lib.Skipped)
			}
			skippedSum, row := 0, 0
			states := pi.State.Partitions()
			for pidx, part := range pi.parts {
				info := states[pidx]
				if info.StartRow != row {
					t.Fatalf("partition %d starts at %d, want %d", pidx, info.StartRow, row)
				}
				skippedSum += part.Lib.Skipped
				for i := 0; i < part.Lib.Len(); i++ {
					if part.Lib.Entries[i] != lib.Entries[row] {
						t.Fatalf("global row %d (partition %d row %d) entry mismatch", row, pidx, i)
					}
					if !slices.Equal(part.Lib.Row(i).Words, lib.Row(row).Words) {
						t.Fatalf("global row %d hypervector mismatch", row)
					}
					row++
				}
			}
			if row != lib.Len() {
				t.Fatalf("partitions concatenate to %d rows, want %d", row, lib.Len())
			}
			if skippedSum != lib.Skipped {
				t.Fatalf("partition skipped counts sum to %d, want %d", skippedSum, lib.Skipped)
			}
		})
	}
}

// TestOpenBareFileIsGenerationOne pins what Open makes of a bare index
// file: generation 1 with one base partition whose record — refs,
// fences, size and content CRC — is exactly what SavePartitioned(…, 1)
// records for the same library.
func TestOpenBareFileIsGenerationOne(t *testing.T) {
	p, lib := syntheticLibrary(t, 300, 512)
	lib.Skipped = 5
	dir := t.TempDir()
	path, manifest := filepath.Join(dir, "lib.omsidx"), filepath.Join(dir, "lib.manifest")
	if err := SaveFile(path, p, lib); err != nil {
		t.Fatal(err)
	}
	if err := SavePartitioned(manifest, p, lib, 1); err != nil {
		t.Fatal(err)
	}
	want, err := LoadManifestLog(manifest)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	st := ix.State
	if st.Generation != 1 || len(st.Base) != 1 || len(st.Deltas) != 0 || len(ix.parts) != 1 {
		t.Fatalf("bare file opened at generation %d with %d base, %d delta partitions and %d handles; want generation 1, one partition",
			st.Generation, len(st.Base), len(st.Deltas), len(ix.parts))
	}
	got, rec := st.Base[0], want.Base[0]
	if got.File != "lib.omsidx" {
		t.Fatalf("partition file %q, want the file's base name", got.File)
	}
	got.File = rec.File
	if got != rec {
		t.Fatalf("bare file's partition record %+v, SavePartitioned records %+v", got, rec)
	}
	if st.D != want.D || st.Skipped != want.Skipped || string(st.Params) != string(want.Params) {
		t.Fatalf("bare file's identity D=%d skipped=%d params %s, SavePartitioned records D=%d skipped=%d params %s",
			st.D, st.Skipped, st.Params, want.D, want.Skipped, want.Params)
	}
}

// TestOpenManifestRejectsTampering pins the manifest cross-checks:
// size drift, fence edits and missing partitions are all refused.
func TestOpenManifestRejectsTampering(t *testing.T) {
	ds := testWorkload(t)
	p := testParams(512, 0, 3)
	built := buildEngine(t, p, ds.Library)
	dir := t.TempDir()
	manifest := filepath.Join(dir, "lib.manifest")
	if err := SavePartitioned(manifest, p, built.Library(), 2); err != nil {
		t.Fatal(err)
	}
	doc, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name, from, to, wantSub string
	}{
		{"fence edit", `"min_mass"`, `"min_mass_x"`, "fences"},
		{"format edit", ManifestFormat, "something-else", "not a library manifest"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tampered := resealRecordLine(t, strings.Replace(string(doc), tc.from, tc.to, 1))
			path := filepath.Join(dir, "tampered.manifest")
			if err := os.WriteFile(path, tampered, 0o644); err != nil {
				t.Fatal(err)
			}
			// Tampered manifests reference the same partition files.
			if _, err := os.Stat(PartitionFileName(manifest, 0)); err != nil {
				t.Fatal(err)
			}
			if _, err := Open(path); err == nil || !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("Open(%s) = %v, want %q", tc.name, err, tc.wantSub)
			}
		})
	}

	t.Run("edit without resealing the record CRC", func(t *testing.T) {
		// Any byte-level edit that is not re-sealed trips the per-record
		// checksum before the structural checks even run.
		tampered := strings.Replace(string(doc), `"refs"`, `"refsx"`, 1)
		path := filepath.Join(dir, "unsealed.manifest")
		if err := os.WriteFile(path, []byte(tampered), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(path); err == nil || !strings.Contains(err.Error(), "checksum") {
			t.Fatalf("Open(unsealed edit) = %v, want checksum error", err)
		}
	})

	t.Run("mixed build generation", func(t *testing.T) {
		// A partition file rebuilt with a different encoder seed is the
		// same size (identical masses, entries, word counts) and passes
		// every structural check — only the params comparison can catch
		// it before it silently mis-scores queries.
		other := p
		other.Accel.Seed = p.Accel.Seed + 1
		otherDir := t.TempDir()
		otherManifest := filepath.Join(otherDir, "lib.manifest")
		if err := SavePartitioned(otherManifest, other, built.Library(), 2); err != nil {
			t.Fatal(err)
		}
		mixed := filepath.Join(dir, "mixed.manifest")
		doc, err := os.ReadFile(manifest)
		if err != nil {
			t.Fatal(err)
		}
		// The mixed manifest reuses partition 0 from the other build by
		// pointing at a copy dropped next to it.
		swapped, err := os.ReadFile(PartitionFileName(otherManifest, 0))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(PartitionFileName(mixed, 0), swapped, 0o644); err != nil {
			t.Fatal(err)
		}
		orig, err := os.ReadFile(PartitionFileName(manifest, 1))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(PartitionFileName(mixed, 1), orig, 0o644); err != nil {
			t.Fatal(err)
		}
		mixedDoc := resealRecordLine(t, strings.ReplaceAll(string(doc), filepath.Base(manifest), filepath.Base(mixed)))
		if err := os.WriteFile(mixed, mixedDoc, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(mixed); err == nil || !strings.Contains(err.Error(), "different params") {
			t.Fatalf("Open with a mixed-generation partition = %v, want params mismatch", err)
		}
	})

	t.Run("size drift", func(t *testing.T) {
		part := PartitionFileName(manifest, 1)
		f, err := os.OpenFile(part, os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write([]byte{0}); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(manifest); err == nil || !strings.Contains(err.Error(), "bytes") {
			t.Fatalf("Open with size drift = %v, want size mismatch", err)
		}
	})

	t.Run("missing partition", func(t *testing.T) {
		if err := os.Remove(PartitionFileName(manifest, 1)); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(manifest); err == nil {
			t.Fatal("Open accepted a manifest with a missing partition file")
		}
	})
}
