package libindex

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/hdc"
)

// recoveryFixture builds a small partitioned manifest with one delta
// generation already published and returns its path.
func recoveryFixture(t *testing.T) string {
	t.Helper()
	manifest := filepath.Join(t.TempDir(), "lib.manifest")
	p, lib := syntheticLibrary(t, 10, 128)
	if err := SavePartitioned(manifest, p, lib, 2); err != nil {
		t.Fatal(err)
	}
	appendSyntheticDelta(t, manifest, "d1", 4)
	return manifest
}

// appendSyntheticDelta publishes n synthetic rows as one delta
// generation.
func appendSyntheticDelta(t *testing.T, manifest, tag string, n int) uint64 {
	t.Helper()
	st, err := LoadManifestLog(manifest)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := AppendDelta(manifest, st, syntheticDelta(t, tag, n), 3)
	if err != nil {
		t.Fatal(err)
	}
	return gen
}

// syntheticDelta builds n synthetic delta rows with ids "<tag>-<i>".
func syntheticDelta(t *testing.T, tag string, n int) *core.Library {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(len(tag)) * 7919))
	entries := make([]core.LibraryEntry, n)
	hvs := make([]hdc.BinaryHV, n)
	for i := range entries {
		entries[i] = core.LibraryEntry{
			ID:      fmt.Sprintf("%s-%d", tag, i),
			Peptide: fmt.Sprintf("PEP%s%d", tag, i),
			Mass:    501 + float64(i)*0.83,
		}
		hvs[i] = hdc.RandomBinaryHV(128, rng)
	}
	dlib, err := core.RestoreLibrary(entries, hvs, rng.Perm(n), 0)
	if err != nil {
		t.Fatal(err)
	}
	return dlib
}

// TestStaleWriterRefused pins the publish path's stale-writer check:
// two writers load the same generation, the first publishes, and the
// second must fail descriptively instead of truncating the log at the
// length it loaded — which used to erase the first record while both
// writers reported the same new generation. The first record and its
// partition files must survive. A rebuild is a first writer like any
// other: an append that loaded the log before it is refused too.
func TestStaleWriterRefused(t *testing.T) {
	type writer func(t *testing.T, manifest string, st *ManifestState, i int) (uint64, error)
	retract := func(t *testing.T, manifest string, st *ManifestState, i int) (uint64, error) {
		pi, err := Open(manifest)
		if err != nil {
			t.Fatal(err)
		}
		known := pi.LiveIDs()
		if err := pi.Close(); err != nil {
			t.Fatal(err)
		}
		return AppendRetract(manifest, st, []string{fmt.Sprintf("ref-%d", i)}, known)
	}
	delta := func(t *testing.T, manifest string, st *ManifestState, i int) (uint64, error) {
		return AppendDelta(manifest, st, syntheticDelta(t, fmt.Sprintf("w%d", i), 5), 2)
	}
	rebuild := func(t *testing.T, manifest string, _ *ManifestState, _ int) (uint64, error) {
		p, lib := syntheticLibrary(t, 6, 128)
		if err := SavePartitioned(manifest, p, lib, 2); err != nil {
			return 0, err
		}
		st, err := LoadManifestLog(manifest)
		if err != nil {
			return 0, err
		}
		return st.Generation, nil
	}
	writers := []struct {
		name         string
		first, stale writer
	}{
		{"retract", retract, retract},
		{"delta", delta, delta},
		{"delta_after_rebuild", rebuild, delta},
	}
	for _, w := range writers {
		t.Run(w.name, func(t *testing.T) {
			manifest := recoveryFixture(t)
			first, err := LoadManifestLog(manifest)
			if err != nil {
				t.Fatal(err)
			}
			second, err := LoadManifestLog(manifest)
			if err != nil {
				t.Fatal(err)
			}
			loaded := first.Generation
			gen, err := w.first(t, manifest, first, 1)
			if err != nil || gen != loaded+1 {
				t.Fatalf("first writer published generation %d, %v; want %d", gen, err, loaded+1)
			}
			want, err := os.ReadFile(manifest)
			if err != nil {
				t.Fatal(err)
			}

			gen, err = w.stale(t, manifest, second, 2)
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("is at generation %d, this writer loaded %d", loaded+1, loaded)) {
				t.Fatalf("stale writer published generation %d, err %v; want a stale-writer refusal", gen, err)
			}
			if second.Generation != loaded {
				t.Fatalf("refused writer's state advanced to generation %d", second.Generation)
			}
			got, err := os.ReadFile(manifest)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Fatalf("refused writer changed the log:\n%s\nwant:\n%s", got, want)
			}
			pi, err := Open(manifest)
			if err != nil {
				t.Fatalf("first writer's partition files damaged: %v", err)
			}
			defer pi.Close()
		})
	}
}

// TestCrashRecoveryOrphanedDelta simulates a writer that crashed
// between writing its delta partition files and appending the
// manifest record: the manifest must keep opening at the last good
// generation, SweepOrphans must remove exactly the never-referenced
// leftovers, and the next append must publish cleanly over them.
func TestCrashRecoveryOrphanedDelta(t *testing.T) {
	manifest := recoveryFixture(t)
	before, err := Open(manifest)
	if err != nil {
		t.Fatal(err)
	}
	wantGen := before.State.Generation
	wantRefs := liveRefs(before.State)
	liveFile := before.State.Partitions()[0].File
	if err := before.Close(); err != nil {
		t.Fatal(err)
	}

	// The "crash": a fully written partition file for the generation
	// that never published, plus a temp file abandoned mid-rename.
	img, err := os.ReadFile(filepath.Join(filepath.Dir(manifest), liveFile))
	if err != nil {
		t.Fatal(err)
	}
	orphan := filepath.Base(GenPartitionFileName(manifest, wantGen+1, 0))
	for _, name := range []string{orphan, orphan + ".tmp"} {
		if err := os.WriteFile(filepath.Join(filepath.Dir(manifest), name), img, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	pi, err := Open(manifest)
	if err != nil {
		t.Fatalf("orphaned partition files must not affect opening: %v", err)
	}
	if pi.State.Generation != wantGen || liveRefs(pi.State) != wantRefs {
		t.Fatalf("opened generation %d with %d refs, want %d with %d",
			pi.State.Generation, liveRefs(pi.State), wantGen, wantRefs)
	}
	if err := pi.Close(); err != nil {
		t.Fatal(err)
	}

	st, err := LoadManifestLog(manifest)
	if err != nil {
		t.Fatal(err)
	}
	removed, err := SweepOrphans(manifest, st)
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(removed)
	want := []string{orphan, orphan + ".tmp"}
	sort.Strings(want)
	if len(removed) != len(want) || removed[0] != want[0] || removed[1] != want[1] {
		t.Fatalf("SweepOrphans removed %v, want %v", removed, want)
	}
	for _, name := range want {
		if _, err := os.Stat(filepath.Join(filepath.Dir(manifest), name)); !os.IsNotExist(err) {
			t.Fatalf("%s still on disk after sweep", name)
		}
	}

	// The next append reuses the orphan's generation number and file
	// names without tripping over the leftovers.
	gen := appendSyntheticDelta(t, manifest, "d2", 3)
	if gen != wantGen+1 {
		t.Fatalf("post-crash append published generation %d, want %d", gen, wantGen+1)
	}
	pi, err = Open(manifest)
	if err != nil {
		t.Fatal(err)
	}
	defer pi.Close()
}

// TestCrashRecoveryTornTail simulates a crash mid-record-append: the
// unterminated garbage fragment must be ignored (last good generation
// serves), and the next publish must truncate it and append cleanly.
func TestCrashRecoveryTornTail(t *testing.T) {
	manifest := recoveryFixture(t)
	st, err := LoadManifestLog(manifest)
	if err != nil {
		t.Fatal(err)
	}
	wantGen := st.Generation

	f, err := os.OpenFile(manifest, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"type":"delta","generation":` + fmt.Sprint(wantGen+1) + `,"partit`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	st, err = LoadManifestLog(manifest)
	if err != nil {
		t.Fatalf("torn tail must not reject the log: %v", err)
	}
	if !st.tornTail {
		t.Fatal("torn tail not reported")
	}
	if st.Generation != wantGen {
		t.Fatalf("torn log folded to generation %d, want last good %d", st.Generation, wantGen)
	}
	pi, err := Open(manifest)
	if err != nil {
		t.Fatalf("torn tail must not reject opening: %v", err)
	}
	if pi.State.Generation != wantGen {
		t.Fatalf("opened generation %d, want %d", pi.State.Generation, wantGen)
	}
	if err := pi.Close(); err != nil {
		t.Fatal(err)
	}

	// Publishing over the torn tail truncates the fragment; the log is
	// then fully clean again.
	gen := appendSyntheticDelta(t, manifest, "d3", 2)
	if gen != wantGen+1 {
		t.Fatalf("repairing append published generation %d, want %d", gen, wantGen+1)
	}
	st, err = LoadManifestLog(manifest)
	if err != nil {
		t.Fatal(err)
	}
	if st.tornTail || st.Generation != wantGen+1 {
		t.Fatalf("after repair: torn=%v generation=%d, want clean generation %d",
			st.tornTail, st.Generation, wantGen+1)
	}
}

// TestCrashRecoveryUnterminatedValidTail covers the other torn-append
// shape: the record fully made it to disk but its newline did not. The
// record must be honored, and the next append must repair the missing
// terminator instead of gluing two records onto one line.
func TestCrashRecoveryUnterminatedValidTail(t *testing.T) {
	manifest := recoveryFixture(t)
	data, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	if data[len(data)-1] != '\n' {
		t.Fatal("fixture log does not end in a newline")
	}
	if err := os.WriteFile(manifest, data[:len(data)-1], 0o644); err != nil {
		t.Fatal(err)
	}

	st, err := LoadManifestLog(manifest)
	if err != nil {
		t.Fatalf("valid unterminated tail must be honored: %v", err)
	}
	if st.tornTail {
		t.Fatal("valid unterminated record misreported as torn")
	}
	wantGen := st.Generation

	gen := appendSyntheticDelta(t, manifest, "d4", 2)
	if gen != wantGen+1 {
		t.Fatalf("append over unterminated tail published generation %d, want %d", gen, wantGen+1)
	}
	st, err = LoadManifestLog(manifest)
	if err != nil {
		t.Fatal(err)
	}
	if st.Generation != wantGen+1 {
		t.Fatalf("after repairing append: generation %d, want %d", st.Generation, wantGen+1)
	}
}

// TestRetiredFilesSurviveSweepOrphans pins the two-sweep split: files
// a compaction retired are NOT orphans (an older reader may still be
// serving them) — only SweepRetired removes them.
func TestRetiredFilesSurviveSweepOrphans(t *testing.T) {
	manifest := recoveryFixture(t)
	stats, err := Compact(manifest, 4)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Noop || stats.DroppedPartitions == 0 {
		t.Fatalf("fixture compaction dropped nothing: %+v", stats)
	}

	st, err := LoadManifestLog(manifest)
	if err != nil {
		t.Fatal(err)
	}
	removed, err := SweepOrphans(manifest, st)
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 0 {
		t.Fatalf("SweepOrphans removed retired files %v", removed)
	}
	retired, err := SweepRetired(manifest, st)
	if err != nil {
		t.Fatal(err)
	}
	if len(retired) != stats.DroppedPartitions {
		t.Fatalf("SweepRetired removed %d files, compaction dropped %d", len(retired), stats.DroppedPartitions)
	}
	pi, err := Open(manifest)
	if err != nil {
		t.Fatalf("manifest must open after both sweeps: %v", err)
	}
	defer pi.Close()
}

// TestOpenManifestVersionMessages pins the operator-facing errors for
// manifests this build cannot serve: a pre-log whole-document
// manifest says "rebuild", a future version says "upgrade".
func TestOpenManifestVersionMessages(t *testing.T) {
	cases := []struct {
		name, doc, want string
	}{
		{"legacy-v3", `{"format":"oms-library-manifest","version":3,"partitions":[]}`, "predates the generation log"},
		{"future-v5", `{"format":"oms-library-manifest","version":5}`, "newer than this build understands"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			manifest := filepath.Join(t.TempDir(), "lib.manifest")
			if err := os.WriteFile(manifest, []byte(tc.doc+"\n"), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := Open(manifest)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Open error = %v, want %q", err, tc.want)
			}
		})
	}
}
