package libindex

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/hdc"
)

// goldenWriterLog is the generation log TestWriterLogGolden must write,
// byte for byte. Each record's bytes/crc32c fields pin its partition
// files too, so the file covers everything the four writers put on
// disk.
const goldenWriterLog = "testdata/writers.manifest"

// writerLibrary assembles a mass-sorted library over the given masses
// with ids "<tag>-<i>" and hypervectors drawn from rng.
func writerLibrary(t *testing.T, tag string, masses []float64, rng *rand.Rand) *core.Library {
	t.Helper()
	entries := make([]core.LibraryEntry, len(masses))
	hvs := make([]hdc.BinaryHV, len(masses))
	for i, m := range masses {
		entries[i] = core.LibraryEntry{
			ID:      fmt.Sprintf("%s-%d", tag, i),
			Peptide: fmt.Sprintf("PEP%s%d", tag, i),
			IsDecoy: i%4 == 1,
			Mass:    m,
		}
		hvs[i] = hdc.RandomBinaryHV(128, rng)
	}
	lib, err := core.RestoreLibrary(entries, hvs, rng.Perm(len(masses)), 1)
	if err != nil {
		t.Fatal(err)
	}
	return lib
}

// TestWriterLogGolden runs every writer once — a 4-partition base
// build, a delta append split into two files, a retract, and a
// compaction split into several partitions — and compares the whole
// log with the golden file. The delta lands inside base partitions 1
// and 3 only, so the compaction keeps partitions 0 and 2 and cuts at
// both gaps; an equal-mass run (three base rows and one delta row at
// mass 508) sits where the 4-row cap would cut, so the run must stay
// whole and its rows keep append order.
func TestWriterLogGolden(t *testing.T) {
	manifest := filepath.Join(t.TempDir(), "lib.manifest")
	rng := rand.New(rand.NewSource(33))
	var baseMasses []float64
	for i := 0; i < 24; i++ {
		m := 500 + float64(i)
		if i == 9 || i == 10 {
			m = 508
		}
		baseMasses = append(baseMasses, m)
	}
	p := testParams(128, 0, 3)
	if err := SavePartitioned(manifest, p, writerLibrary(t, "ref", baseMasses, rng), 4); err != nil {
		t.Fatal(err)
	}

	st, err := LoadManifestLog(manifest)
	if err != nil {
		t.Fatal(err)
	}
	delta := writerLibrary(t, "d", []float64{506.5, 508, 509.5, 510, 518.5, 519, 520.25, 522}, rng)
	if _, err := AppendDelta(manifest, st, delta, 4); err != nil {
		t.Fatal(err)
	}

	pi, err := Open(manifest)
	if err != nil {
		t.Fatal(err)
	}
	known := pi.LiveIDs()
	if err := pi.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := AppendRetract(manifest, st, []string{"ref-19", "d-2", "ref-7"}, known); err != nil {
		t.Fatal(err)
	}

	stats, err := Compact(manifest, 4)
	if err != nil {
		t.Fatal(err)
	}
	if stats.DroppedPartitions != 4 || stats.NewPartitions != 5 {
		t.Fatalf("compaction dropped %d partitions and wrote %d, want 4 and 5 (partitions 0 and 2 kept; 2 new in the first gap, 3 in the second)",
			stats.DroppedPartitions, stats.NewPartitions)
	}

	got, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(goldenWriterLog)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("generation log differs from %s:\ngot:\n%s\nwant:\n%s", goldenWriterLog, got, want)
	}

	pi, err = Open(manifest)
	if err != nil {
		t.Fatal(err)
	}
	defer pi.Close()
}

// TestWritersRefuseBareFile pins that Open serving a bare index file as
// a one-partition generation gives the manifest writers nothing to
// publish on: each refuses it with the rebuild hint and leaves the file
// byte for byte as it was.
func TestWritersRefuseBareFile(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	lib := writerLibrary(t, "ref", []float64{500, 501, 502, 503}, rng)
	p := testParams(128, 0, 3)
	delta := writerLibrary(t, "d", []float64{501.5}, rng)
	writers := []struct {
		name  string
		write func(path string, ix *Index) error
	}{
		{"Compact", func(path string, ix *Index) error {
			_, err := Compact(path, 0)
			return err
		}},
		{"AppendDelta", func(path string, ix *Index) error {
			_, err := AppendDelta(path, ix.State, delta, 0)
			return err
		}},
		{"AppendRetract", func(path string, ix *Index) error {
			_, err := AppendRetract(path, ix.State, []string{"ref-1"}, ix.LiveIDs())
			return err
		}},
	}
	for _, w := range writers {
		t.Run(w.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "lib.omsidx")
			if err := SaveFile(path, p, lib); err != nil {
				t.Fatal(err)
			}
			before, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			ix, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer ix.Close()
			err = w.write(path, ix)
			if err == nil || !strings.Contains(err.Error(), "rebuild it with omsbuild -partitions") {
				t.Fatalf("%s on a bare index file: got %v, want the rebuild hint", w.name, err)
			}
			after, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(after, before) {
				t.Fatalf("%s changed the bare index file", w.name)
			}
			if names, err := filepath.Glob(filepath.Join(dir, "*")); err != nil || len(names) != 1 {
				t.Fatalf("%s left files beside the index: %v (%v)", w.name, names, err)
			}
		})
	}
}

// TestRebuildPublishesAGeneration pins a base build over a manifest as
// one more generation: after a delta and a retract, SavePartitioned of
// other rows appends generation N+1 in generation-named files, drops
// every live partition and tombstone, and searches like a from-scratch
// build of its rows. The replaced generations' files are retired, not
// orphaned: SweepOrphans keeps them and SweepRetired removes exactly
// them.
func TestRebuildPublishesAGeneration(t *testing.T) {
	manifest := recoveryFixture(t)
	st, err := LoadManifestLog(manifest)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AppendRetract(manifest, st, []string{"ref-2"}, map[string]bool{"ref-2": true}); err != nil {
		t.Fatal(err)
	}
	var old []string
	for _, ps := range st.Partitions() {
		old = append(old, ps.File)
	}
	rebuilt := syntheticDelta(t, "rebuilt", 6)
	if err := SavePartitioned(manifest, testParams(128, 0, 3), rebuilt, 3); err != nil {
		t.Fatal(err)
	}
	got, err := LoadManifestLog(manifest)
	if err != nil {
		t.Fatal(err)
	}
	if got.Generation != st.Generation+1 || len(got.Deltas) != 0 || len(got.Tombstones) != 0 || liveRefs(got) != 6 {
		t.Fatalf("rebuild folded to generation %d, %d deltas, %d tombstones, %d refs; want generation %d, 0, 0, 6",
			got.Generation, len(got.Deltas), len(got.Tombstones), liveRefs(got), st.Generation+1)
	}
	for i, ps := range got.Base {
		if want := filepath.Base(GenPartitionFileName(manifest, got.Generation, i)); ps.File != want || ps.Gen != got.Generation {
			t.Fatalf("rebuilt partition %d is %s at generation %d, want %s at %d", i, ps.File, ps.Gen, want, got.Generation)
		}
	}
	if gen, res := manifestGeneration(t, manifest); gen != got.Generation {
		t.Fatalf("rebuilt manifest opens at generation %d, want %d", gen, got.Generation)
	} else {
		assertResults(t, "after the rebuild", res, scratchResults(t, buildOrder(rebuilt)))
	}
	if removed, err := SweepOrphans(manifest, got); err != nil || len(removed) != 0 {
		t.Fatalf("SweepOrphans after a rebuild removed %v, %v; want nothing", removed, err)
	}
	removed, err := SweepRetired(manifest, got)
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(old)
	if !slices.Equal(removed, old) {
		t.Fatalf("SweepRetired after a rebuild removed %v, want the replaced files %v", removed, old)
	}
}

// TestSaveFileOverAManifestRebuilds pins a plain build over a manifest
// as a one-partition rebuild: after a 3-partition build, SaveFile to
// the same path publishes generation 2 with one partition, searches
// like a from-scratch build, and once SweepRetired has run only the
// log and the live partition file remain. It used to replace the log
// with a bare index and strand the three partition files, which no
// writer could then reclaim.
func TestSaveFileOverAManifestRebuilds(t *testing.T) {
	dir := t.TempDir()
	manifest := filepath.Join(dir, "lib.manifest")
	p, lib := syntheticLibrary(t, 10, 128)
	if err := SavePartitioned(manifest, p, lib, 3); err != nil {
		t.Fatal(err)
	}
	if err := SaveFile(manifest, p, lib); err != nil {
		t.Fatal(err)
	}
	st, err := LoadManifestLog(manifest)
	if err != nil {
		t.Fatalf("the manifest's log no longer loads: %v", err)
	}
	if parts := st.Partitions(); st.Generation != 2 || len(parts) != 1 {
		t.Fatalf("SaveFile folded to generation %d with %d partitions; want generation 2 with 1", st.Generation, len(parts))
	}
	if gen, res := manifestGeneration(t, manifest); gen != 2 {
		t.Fatalf("the manifest opens at generation %d, want 2", gen)
	} else {
		assertResults(t, "after SaveFile", res, scratchResults(t, buildOrder(lib)))
	}
	if _, err := SweepRetired(manifest, st); err != nil {
		t.Fatal(err)
	}
	names, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{manifest, filepath.Join(dir, st.Partitions()[0].File)}; !slices.Equal(names, want) {
		t.Fatalf("after SweepRetired the directory holds %v, want %v", names, want)
	}
}

// TestCompactRefusesCorruptedDelta pins that Compact checks what it
// folds: a flipped byte in a delta partition's words, the file's size
// kept, fails the compaction naming that partition, and the log and
// every file beside it stay byte-identical. A compaction that went
// ahead would re-seal the damaged rows under a fresh, valid CRC, past
// the reach of any later check.
func TestCompactRefusesCorruptedDelta(t *testing.T) {
	manifest := recoveryFixture(t)
	dir := filepath.Dir(manifest)
	st, err := LoadManifestLog(manifest)
	if err != nil {
		t.Fatal(err)
	}
	i := slices.IndexFunc(st.Partitions(), func(ps PartitionState) bool { return ps.Delta })
	if i < 0 {
		t.Fatal("fixture has no delta partition")
	}
	file := st.Partitions()[i].File
	flipByte(t, filepath.Join(dir, file), -16, 0x01) // the last row's words, before the trailer
	before := dirFiles(t, dir)
	_, err = Compact(manifest, 0)
	if want := fmt.Sprintf("partition %d (%s)", i, file); err == nil || !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), "corrupted") {
		t.Fatalf("Compact over a corrupted delta: got %v, want %s refused as corrupted", err, want)
	}
	after := dirFiles(t, dir)
	if !maps.EqualFunc(before, after, bytes.Equal) {
		t.Fatalf("the refused Compact changed the directory: %d files before, %d after", len(before), len(after))
	}
}

// dirFiles reads every file in dir, by name.
func dirFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte, len(entries))
	for _, e := range entries {
		if files[e.Name()], err = os.ReadFile(filepath.Join(dir, e.Name())); err != nil {
			t.Fatal(err)
		}
	}
	return files
}
