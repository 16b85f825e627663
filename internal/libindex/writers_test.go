package libindex

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
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
	if err := pi.Verify(); err != nil {
		t.Fatal(err)
	}
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
