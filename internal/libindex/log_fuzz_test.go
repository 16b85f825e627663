package libindex

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/hdc"
)

// FuzzManifestLog drives crafted manifest generation logs through the
// fold (ParseManifestLog) and the full opener (Open, run next
// to a real partition-file set). Neither may panic. A log the fold
// accepts must describe an internally consistent state — contiguous
// generations folded to completion, ascending non-overlapping base
// fences, positive row counts — and a log the opener accepts must
// additionally verify against the partition files byte for byte:
// Open never serves a partially-applied generation. Structure
// -aware seeds start from a real append/retract/compact history and
// plant the interesting corruptions: a crash-truncated tail, a
// duplicated generation, a tombstone for an id no partition carries,
// and a delta record referencing a partition file that does not exist.
func FuzzManifestLog(f *testing.F) {
	dir, manifest := fuzzManifestFixture(f)
	logBytes, err := os.ReadFile(manifest)
	if err != nil {
		f.Fatal(err)
	}
	var partFiles []string
	entries, err := os.ReadDir(dir)
	if err != nil {
		f.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != filepath.Base(manifest) {
			partFiles = append(partFiles, e.Name())
		}
	}

	st, err := ParseManifestLog(logBytes)
	if err != nil {
		f.Fatal(err)
	}
	lines := bytes.SplitAfter(logBytes, []byte("\n"))

	f.Add(logBytes)
	// Crash-truncated tails: mid-final-record and mid-log.
	f.Add(logBytes[:len(logBytes)-9])
	f.Add(logBytes[:len(logBytes)/2])
	// Duplicate generation: the last record replayed verbatim.
	f.Add(append(append([]byte{}, logBytes...), lines[len(lines)-2]...))
	// Tombstone for an id no partition carries: the fold accepts it
	// (presence is an open-time property), the opener must reject.
	ghost, err := marshalRecord(LogRecord{
		Type: recordRetract, Generation: st.Generation + 1, Ids: []string{"no-such-id"},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(append(append([]byte{}, logBytes...), ghost...))
	// Delta record referencing a missing partition file.
	missing, err := marshalRecord(LogRecord{
		Type: recordDelta, Generation: st.Generation + 1,
		Partitions: []PartitionInfo{{
			File: filepath.Base(manifest) + ".g000099.part000",
			Refs: 3, MinMass: 500, MaxMass: 501, Bytes: 128, CRC32C: 1,
		}},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(append(append([]byte{}, logBytes...), missing...))
	// Non-log documents: empty, garbage, a legacy whole-document
	// manifest, and a single unsealed record.
	f.Add([]byte{})
	f.Add([]byte("not a log\n"))
	f.Add([]byte(`{"format":"oms-library-manifest","version":3,"partitions":[]}`))
	f.Add([]byte(`{"type":"base","generation":1}` + "\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		st, perr := ParseManifestLog(data)
		if perr == nil {
			checkFoldedState(t, st)
		}

		// The same bytes as an on-disk manifest next to the real
		// partition files: the opener must reject or serve a fully
		// consistent generation.
		td := t.TempDir()
		for _, name := range partFiles {
			if err := os.Link(filepath.Join(dir, name), filepath.Join(td, name)); err != nil {
				t.Fatal(err)
			}
		}
		mpath := filepath.Join(td, filepath.Base(manifest))
		if err := os.WriteFile(mpath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		pi, oerr := Open(mpath)
		if oerr != nil {
			return
		}
		defer pi.Close()
		if perr != nil {
			t.Fatalf("Open accepted a log the fold rejects: %v", perr)
		}
		if pi.State.Generation != st.Generation {
			t.Fatalf("Open serves generation %d, the fold says %d", pi.State.Generation, st.Generation)
		}
		states := pi.State.Partitions()
		if len(pi.parts) != len(states) {
			t.Fatalf("Open holds %d partitions, the fold says %d", len(pi.parts), len(states))
		}
		for i, part := range pi.parts {
			if part.Lib == nil || part.Lib.Len() != states[i].Refs {
				t.Fatalf("partition %d: %d loaded rows, record says %d", i, part.Lib.Len(), states[i].Refs)
			}
		}
		if err := pi.Verify(); err != nil {
			t.Fatalf("Open accepted a manifest Verify rejects: %v", err)
		}
	})
}

// checkFoldedState asserts the invariants every accepted fold must
// satisfy, whatever bytes produced it.
func checkFoldedState(t *testing.T, st *ManifestState) {
	t.Helper()
	if st.Generation < 1 {
		t.Fatalf("accepted log folded to generation %d", st.Generation)
	}
	if st.D <= 0 {
		t.Fatalf("accepted log folded to dimension %d", st.D)
	}
	if len(st.Base)+len(st.Deltas) == 0 {
		t.Fatal("accepted log folded to no live partitions")
	}
	if st.TotalRefs() <= 0 {
		t.Fatalf("accepted log folded to %d references", st.TotalRefs())
	}
	for i, p := range st.Base {
		if p.Refs <= 0 {
			t.Fatalf("base partition %d has %d refs", i, p.Refs)
		}
		if p.MinMass > p.MaxMass {
			t.Fatalf("base partition %d fences inverted: [%g, %g]", i, p.MinMass, p.MaxMass)
		}
		if i > 0 && p.MinMass < st.Base[i-1].MaxMass {
			t.Fatalf("base partitions %d/%d overlap: %g < %g", i-1, i, p.MinMass, st.Base[i-1].MaxMass)
		}
		if p.Gen < 1 || p.Gen > st.Generation {
			t.Fatalf("base partition %d carries generation %d of %d", i, p.Gen, st.Generation)
		}
	}
	for i, p := range st.Deltas {
		if p.Refs <= 0 {
			t.Fatalf("delta partition %d has %d refs", i, p.Refs)
		}
		if !p.Delta {
			t.Fatalf("delta partition %d not tagged as delta tier", i)
		}
		if p.Gen < 2 || p.Gen > st.Generation {
			t.Fatalf("delta partition %d carries generation %d of %d", i, p.Gen, st.Generation)
		}
	}
	for id, gen := range st.Tombstones {
		if gen < 2 || gen > st.Generation {
			t.Fatalf("tombstone %q carries generation %d of %d", id, gen, st.Generation)
		}
	}
}

// fuzzManifestFixture builds a real manifest history on disk — base
// build, two delta appends (one re-adding an existing id), a
// retraction, a compaction, then one more delta so the final state
// carries every record type — and returns its directory and path.
func fuzzManifestFixture(f *testing.F) (dir, manifest string) {
	f.Helper()
	dir = f.TempDir()
	manifest = filepath.Join(dir, "lib.manifest")
	p, lib := syntheticLibrary(f, 12, 128)
	if err := SavePartitioned(manifest, p, lib, 3); err != nil {
		f.Fatal(err)
	}
	appendSynthetic := func(tag string, n int, readd string) {
		st, err := LoadManifestLog(manifest)
		if err != nil {
			f.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(len(tag))))
		entries := make([]core.LibraryEntry, n)
		hvs := make([]hdc.BinaryHV, n)
		for i := range entries {
			entries[i] = core.LibraryEntry{
				ID:      fmt.Sprintf("%s-%d", tag, i),
				Peptide: fmt.Sprintf("PEP%s%d", tag, i),
				Mass:    502 + float64(i)*0.61,
			}
			hvs[i] = hdc.RandomBinaryHV(128, rng)
		}
		if readd != "" {
			entries[0].ID = readd
		}
		dlib, err := core.RestoreLibrary(entries, hvs, rng.Perm(n), 0)
		if err != nil {
			f.Fatal(err)
		}
		if _, err := AppendDelta(manifest, st, dlib, 2); err != nil {
			f.Fatal(err)
		}
	}
	appendSynthetic("da", 4, "")
	appendSynthetic("db", 3, "ref-3")
	st, err := LoadManifestLog(manifest)
	if err != nil {
		f.Fatal(err)
	}
	if _, err := AppendRetract(manifest, st, []string{"ref-5"}, map[string]bool{"ref-5": true}); err != nil {
		f.Fatal(err)
	}
	if _, err := Compact(manifest, 6); err != nil {
		f.Fatal(err)
	}
	appendSynthetic("dc", 3, "")
	return dir, manifest
}
