package libindex

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// mustPanicClosed asserts that fn panics with the use-after-close
// message.
func mustPanicClosed(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("%s after Close did not panic", what)
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "no view outlives its generation's Close") {
			t.Fatalf("%s after Close panicked with %v, want the lifetime message", what, r)
		}
	}()
	fn()
}

// TestClosePoisonsIndex pins the use-after-close contract on a bare
// index file: Close zeroes its partition's words view and flips it
// closed, Words and PartitionSet panic descriptively afterwards, and a
// second Close is a nil no-op.
func TestClosePoisonsIndex(t *testing.T) {
	ds := testWorkload(t)
	p := testParams(512, 0, 3)
	built := buildEngine(t, p, ds.Library)
	path := filepath.Join(t.TempDir(), "lib.omsidx")
	if err := SaveFile(path, p, built.Library()); err != nil {
		t.Fatal(err)
	}

	ix, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	part := ix.parts[0]
	if len(part.Words()) == 0 {
		t.Fatal("open index has an empty words view")
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	if part.words != nil {
		t.Fatal("Close left the words view populated")
	}
	if ix.Mapped() {
		t.Fatal("index still reports mapped after Close")
	}
	if err := ix.Close(); err != nil {
		t.Fatalf("second Close: %v, want nil (idempotent)", err)
	}
	mustPanicClosed(t, "Words", func() { part.Words() })
	mustPanicClosed(t, "PartitionSet", func() { ix.PartitionSet() })
}

// TestEntryStringsSurviveClose pins that a mapped index's entry strings
// are a copy, not a view of the mapping: they read back intact after
// Close has unmapped the file (an alias would fault here).
func TestEntryStringsSurviveClose(t *testing.T) {
	p, lib := syntheticLibrary(t, 300, 512)
	path := filepath.Join(t.TempDir(), "lib.omsidx")
	if err := SaveFile(path, p, lib); err != nil {
		t.Fatal(err)
	}
	ix, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if mmapSupported && !ix.Mapped() {
		t.Fatal("index not mapped")
	}
	entries := ix.parts[0].Lib.Entries
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	for i, e := range entries {
		if want := lib.Entries[i]; e.ID != want.ID || e.Peptide != want.Peptide {
			t.Fatalf("entry %d after Close: %q/%q, want %q/%q", i, e.ID, e.Peptide, want.ID, want.Peptide)
		}
	}
}

// TestClosePoisonsCopiedIndex pins that the poison does not depend on
// which loader ran: a heap-copied index (no mapping to release) closes
// to the same panicking state as a mapped one.
func TestClosePoisonsCopiedIndex(t *testing.T) {
	ds := testWorkload(t)
	p := testParams(512, 0, 3)
	built := buildEngine(t, p, ds.Library)
	path := filepath.Join(t.TempDir(), "lib.omsidx")
	if err := SaveFile(path, p, built.Library()); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := openCopied(f, path)
	if cerr := f.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	if err != nil {
		t.Fatal(err)
	}
	if ix.mapped != nil {
		t.Fatal("copying loader produced a mapped index")
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ix.Close(); err != nil {
		t.Fatalf("second Close: %v, want nil (idempotent)", err)
	}
	mustPanicClosed(t, "Words", func() { ix.Words() })
}

// TestClosePoisonsPartitionedIndex pins that closing a manifest closes
// and poisons every partition — PartitionSet panics via the partition's
// Words — and stays idempotent.
func TestClosePoisonsPartitionedIndex(t *testing.T) {
	ds := testWorkload(t)
	p := testParams(512, 100, 3)
	built := buildEngine(t, p, ds.Library)
	dir := t.TempDir()
	manifest := filepath.Join(dir, "lib.manifest")
	if err := SavePartitioned(manifest, p, built.Library(), 3); err != nil {
		t.Fatal(err)
	}
	pi, err := Open(manifest)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(pi.PartitionSet().Specs); got != 3 {
		t.Fatalf("%d partition specs before Close, want 3", got)
	}
	if err := pi.Close(); err != nil {
		t.Fatal(err)
	}
	if err := pi.Close(); err != nil {
		t.Fatalf("second Close: %v, want nil (idempotent)", err)
	}
	mustPanicClosed(t, "PartitionSet", func() { pi.PartitionSet() })
	for i, part := range pi.parts {
		if !part.closed {
			t.Fatalf("partition %d not poisoned by manifest Close", i)
		}
	}
}
