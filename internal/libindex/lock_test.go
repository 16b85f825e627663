//go:build unix

package libindex

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// lockHolderEnv names the manifest a re-executed test binary holds the
// writer lock on, until its stdin closes.
const lockHolderEnv = "LIBINDEX_TEST_HOLD_WRITER_LOCK"

// TestWriterLockExcludesSecondProcess runs a second process that holds
// a manifest's writer lock: while it does, an append, a sweep, a
// rebuild and a single-file save over the manifest in this process
// must fail naming the manifest and leave the log as it was, and once
// the holder exits, the append must publish.
func TestWriterLockExcludesSecondProcess(t *testing.T) {
	if manifest := os.Getenv(lockHolderEnv); manifest != "" {
		holdWriterLock(t, manifest)
		return
	}
	manifest := recoveryFixture(t)
	holder := exec.Command(os.Args[0], "-test.run=^TestWriterLockExcludesSecondProcess$")
	holder.Env = append(os.Environ(), lockHolderEnv+"="+manifest)
	holder.Stderr = os.Stderr
	release, err := holder.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	out, err := holder.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := holder.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { holder.Process.Kill(); holder.Wait() })
	if line, err := bufio.NewReader(out).ReadString('\n'); line != "locked\n" {
		t.Fatalf("lock holder said %q, %v", line, err)
	}

	before, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	st, err := LoadManifestLog(manifest)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("locking manifest %s for writing: another writer holds the lock", manifest)
	if _, err := AppendDelta(manifest, st, syntheticDelta(t, "x", 2), 0); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("append beside a lock holder returned %v, want %q", err, want)
	}
	if _, err := SweepOrphans(manifest, st); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("sweep beside a lock holder returned %v, want %q", err, want)
	}
	p, lib := syntheticLibrary(t, 6, 128)
	if err := SavePartitioned(manifest, p, lib, 2); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("rebuild beside a lock holder returned %v, want %q", err, want)
	}
	if err := SaveFile(manifest, p, lib); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("single-file save beside a lock holder returned %v, want %q", err, want)
	}
	if after, err := os.ReadFile(manifest); err != nil || string(after) != string(before) {
		t.Fatalf("a refused writer changed the log (read error %v)", err)
	}

	if err := release.Close(); err != nil {
		t.Fatal(err)
	}
	if err := holder.Wait(); err != nil {
		t.Fatalf("lock holder: %v", err)
	}
	if gen, err := AppendDelta(manifest, st, syntheticDelta(t, "x", 2), 0); err != nil || gen != st.Generation {
		t.Fatalf("append after the holder exited: generation %d, %v", gen, err)
	}
}

// holdWriterLock is the second process: it takes the writer lock,
// says so, and holds it until its stdin closes.
func holdWriterLock(t *testing.T, manifest string) {
	st, err := LoadManifestLog(manifest)
	if err != nil {
		t.Fatal(err)
	}
	unlock, err := lockWriter(manifest, st)
	if err != nil {
		t.Fatal(err)
	}
	defer unlock()
	fmt.Println("locked")
	if _, err := io.Copy(io.Discard, os.Stdin); err != nil {
		t.Fatal(err)
	}
}
