package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestMain lets a test run the command itself: with OMSBUILD_MAIN set,
// the test binary is omsbuild, flags and exit status included.
func TestMain(m *testing.M) {
	if os.Getenv("OMSBUILD_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// omsbuild runs the command with args and returns the file it wrote.
func omsbuild(t *testing.T, out string, args ...string) []byte {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"-out", out}, args...)...)
	cmd.Env = append(os.Environ(), "OMSBUILD_MAIN=1")
	if msg, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("omsbuild %v: %v\n%s", args, err, msg)
	}
	img, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// TestLadderFlagsBuildThePlainIndex pins the -tiers/-bit-layout shim:
// the flags are still accepted, and an index built with them is byte
// for byte the index a plain build writes.
func TestLadderFlagsBuildThePlainIndex(t *testing.T) {
	lib := filepath.Join("..", "..", "testdata", "golden", "library.mgf")
	dir := t.TempDir()
	plain := omsbuild(t, filepath.Join(dir, "plain.omsidx"), "-library", lib, "-d", "2048")
	flagged := omsbuild(t, filepath.Join(dir, "flagged.omsidx"), "-library", lib, "-d", "2048",
		"-tiers", "8,24", "-bit-layout", "entropy")
	if !bytes.Equal(plain, flagged) {
		t.Fatalf("-tiers 8,24 -bit-layout entropy wrote %d bytes that differ from the plain build's %d", len(flagged), len(plain))
	}
}
