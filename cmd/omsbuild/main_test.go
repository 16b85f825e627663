package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"repro/internal/msdata"
	"repro/internal/spectrum"
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
	run(t, append([]string{"-out", out}, args...)...)
	img, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// run runs the command with args and returns what it printed.
func run(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "OMSBUILD_MAIN=1")
	msg, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("omsbuild %v: %v\n%s", args, err, msg)
	}
	return string(msg)
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

// TestPlainBuildOverAManifestReport pins omsbuild's one report after a
// build: a plain build over a manifest rebuilds it as the next
// generation, and its line names that generation and the size of the
// partition file it wrote, not the size of the log at -out.
func TestPlainBuildOverAManifestReport(t *testing.T) {
	ds, err := msdata.Generate(msdata.IPRG2012(0.002))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var mgf bytes.Buffer
	if err := spectrum.WriteMGF(&mgf, ds.Library); err != nil {
		t.Fatal(err)
	}
	lib := filepath.Join(dir, "library.mgf")
	if err := os.WriteFile(lib, mgf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "lib.manifest")
	run(t, "-library", lib, "-out", out, "-d", "2048", "-partitions", "3")
	got := run(t, "-library", lib, "-out", out, "-d", "2048")
	part, err := os.Stat(out + ".g000002.part000")
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("omsbuild: %s: generation 2: %d references encoded (0 skipped), D=2048, 1 partitions, %.1f MiB\n",
		out, len(ds.Library), float64(part.Size())/(1<<20))
	if got != want {
		t.Fatalf("plain build over a manifest reported\n%q\nwant\n%q", got, want)
	}
}
