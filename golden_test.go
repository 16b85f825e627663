package repro

// The golden end-to-end fixture: a tiny checked-in MGF library and
// query set (testdata/golden/) driven through the omsbuild → omsearch
// pipeline in-process — build the encoded library, persist it as both
// a single index file and a 3-partition manifest, open both back
// (mmap-backed), search, and render omsearch's TSV. The single-file
// and partitioned outputs must match byte for byte, and both must
// match the checked-in expected.tsv (regenerate deliberately with
// -update-golden after an intentional scoring change). The noisy
// backend has its own pin, expected_rram.tsv: every matched PSM of
// omsearch -backend rram, so a single moved noise draw shows.

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/fdr"
	"repro/internal/libindex"
	"repro/internal/spectrum"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden/expected*.tsv from the current engine output")

// goldenParams pins the engine configuration the fixture was built
// with; changing any encoder-identity field invalidates expected.tsv.
func goldenParams() core.Params {
	p := core.DefaultParams()
	p.Accel.D = 2048
	p.Accel.NumChunks = 64
	p.Accel.IDPrecision = 3
	p.Accel.Seed = 1
	return p
}

// renderGoldenTSV reproduces cmd/omsearch's writePSMs output format
// exactly — header line plus one row per accepted PSM.
func renderGoldenTSV(res fdr.Result) string { return renderPSMs(res.Accepted) }

// renderPSMs renders PSMs in cmd/omsearch's writePSMs format.
func renderPSMs(psms []fdr.PSM) string {
	var buf bytes.Buffer
	fmt.Fprintln(&buf, "query_id\tpeptide\tscore\tmass_shift")
	for _, psm := range psms {
		fmt.Fprintf(&buf, "%s\t%s\t%.4f\t%+.4f\n", psm.QueryID, psm.Peptide, psm.Score, psm.MassShift)
	}
	return buf.String()
}

// checkGolden compares got with the checked-in file at path, or
// rewrites the file under -update-golden.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("TSV output drifted from %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

func TestGoldenEndToEnd(t *testing.T) {
	library, err := spectrum.ReadSpectraFile("testdata/golden/library.mgf")
	if err != nil {
		t.Fatal(err)
	}
	queries, err := spectrum.ReadSpectraFile("testdata/golden/queries.mgf")
	if err != nil {
		t.Fatal(err)
	}
	p := goldenParams()
	engine, _, err := core.BuildExact(p, library)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	singlePath := filepath.Join(dir, "golden.omsidx")
	manifestPath := filepath.Join(dir, "golden.manifest")
	if err := libindex.SaveFile(singlePath, p, engine.Library()); err != nil {
		t.Fatal(err)
	}
	if err := libindex.SavePartitioned(manifestPath, p, engine.Library(), 3); err != nil {
		t.Fatal(err)
	}

	// Single-file path, exactly as omsearch -index takes it.
	ix, err := libindex.Open(singlePath)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	singleEngine, _, err := core.NewPartitionedEngine(ix.Params, ix.PartitionSet())
	if err != nil {
		t.Fatal(err)
	}
	singleRes, err := singleEngine.Run(queries)
	if err != nil {
		t.Fatal(err)
	}
	singleTSV := renderGoldenTSV(singleRes)

	// Partitioned path over the manifest.
	pi, err := libindex.Open(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	defer pi.Close()
	partEngine, _, err := core.NewPartitionedEngine(pi.Params, pi.PartitionSet())
	if err != nil {
		t.Fatal(err)
	}
	partRes, err := partEngine.Run(queries)
	if err != nil {
		t.Fatal(err)
	}
	partTSV := renderGoldenTSV(partRes)

	if singleTSV != partTSV {
		t.Fatalf("partitioned TSV differs from single-file TSV:\n--- single ---\n%s--- partitioned ---\n%s", singleTSV, partTSV)
	}
	if len(singleRes.Accepted) == 0 {
		t.Fatal("golden run accepted no PSMs; fixture is degenerate")
	}

	checkGolden(t, "testdata/golden/expected.tsv", singleTSV)
}

// TestGoldenNoisyEndToEnd pins the noisy backend's bits: the golden
// fixture searched as omsearch -backend rram -d 2048 -seed 1 does, with
// every matched PSM rendered (not only the FDR-accepted ones), so any
// moved encoding, storage or score noise draw changes the file.
func TestGoldenNoisyEndToEnd(t *testing.T) {
	library, err := spectrum.ReadSpectraFile("testdata/golden/library.mgf")
	if err != nil {
		t.Fatal(err)
	}
	queries, err := spectrum.ReadSpectraFile("testdata/golden/queries.mgf")
	if err != nil {
		t.Fatal(err)
	}
	p := goldenParams()
	engine, err := core.BuildNoisy(p, library, core.NoiseSpec{
		EncodeBER:     0.04,
		RefStorageBER: 0.02,
		SearchSigma:   0.004 * float64(p.Accel.D),
		Seed:          p.Accel.Seed + 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	psms, err := engine.SearchAll(queries)
	if err != nil {
		t.Fatal(err)
	}
	if len(psms) == 0 {
		t.Fatal("noisy golden run matched no PSMs; fixture is degenerate")
	}
	checkGolden(t, "testdata/golden/expected_rram.tsv", renderPSMs(psms))
}
