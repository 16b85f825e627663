package libindex

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/hdc"
	"repro/internal/msdata"
)

// BenchmarkIndexLoad compares engine startup from a persisted index
// against re-encoding the same library from spectra — the economics
// that justify the index format. Acceptance: load ≥ 10x faster than
// encode (in practice it is orders of magnitude faster: one streamed
// pass over packed words versus the full preprocessing + ID-Level
// encoding pipeline per spectrum).
func BenchmarkIndexLoad(b *testing.B) {
	cfg := msdata.IPRG2012(0.005) // 5k targets + 5k decoys
	ds, err := msdata.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	p := testParams(2048, 0, 3)
	engine, _, err := core.BuildExact(p, ds.Library)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, p, engine.Library()); err != nil {
		b.Fatal(err)
	}
	img := buf.Bytes()
	b.Run("load", func(b *testing.B) {
		b.SetBytes(int64(len(img)))
		for i := 0; i < b.N; i++ {
			lp, lib, err := decodeImage(img)
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := core.NewExactEngineFromLibrary(lp, lib); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(engine.Library().Len()), "refs/op")
	})
	b.Run("encode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := core.BuildExact(p, ds.Library); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(engine.Library().Len()), "refs/op")
	})
}

// BenchmarkAppendPublish measures the durable publish path for one
// incremental update: fold the generation log, write a 1k-row delta
// partition (tmp + fsync + rename + dirsync), and append its sealed
// record — the latency an operator pays per omsbuild -append against
// a 20k-row base. Each iteration publishes a real generation, so the
// log it folds grows as the benchmark runs, exactly as a long-lived
// deployment's would between compactions.
func BenchmarkAppendPublish(b *testing.B) {
	const dn = 1000
	p, lib := syntheticLibrary(b, 20_000, 2048)
	manifest := b.TempDir() + "/bench.manifest"
	if err := SavePartitioned(manifest, p, lib, 4); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	entries := make([]core.LibraryEntry, dn)
	hvs := make([]hdc.BinaryHV, dn)
	for i := range entries {
		entries[i] = core.LibraryEntry{
			ID:      fmt.Sprintf("delta-%d", i),
			Peptide: fmt.Sprintf("DPEP%d", i),
			Mass:    600 + float64(i)*0.11,
		}
		hvs[i] = hdc.RandomBinaryHV(2048, rng)
	}
	dlib, err := core.RestoreLibrary(entries, hvs, rng.Perm(dn), 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := LoadManifestLog(manifest)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := AppendDelta(manifest, st, dlib, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(dn, "refs/op")
}

// BenchmarkIndexOpen compares the mmap-backed Open against its
// copying fallback at 100k references — the economics of the
// partitioned out-of-core design. Both check every byte (the checksum
// streams the file); the copying loader also copies the ~100 MiB word
// payload to the heap, while Open aliases the words in the mapping.
// Acceptance: mmap open ≥ 5x faster than copying load.
func BenchmarkIndexOpen(b *testing.B) {
	p, lib := syntheticLibrary(b, 100_000, 8192)
	dir := b.TempDir()
	path := dir + "/bench.omsidx"
	if err := SaveFile(path, p, lib); err != nil {
		b.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("mmap-open", func(b *testing.B) {
		b.SetBytes(st.Size())
		for i := 0; i < b.N; i++ {
			ix, err := Open(path)
			if err != nil {
				b.Fatal(err)
			}
			if !ix.Mapped() {
				b.Fatal("index not mapped")
			}
			if err := ix.Close(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(lib.Len()), "refs/op")
	})
	b.Run("copy-load", func(b *testing.B) {
		b.SetBytes(st.Size())
		for i := 0; i < b.N; i++ {
			if _, _, err := loadFile(path); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(lib.Len()), "refs/op")
	})
}
