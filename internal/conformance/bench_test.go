package conformance

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/hdc"
	"repro/internal/libindex"
)

// BenchmarkPartitionedTopKRange compares one batched top-k sweep over
// a single-file mmap-backed engine against the same sweep fanned out
// across a 4-partition manifest — the cost of mass-fence routing and
// the exact per-query merge on top of the identical kernel work — and
// against a deltas-present manifest of the same visible set, adding
// the overlay costs: overlapping delta fences, more partitions to merge
// and shadowed rows (hidden_refs) masked inside the sweep — which should
// cost within a few percent of the plain partitioned leg, whatever the
// hidden count. All engines are opened from real on-disk indexes, as
// omsd would, and pre-verified bit-identical. ~30% precursor-window
// occupancy at 100k references.
func BenchmarkPartitionedTopKRange(b *testing.B) {
	const n, d, nq, k = 100_000, 2048, 256, 5
	rng := rand.New(rand.NewSource(11))
	entries := make([]core.LibraryEntry, n)
	hvs := make([]hdc.BinaryHV, n)
	for i := range entries {
		entries[i] = core.LibraryEntry{
			ID:      fmt.Sprintf("ref-%d", i),
			Peptide: fmt.Sprintf("PEP%d", i),
			IsDecoy: i%4 == 3,
			Mass:    500 + float64(i)*0.02,
		}
		hvs[i] = hdc.RandomBinaryHV(d, rng)
	}
	lib, err := core.RestoreLibrary(entries, hvs, rng.Perm(n), 0)
	if err != nil {
		b.Fatal(err)
	}
	p := core.DefaultParams()
	p.Accel.D = d
	p.Accel.NumChunks = 64
	p.TopK = k

	queries := make([]core.PreparedQuery, nq)
	for qi := range queries {
		r := rng.Intn(n)
		hv := hvs[r].Clone()
		for f := 0; f < 1+qi%29; f++ {
			i := rng.Intn(d)
			hv.SetBit(i, hv.Bit(i) < 0)
		}
		mass := entries[r].Mass + -140 + rng.Float64()*620
		lo, hi := lib.CandidateRange(mass, p.Window)
		queries[qi] = core.PreparedQuery{QueryID: fmt.Sprintf("q-%d", qi), HV: hv, Mass: mass, Lo: lo, Hi: hi}
	}

	dir := b.TempDir()
	singlePath := filepath.Join(dir, "bench.omsidx")
	manifestPath := filepath.Join(dir, "bench.manifest")
	if err := libindex.SaveFile(singlePath, p, lib); err != nil {
		b.Fatal(err)
	}
	if err := libindex.SavePartitioned(manifestPath, p, lib, 4); err != nil {
		b.Fatal(err)
	}
	ix, err := libindex.Open(singlePath)
	if err != nil {
		b.Fatal(err)
	}
	defer ix.Close()
	single, _, err := core.NewPartitionedEngine(ix.Params, ix.PartitionSet())
	if err != nil {
		b.Fatal(err)
	}
	pi, err := libindex.Open(manifestPath)
	if err != nil {
		b.Fatal(err)
	}
	defer pi.Close()
	part, _, err := core.NewPartitionedEngine(pi.Params, pi.PartitionSet())
	if err != nil {
		b.Fatal(err)
	}

	// A third index with the SAME visible set published incrementally:
	// 95% of the rows as the base build, the remaining 5% appended as
	// delta partitions, plus a slice of base ids retracted and then
	// re-added by the delta so the overlay sweep pays for tombstones
	// and shadowed rows — the state omsd serves between an append and
	// the next compaction.
	const nTail, nChurn = n / 20, n / 100
	deltaPath := filepath.Join(dir, "bench-delta.manifest")
	nBase := n - nTail
	baseLib, err := core.RestoreLibrary(entries[:nBase], hvs[:nBase], seqInts(nBase), 0)
	if err != nil {
		b.Fatal(err)
	}
	if err := libindex.SavePartitioned(deltaPath, p, baseLib, 4); err != nil {
		b.Fatal(err)
	}
	churnLo := nBase / 2
	var churn []string
	known := make(map[string]bool, nChurn)
	for _, e := range entries[churnLo : churnLo+nChurn] {
		churn = append(churn, e.ID)
		known[e.ID] = true
	}
	st, err := libindex.LoadManifestLog(deltaPath)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := libindex.AppendRetract(deltaPath, st, churn, known); err != nil {
		b.Fatal(err)
	}
	dEntries := append(append([]core.LibraryEntry{}, entries[churnLo:churnLo+nChurn]...), entries[nBase:]...)
	dHVs := append(append([]hdc.BinaryHV{}, hvs[churnLo:churnLo+nChurn]...), hvs[nBase:]...)
	dLib, err := core.RestoreLibrary(dEntries, dHVs, seqInts(len(dEntries)), 0)
	if err != nil {
		b.Fatal(err)
	}
	if st, err = libindex.LoadManifestLog(deltaPath); err != nil {
		b.Fatal(err)
	}
	if _, err := libindex.AppendDelta(deltaPath, st, dLib, (len(dEntries)+2)/3); err != nil {
		b.Fatal(err)
	}
	di, err := libindex.Open(deltaPath)
	if err != nil {
		b.Fatal(err)
	}
	defer di.Close()
	overlay, _, err := core.NewPartitionedEngine(di.Params, di.PartitionSet())
	if err != nil {
		b.Fatal(err)
	}
	if ov := overlay.OverlayStats(); ov.DeltaPartitions == 0 || ov.Tombstones == 0 || ov.HiddenRefs == 0 {
		b.Fatalf("delta fixture carries no overlay work: %+v", ov)
	}

	// Both partitioned sweeps must be bit-identical before they are
	// timed — the overlay engine through entry values, since its global
	// match indexes depend on the partition layout.
	sRes, pRes, oRes := search(b, single, queries, nil), search(b, part, queries, nil), search(b, overlay, queries, nil)
	for i := range queries {
		if len(sRes[i].Top) > 0 != (len(pRes[i].Top) > 0) || sRes[i].PSM != pRes[i].PSM {
			b.Fatalf("query %d: partitioned %+v, single %+v", i, pRes[i].PSM, sRes[i].PSM)
		}
		if len(sRes[i].Top) > 0 != (len(oRes[i].Top) > 0) || sRes[i].PSM != oRes[i].PSM {
			b.Fatalf("query %d: delta overlay %+v, single %+v", i, oRes[i].PSM, sRes[i].PSM)
		}
	}

	b.Run("single-file", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			search(b, single, queries, nil)
		}
		b.ReportMetric(float64(nq), "queries/op")
	})
	b.Run("partitioned-4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			search(b, part, queries, nil)
		}
		b.ReportMetric(float64(nq), "queries/op")
	})
	b.Run("partitioned-4+delta", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			search(b, overlay, queries, nil)
		}
		b.ReportMetric(float64(nq), "queries/op")
		b.ReportMetric(float64(overlay.OverlayStats().HiddenRefs), "hidden_refs")
	})
}

// seqInts returns [0, 1, ..., n-1] — identity source positions for
// RestoreLibrary fixtures.
func seqInts(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}
