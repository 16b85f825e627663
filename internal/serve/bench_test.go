package serve

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/hdc"
	"repro/internal/spectrum"
	"repro/internal/units"
)

// benchEngine hand-assembles an engine at the paper's operating point
// — D=8192 over nRefs mass-ordered references — without paying the
// encoding pipeline for 100k synthetic spectra: reference HVs are
// random (the kernel's cost is data-independent) and masses are laid
// out uniformly so precursor windows select realistic contiguous
// ranges.
func benchEngine(b *testing.B, d, nRefs int) *core.Engine {
	b.Helper()
	rng := rand.New(rand.NewSource(7))
	hvs := make([]hdc.BinaryHV, nRefs)
	entries := make([]core.LibraryEntry, nRefs)
	srcPos := make([]int, nRefs)
	const massLo, massHi = 500.0, 1500.0
	for i := range hvs {
		hvs[i] = hdc.RandomBinaryHV(d, rng)
		entries[i] = core.LibraryEntry{
			ID:      "ref",
			Peptide: "PEPTIDE",
			Mass:    massLo + (massHi-massLo)*float64(i)/float64(nRefs),
		}
		srcPos[i] = i
	}
	lib, err := core.RestoreLibrary(entries, hvs, srcPos, 0)
	if err != nil {
		b.Fatal(err)
	}
	p := core.DefaultParams()
	p.Accel.D = d
	// The default open window [-150, +500] Da on the 1000 Da mass span
	// selects contiguous candidate ranges of ~40-65% of the store —
	// the occupancy regime the paper's open search actually runs at.
	engine, _, err := core.NewExactEngineFromLibrary(p, lib)
	if err != nil {
		b.Fatal(err)
	}
	return engine
}

// benchQueries synthesizes query spectra whose precursor masses keep
// their open-search windows largely interior to the library mass span.
func benchQueries(n int) []*spectrum.Spectrum {
	rng := rand.New(rand.NewSource(8))
	out := make([]*spectrum.Spectrum, n)
	for i := range out {
		mass := 700 + 600*rng.Float64()
		s := &spectrum.Spectrum{
			ID:          "q",
			Charge:      2,
			PrecursorMZ: units.NeutralMassToMZ(mass, 2),
		}
		for p := 0; p < 40; p++ {
			s.Peaks = append(s.Peaks, spectrum.Peak{
				MZ:        150 + 1250*rng.Float64(),
				Intensity: 10 + 990*rng.Float64(),
			})
		}
		s.SortPeaks()
		out[i] = s
	}
	return out
}

// BenchmarkServeCoalesced measures the serving layer at 64 concurrent
// clients against the paper's operating point (D=8192, 100k refs,
// ~25% window occupancy). The coalesced variant routes every client
// through the micro-batcher (one block-major sweep per flushed
// batch); the perrequest variant is the same client fleet searching
// the engine directly one query at a time, re-streaming the packed
// store per query; the body variant submits the same queries as
// 64-query SearchMany bodies from one caller, one hand-off per body.
// Acceptance: coalesced ≥ 1.3x the per-request throughput (ns/op is
// per query — lower is better).
func BenchmarkServeCoalesced(b *testing.B) {
	const (
		d       = 8192
		nRefs   = 100_000
		clients = 64
	)
	engine := benchEngine(b, d, nRefs)
	queries := benchQueries(256)

	run := func(b *testing.B, search func(q *spectrum.Spectrum)) {
		work := make(chan *spectrum.Spectrum, clients)
		var wg sync.WaitGroup
		for w := 0; w < clients; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for q := range work {
					search(q)
				}
			}()
		}
		for i := 0; i < b.N; i++ {
			work <- queries[i%len(queries)]
		}
		close(work)
		wg.Wait()
	}

	b.Run("coalesced", func(b *testing.B) {
		srv, err := New(engine, Config{MaxBatch: clients, MaxQueue: 4 * clients})
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
		ctx := context.Background()
		b.ResetTimer()
		run(b, func(q *spectrum.Spectrum) {
			if _, _, err := srv.Search(ctx, q); err != nil {
				b.Error(err)
			}
		})
		b.StopTimer()
		st := srv.Stats()
		b.ReportMetric(st.MeanBatchSize, "batchsize/op")
	})
	b.Run("body", func(b *testing.B) {
		srv, err := New(engine, Config{MaxBatch: clients, MaxQueue: 4 * clients})
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
		ctx := context.Background()
		b.ResetTimer()
		for i := 0; i < b.N; i += clients {
			lo := i % len(queries)
			for _, r := range srv.SearchMany(ctx, queries[lo:lo+min(clients, b.N-i)]) {
				if r.Err != nil {
					b.Error(r.Err)
				}
			}
		}
		b.StopTimer()
		st := srv.Stats()
		b.ReportMetric(st.MeanBatchSize, "batchsize/op")
	})
	b.Run("perrequest", func(b *testing.B) {
		b.ResetTimer()
		run(b, func(q *spectrum.Spectrum) {
			if _, _, err := searchOne(engine, q); err != nil {
				b.Error(err)
			}
		})
	})
}
