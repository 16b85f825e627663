// Engine microbenchmarks (the ones README, DESIGN.md or the CI bench
// smoke name) plus ablation benches for the design choices called out
// in DESIGN.md §5. Run:
//
//	go test -bench=. -benchmem
//
// The ablation benches report their headline quantity as custom
// metrics (b.ReportMetric); cmd/omsrepro prints the paper's tables and
// figures, and `go run ./bench` is the repository benchmark.
package repro

import (
	"container/heap"
	"context"
	"fmt"
	"math/bits"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/accel"
	"repro/internal/core"
	"repro/internal/hdc"
	"repro/internal/msdata"
	"repro/internal/obsv"
	"repro/internal/perf"
	"repro/internal/rram"
)

// --- Core operation microbenchmarks -----------------------------------

// BenchmarkHammingSearch1k measures exact Hamming top-5 search over 1k
// references at D=8192.
func BenchmarkHammingSearch1k(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	refs := make([]hdc.BinaryHV, 1000)
	for i := range refs {
		refs[i] = hdc.RandomBinaryHV(8192, rng)
	}
	s, err := hdc.NewShardedSearcher(refs[0].D, 0, nil, nil, hdc.PackRows(refs))
	if err != nil {
		b.Fatal(err)
	}
	queries := []hdc.BinaryHV{hdc.RandomBinaryHV(8192, rng)}
	ranges := []hdc.RowRange{{Lo: 0, Hi: s.Len()}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Search(context.Background(), queries, ranges, 5, nil)
	}
}

// --- Sharded batch search benchmarks -----------------------------------

// seedBatchTopK replicates the seed Searcher.BatchTopK: a parallel
// fan-out of per-query flat scans over the reference slice, one
// container/heap allocation per query. It is the baseline the sharded
// engine's speedup is measured against.
func seedBatchTopK(refs []hdc.BinaryHV, queries []hdc.BinaryHV, k int) [][]hdc.Match {
	out := make([][]hdc.Match, len(queries))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(queries) {
		workers = len(queries)
	}
	var wg sync.WaitGroup
	next := make(chan int, len(queries))
	for i := range queries {
		next <- i
	}
	close(next)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				h := &seedMatchHeap{}
				heap.Init(h)
				for r := range refs {
					m := hdc.Match{Index: r, Similarity: queries[i].D - hdc.HammingDistance(queries[i], refs[r])}
					if h.Len() < k {
						heap.Push(h, m)
					} else if seedWorse((*h)[0], m) {
						(*h)[0] = m
						heap.Fix(h, 0)
					}
				}
				res := make([]hdc.Match, h.Len())
				for j := len(res) - 1; j >= 0; j-- {
					res[j] = heap.Pop(h).(hdc.Match)
				}
				out[i] = res
			}
		}()
	}
	wg.Wait()
	return out
}

func seedWorse(a, b hdc.Match) bool {
	if a.Similarity != b.Similarity {
		return a.Similarity < b.Similarity
	}
	return a.Index > b.Index
}

type seedMatchHeap []hdc.Match

func (h seedMatchHeap) Len() int            { return len(h) }
func (h seedMatchHeap) Less(i, j int) bool  { return seedWorse(h[i], h[j]) }
func (h seedMatchHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *seedMatchHeap) Push(x interface{}) { *h = append(*h, x.(hdc.Match)) }
func (h *seedMatchHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// batchBenchInputs builds a random reference set and query batch.
func batchBenchInputs(b *testing.B, d, nRefs, nQueries int) ([]hdc.BinaryHV, []hdc.BinaryHV) {
	b.Helper()
	rng := rand.New(rand.NewSource(11))
	refs := make([]hdc.BinaryHV, nRefs)
	for i := range refs {
		refs[i] = hdc.RandomBinaryHV(d, rng)
	}
	queries := make([]hdc.BinaryHV, nQueries)
	for i := range queries {
		queries[i] = hdc.RandomBinaryHV(d, rng)
	}
	return refs, queries
}

const batchBenchQueries = 64

// BenchmarkShardedBatchTopK measures the sharded batch engine across
// the paper's dimensions and reference-set scales, reporting per-op
// query throughput. The matching Seed variants run the original
// flat-scan batch path on identical inputs, so the ratio of the two
// is the engine speedup (acceptance: >= 1.5x at 100k refs).
func BenchmarkShardedBatchTopK(b *testing.B) {
	for _, d := range []int{2048, 8192} {
		for _, nRefs := range []int{10_000, 100_000} {
			b.Run(fmt.Sprintf("D%d/refs%d", d, nRefs), func(b *testing.B) {
				refs, queries := batchBenchInputs(b, d, nRefs, batchBenchQueries)
				s, err := hdc.NewShardedSearcher(refs[0].D, 0, nil, nil, hdc.PackRows(refs))
				if err != nil {
					b.Fatal(err)
				}
				ranges := make([]hdc.RowRange, len(queries))
				for i := range ranges {
					ranges[i] = hdc.RowRange{Lo: 0, Hi: s.Len()}
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s.Search(context.Background(), queries, ranges, 5, nil)
				}
				b.ReportMetric(float64(batchBenchQueries), "queries/op")
			})
		}
	}
}

// BenchmarkOpenSearchBatch measures the open-search hot path with
// realistic precursor-window occupancy (each query's candidate set is
// a contiguous 25% slice of the mass-ordered store, windows sliding
// with query mass), a batch of 64 streamed through the block-major
// Search sweep, at the paper's operating point (D=8192, 100k
// references) and at the repository benchmark's (D=2048, 40k), where
// rows are 4× shorter and the per-row selection work 4× more visible.
// ns/word is the time per XOR+popcount word swept; at -cpu 1 it is the
// figure bench/'s hdc.sweep_ns_per_word reports. admitted/query is the
// rows per query the kernel admitted to a top-k heap, read from the
// Trace of one more, untimed batch.
func BenchmarkOpenSearchBatch(b *testing.B) {
	const (
		nQueries  = batchBenchQueries
		occupancy = 0.25
	)
	for _, c := range []struct{ d, nRefs int }{{8192, 100_000}, {2048, 40_000}} {
		b.Run(fmt.Sprintf("D%d/refs%dk", c.d, c.nRefs/1000), func(b *testing.B) {
			refs, queries := batchBenchInputs(b, c.d, c.nRefs, nQueries)
			s, err := hdc.NewShardedSearcher(refs[0].D, 0, nil, nil, hdc.PackRows(refs))
			if err != nil {
				b.Fatal(err)
			}
			width := int(occupancy * float64(c.nRefs))
			ranges := make([]hdc.RowRange, nQueries)
			for i := range ranges {
				// Mass-sorted queries: window starts slide monotonically
				// across the store and neighbouring windows overlap heavily.
				lo := i * (c.nRefs - width) / nQueries
				ranges[i] = hdc.RowRange{Lo: lo, Hi: lo + width}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Search(context.Background(), queries, ranges, 5, nil)
			}
			b.StopTimer()
			var tr obsv.Trace
			s.Search(context.Background(), queries, ranges, 5, &tr)
			b.ReportMetric(float64(nQueries), "queries/op")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*nQueries*width*hdc.WordsPerHV(c.d)), "ns/word")
			b.ReportMetric(float64(tr.RowsAdmitted())/nQueries, "admitted/query")
		})
	}
}

// seedScoreRows replicates the scalar scoring kernel every sweep ran
// before the AVX-512 one (hdc's Go reference keeps the same loop, and
// is what `dispatch` measures under -tags purego): 8-way unrolled
// XOR+popcount with two accumulators. It is BenchmarkSweepKernel's
// fixed baseline.
func seedScoreRows(qw, packed []uint64, words, rows, d int, sims []int) {
	for r := 0; r < rows; r++ {
		row := packed[r*words : (r+1)*words]
		var d0, d1 int
		i := 0
		for ; i+8 <= len(row); i += 8 {
			x := (*[8]uint64)(row[i:])
			y := (*[8]uint64)(qw[i:])
			d0 += bits.OnesCount64(x[0]^y[0]) + bits.OnesCount64(x[1]^y[1]) +
				bits.OnesCount64(x[2]^y[2]) + bits.OnesCount64(x[3]^y[3])
			d1 += bits.OnesCount64(x[4]^y[4]) + bits.OnesCount64(x[5]^y[5]) +
				bits.OnesCount64(x[6]^y[6]) + bits.OnesCount64(x[7]^y[7])
		}
		for ; i < len(row); i++ {
			d0 += bits.OnesCount64(row[i] ^ qw[i])
		}
		sims[r] = d - (d0 + d1)
	}
}

// BenchmarkSweepKernel holds the sweep's inner call against the
// machine at D = 2048 (32-word rows) and D = 8192 (128): sixteen
// 16 KiB row blocks, each scored by 48 queries in turn. `go` is the
// scalar distance loop alone; `dispatch` is the sweep itself — one
// Search of the 48 queries over the blocks, so every (query,
// block) is one call of the kernel hdc selected at init
// (hdc.KernelName) with its top-5 admission bound, plus the walk over
// the rows it admits. Both report ns per XOR+popcount word, the
// roofline figure bench/'s hdc.sweep_ns_per_word is read against.
func BenchmarkSweepKernel(b *testing.B) {
	const blockBytes, blocks, nQueries = 16 << 10, 16, 48
	for _, words := range []int{32, 128} {
		d, rows := 64*words, blocks*blockBytes/(8*words)
		refs, queries := batchBenchInputs(b, d, rows, nQueries)
		packed := make([]uint64, 0, rows*words)
		for _, r := range refs {
			packed = append(packed, r.Words...)
		}
		s, err := hdc.NewShardedSearcher(refs[0].D, 0, nil, nil, hdc.PackRows(refs))
		if err != nil {
			b.Fatal(err)
		}
		ranges := make([]hdc.RowRange, nQueries)
		for i := range ranges {
			ranges[i] = hdc.RowRange{Lo: 0, Hi: rows}
		}
		sims := make([]int, rows)
		for _, k := range []struct {
			name  string
			sweep func()
		}{
			{"go", func() {
				for _, q := range queries {
					seedScoreRows(q.Words, packed, words, rows, d, sims)
				}
			}},
			{"dispatch", func() { s.Search(context.Background(), queries, ranges, 5, nil) }},
		} {
			b.Run(fmt.Sprintf("%s/words%d", k.name, words), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					k.sweep()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*nQueries*rows*words), "ns/word")
			})
		}
	}
}

// BenchmarkSeedBatchTopK is the seed flat-scan baseline for
// BenchmarkShardedBatchTopK.
func BenchmarkSeedBatchTopK(b *testing.B) {
	for _, d := range []int{2048, 8192} {
		for _, nRefs := range []int{10_000, 100_000} {
			b.Run(fmt.Sprintf("D%d/refs%d", d, nRefs), func(b *testing.B) {
				refs, queries := batchBenchInputs(b, d, nRefs, batchBenchQueries)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					seedBatchTopK(refs, queries, 5)
				}
				b.ReportMetric(float64(batchBenchQueries), "queries/op")
			})
		}
	}
}

// --- Ablation benches (DESIGN.md §5) -----------------------------------

// BenchmarkAblationDifferentialMapping compares search RMSE with
// differential vs single-ended weight storage. The non-differential
// variant is emulated by doubling the effective conductance noise (a
// single-ended read lacks common-mode rejection).
func BenchmarkAblationDifferentialMapping(b *testing.B) {
	var rmse float64
	for i := 0; i < b.N; i++ {
		cfg := core.DefaultOperatingPoint()
		cfg.D = 512
		cfg.NumBins = 300
		cfg.NumChunks = 64
		cfg.Elapsed = 2 * time.Hour
		rng := rand.New(rand.NewSource(3))
		refs := make([]hdc.BinaryHV, 16)
		for j := range refs {
			refs[j] = hdc.RandomBinaryHV(cfg.D, rng)
		}
		hw, err := accel.NewHWSearcher(cfg, refs)
		if err != nil {
			b.Fatal(err)
		}
		queries := []hdc.BinaryHV{hdc.RandomBinaryHV(cfg.D, rng)}
		rmse, err = hw.SearchRMSE(queries)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rmse, "RMSE_differential")
}

// BenchmarkAblationChunkedLevels compares encoding cycle counts with
// chunked level hypervectors (one MVM per chunk) against the naive
// element-wise schedule (one cycle per dimension), the §4.2.1 gain.
func BenchmarkAblationChunkedLevels(b *testing.B) {
	w := perf.IPRG2012Workload()
	var chunked, naive int64
	for i := 0; i < b.N; i++ {
		chunked = perf.EncodeCyclesPerQuery(w)
		batches := int64((w.PeaksPerQuery + w.ActiveRows - 1) / w.ActiveRows)
		naive = batches * int64(w.D)
	}
	b.ReportMetric(float64(naive)/float64(chunked), "cycleReduction_x")
}

// BenchmarkAblationIDPrecision reports identifications per ID
// precision at a fixed dimension (the §4.2.2 multi-bit gain).
func BenchmarkAblationIDPrecision(b *testing.B) {
	ds, err := msdata.Generate(msdata.IPRG2012(0.001))
	if err != nil {
		b.Fatal(err)
	}
	ids := [3]int{}
	for i := 0; i < b.N; i++ {
		for precision := 1; precision <= 3; precision++ {
			p := core.DefaultParams()
			p.Accel.D = 1024
			p.Accel.NumChunks = 64
			p.Accel.IDPrecision = precision
			engine, _, err := core.BuildExact(p, ds.Library)
			if err != nil {
				b.Fatal(err)
			}
			res, err := engine.Run(ds.Queries)
			if err != nil {
				b.Fatal(err)
			}
			ids[precision-1] = len(res.Accepted)
		}
	}
	b.ReportMetric(float64(ids[2]), "IDs_3bit")
	b.ReportMetric(float64(ids[0]), "IDs_1bit")
}

// BenchmarkAblationBitsPerCell reports storage BER per density.
func BenchmarkAblationBitsPerCell(b *testing.B) {
	bers := [3]float64{}
	for i := 0; i < b.N; i++ {
		for bits := 1; bits <= 3; bits++ {
			dev := rram.NewDevice(rram.DefaultDeviceConfig(), int64(bits))
			ber, err := rram.BitErrorRate(dev, 1024, bits, 4, 24*time.Hour)
			if err != nil {
				b.Fatal(err)
			}
			bers[bits-1] = ber
		}
	}
	for bits := 1; bits <= 3; bits++ {
		b.ReportMetric(bers[bits-1]*100, fmt.Sprintf("%%BER_%db", bits))
	}
}

// BenchmarkAblationActivatedRows reports the throughput/error
// trade-off of the row activation limit.
func BenchmarkAblationActivatedRows(b *testing.B) {
	w := perf.IPRG2012Workload()
	var c64, c16 int64
	for i := 0; i < b.N; i++ {
		w.ActiveRows = 64
		c64 = perf.SearchCyclesPerQuery(w)
		w.ActiveRows = 16
		c16 = perf.SearchCyclesPerQuery(w)
	}
	b.ReportMetric(float64(c16)/float64(c64), "cycleSavings_64v16_x")
}

// BenchmarkAblationGrayCoding reports the storage-mapping BER
// difference at 3 bits/cell.
func BenchmarkAblationGrayCoding(b *testing.B) {
	var plain, gray float64
	for i := 0; i < b.N; i++ {
		devP := rram.NewDevice(rram.DefaultDeviceConfig(), 300)
		p, err := rram.BitErrorRate(devP, 2048, 3, 6, 24*time.Hour)
		if err != nil {
			b.Fatal(err)
		}
		devG := rram.NewDevice(rram.DefaultDeviceConfig(), 300)
		g, err := rram.GrayBitErrorRate(devG, 2048, 3, 6, 24*time.Hour)
		if err != nil {
			b.Fatal(err)
		}
		plain, gray = p, g
	}
	b.ReportMetric(plain*100, "%BER_binary")
	b.ReportMetric(gray*100, "%BER_gray")
}
