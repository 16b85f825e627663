package accel

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/hdc"
	"repro/internal/obsv"
	"repro/internal/spectrum"
)

// NoisyModel is the characterized error model of the chip: the
// measured encoding bit-flip rate and the measured per-dot-product
// noise of in-memory search. It lets dataset-scale experiments run at
// software speed while exhibiting the hardware's error statistics,
// mirroring the paper's methodology (chip characterized once in §5.2,
// algorithm-level robustness evaluated with injected errors in §5.3).
type NoisyModel struct {
	// EncodeBER is the probability each encoded output bit differs
	// from the ideal encoding.
	EncodeBER float64
	// SearchSigma is the standard deviation of additive noise on each
	// Hamming similarity score, in similarity units (bits).
	SearchSigma float64
}

// Characterize measures a configuration's error model on small probe
// workloads using the exact crossbar simulation: numProbe random peak
// lists for encoding BER and a numProbe x numProbe reference/query
// search for similarity noise.
func Characterize(cfg Config, numProbe int, seed int64) (NoisyModel, error) {
	if numProbe < 2 {
		numProbe = 2
	}
	rng := rand.New(rand.NewSource(seed))

	// Encoding BER probe. Keep the probe dimension moderate for
	// tractability; BER per bit is dimension-independent because every
	// column experiences the same analog chain.
	probeCfg := cfg
	if probeCfg.D > 1024 {
		probeCfg.D = 1024
		probeCfg.NumChunks = minInt(cfg.NumChunks, 64)
	}
	enc, err := NewHWEncoder(probeCfg)
	if err != nil {
		return NoisyModel{}, err
	}
	lists := make([][]spectrum.QuantizedPeak, numProbe)
	for i := range lists {
		n := 40 + rng.Intn(80)
		peaks := make([]spectrum.QuantizedPeak, n)
		for j := range peaks {
			peaks[j] = spectrum.QuantizedPeak{
				Bin:   rng.Intn(probeCfg.NumBins),
				Level: rng.Intn(probeCfg.Q),
			}
		}
		lists[i] = peaks
	}
	ber, err := enc.BitErrorRate(lists)
	if err != nil {
		return NoisyModel{}, err
	}

	// Search noise probe: per-group MAC error scales up to the full
	// dimension as sigma_D = sigma_group * sqrt(D / ActiveRows).
	searchCfg := probeCfg
	refs := make([]hdc.BinaryHV, numProbe)
	for i := range refs {
		refs[i] = hdc.RandomBinaryHV(searchCfg.D, rng)
	}
	hw, err := NewHWSearcher(searchCfg, refs)
	if err != nil {
		return NoisyModel{}, err
	}
	var se float64
	var n int
	for probe := 0; probe < numProbe; probe++ {
		q := hdc.RandomBinaryHV(searchCfg.D, rng)
		got, err := hw.DotProducts(q)
		if err != nil {
			return NoisyModel{}, err
		}
		for i, r := range refs {
			want := float64(hdc.Dot(q, r))
			d := got[i] - want
			se += d * d
			n++
		}
	}
	sigmaDotProbe := math.Sqrt(se / float64(n))
	// Dot-product noise grows with sqrt(number of row groups); rescale
	// from the probe dimension to the configured dimension. Similarity
	// = (dot + D)/2, so similarity noise is half the dot noise.
	scale := math.Sqrt(float64(cfg.D) / float64(searchCfg.D))
	return NoisyModel{
		EncodeBER:   ber,
		SearchSigma: sigmaDotProbe * scale / 2,
	}, nil
}

// NoisyEncoder wraps an ideal encoder and flips output bits at the
// characterized rate.
type NoisyEncoder struct {
	// Ideal is the underlying software encoder.
	Ideal *hdc.Encoder
	// Model supplies the error statistics.
	Model NoisyModel
	mu    sync.Mutex
	rng   *rand.Rand
}

// NewNoisyEncoder builds the fast error-injected encoder.
func NewNoisyEncoder(ideal *hdc.Encoder, model NoisyModel, seed int64) *NoisyEncoder {
	return &NoisyEncoder{Ideal: ideal, Model: model, rng: rand.New(rand.NewSource(seed))}
}

// Encode encodes the peak list and applies the characterized bit-flip
// rate.
func (e *NoisyEncoder) Encode(peaks []spectrum.QuantizedPeak) (hdc.BinaryHV, error) {
	h, err := e.Ideal.Encode(peaks)
	if err != nil {
		return hdc.BinaryHV{}, err
	}
	e.mu.Lock()
	h.FlipBits(e.Model.EncodeBER, e.rng)
	e.mu.Unlock()
	return h, nil
}

// EncodeVector quantizes and encodes a binned spectrum vector with
// error injection.
func (e *NoisyEncoder) EncodeVector(v spectrum.Vector) (hdc.BinaryHV, error) {
	return e.Encode(v.Quantize(e.Ideal.Levels.Q()))
}

// NoisySearcher wraps the exact software searcher and perturbs each
// similarity score with the characterized Gaussian noise. Its one
// search method, Search, has the exact engine's batch-range shape
// (core.Searcher); SimilaritiesRangeInto is the one place a row range
// becomes per-row scores, which the hardware model needs in order to
// perturb every candidate before top-k selection.
type NoisySearcher struct {
	// Exact is the underlying software searcher.
	Exact *hdc.ShardedSearcher
	// Model supplies the error statistics.
	Model NoisyModel
	mu    sync.Mutex
	rng   *rand.Rand
}

// NewNoisySearcher builds the fast error-injected searcher.
func NewNoisySearcher(exact *hdc.ShardedSearcher, model NoisyModel, seed int64) *NoisySearcher {
	return &NoisySearcher{Exact: exact, Model: model, rng: rand.New(rand.NewSource(seed))}
}

// RowsSwept forwards the packed store's sweep counter.
func (s *NoisySearcher) RowsSwept() uint64 { return s.Exact.RowsSwept() }

// simsPool recycles range similarity buffers across queries.
var simsPool = sync.Pool{New: func() any { return new([]int) }}

// noiseSource returns a per-query noise stream seeded from the
// searcher's master RNG under one lock — O(1) master-RNG consumption
// per query, so a batch never materializes per-candidate noise
// buffers up front (a query window can span hundreds of thousands of
// rows) yet stays deterministic per seed regardless of goroutine
// scheduling. Nil for a noiseless model.
func (s *NoisySearcher) noiseSource() *rand.Rand {
	if s.Model.SearchSigma <= 0 {
		return nil
	}
	s.mu.Lock()
	seed := s.rng.Int63()
	s.mu.Unlock()
	return rand.New(rand.NewSource(seed))
}

// Search returns, for every query, the k best matches among packed
// rows ranges[i] (clamped to the reference count) under noisy
// similarity scores, parallel across CPU cores. The rows are
// bulk-scored through the exact engine's blocked kernel and every
// candidate score is perturbed before top-k selection. Per-query noise
// streams are seeded in query order — one master-RNG draw per
// non-empty query — so results are deterministic per seed regardless
// of goroutine scheduling. ctx is checked once, on entry, before any
// noise is drawn: a done ctx returns ctx.Err() and leaves the noise
// stream where it was. tr is accepted for the core.Searcher shape and
// left untouched.
func (s *NoisySearcher) Search(ctx context.Context, queries []hdc.BinaryHV, ranges []hdc.RowRange, k int, _ *obsv.Trace) ([][]hdc.Match, error) {
	if len(ranges) != len(queries) {
		panic(fmt.Sprintf("accel: %d queries with %d ranges", len(queries), len(ranges)))
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out := make([][]hdc.Match, len(queries))
	if k <= 0 {
		return out, nil
	}
	n := s.Exact.Len()
	noise := make([]*rand.Rand, len(queries))
	for i, r := range ranges {
		if r.Clamp(n).Empty() {
			out[i] = []hdc.Match{}
		} else {
			noise[i] = s.noiseSource()
		}
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), len(queries)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(queries); i = int(next.Add(1)) - 1 {
				if r := ranges[i].Clamp(n); !r.Empty() {
					out[i] = s.topKRangeNoise(queries[i], r.Lo, r.Hi, k, noise[i])
				}
			}
		}()
	}
	wg.Wait()
	return out, nil
}

// topKRangeNoise bulk-scores rows [lo, hi) and selects the top k of
// the perturbed scores, drawing one noise value per row from the
// query's noise stream (nil for a noiseless model).
func (s *NoisySearcher) topKRangeNoise(q hdc.BinaryHV, lo, hi, k int, noise *rand.Rand) []hdc.Match {
	bufp := simsPool.Get().(*[]int)
	sims := s.Exact.SimilaritiesRangeInto(q, lo, hi, *bufp)
	best := make([]hdc.Match, 0, k)
	for j, sim := range sims {
		v := float64(sim)
		if noise != nil {
			v += noise.NormFloat64() * s.Model.SearchSigma
		}
		best = insertTopK(best, hdc.Match{Index: lo + j, Similarity: int(math.Round(v))}, k)
	}
	*bufp = sims
	simsPool.Put(bufp)
	return best
}

// insertTopK inserts m into the sorted top-k slice, keeping at most k
// entries ordered by descending similarity, ties by ascending index.
func insertTopK(best []hdc.Match, m hdc.Match, k int) []hdc.Match {
	pos := len(best)
	for pos > 0 {
		b := best[pos-1]
		if b.Similarity > m.Similarity ||
			(b.Similarity == m.Similarity && b.Index < m.Index) {
			break
		}
		pos--
	}
	if pos >= k {
		return best
	}
	best = append(best, hdc.Match{})
	copy(best[pos+1:], best[pos:])
	best[pos] = m
	if len(best) > k {
		best = best[:k]
	}
	return best
}

// String formats the model for reports.
func (m NoisyModel) String() string {
	return fmt.Sprintf("NoisyModel{encodeBER=%.4f, searchSigma=%.1f}", m.EncodeBER, m.SearchSigma)
}
