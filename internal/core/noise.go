package core

import (
	"context"
	"math"
	"math/rand"
	"sync"

	"repro/internal/hdc"
)

// noise is the chip's characterized error model applied to an exact
// engine's data, the paper's methodology (chip characterized once in
// §5.2, robustness evaluated with injected errors in §5.3): bit flips
// on every encoding and Gaussian noise on every similarity score before
// top-k selection. Each seeded stream draws in a fixed order — the
// library's flips in build order, then each query's as it is encoded;
// one score seed per non-empty query per sweep, in query order — so
// results are reproducible per seed at any GOMAXPROCS.
type noise struct {
	spec  NoiseSpec
	mu    sync.Mutex
	enc   *rand.Rand
	score *rand.Rand
}

// newNoise seeds the encoding stream from spec.Seed and the score
// stream from spec.Seed+2 (spec.Seed+1 drives the storage errors).
func newNoise(spec NoiseSpec) *noise {
	return &noise{
		spec:  spec,
		enc:   rand.New(rand.NewSource(spec.Seed)),
		score: rand.New(rand.NewSource(spec.Seed + 2)),
	}
}

// flip flips an exact encoding's bits in place at the encoding
// bit-error rate.
func (n *noise) flip(h hdc.BinaryHV) {
	n.mu.Lock()
	h.FlipBits(n.spec.EncodeBER, n.enc)
	n.mu.Unlock()
}

// search is the noisy form of s.Search, parallel across CPU cores:
// each query's rows (clamped to the store) are bulk-scored through the
// exact kernel into a pooled buffer and every score is perturbed
// before top-k selection, which the bound-pruned exact sweep cannot
// do. A non-empty query's noise comes from its own stream, seeded by
// one master draw in query order, so no batch materializes
// per-candidate noise up front. ctx is checked once, before any draw.
// The one store BuildNoisy packs hides no rows.
func (n *noise) search(ctx context.Context, s *hdc.ShardedSearcher, queries []hdc.BinaryHV, ranges []hdc.RowRange, k int) ([][]hdc.Match, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out := make([][]hdc.Match, len(queries))
	sources := make([]*rand.Rand, len(queries))
	n.mu.Lock()
	for i, r := range ranges {
		if r.Clamp(s.Len()).Empty() {
			out[i] = []hdc.Match{}
		} else if n.spec.SearchSigma > 0 {
			sources[i] = rand.New(rand.NewSource(n.score.Int63()))
		}
	}
	n.mu.Unlock()
	_ = hdc.ForEach(len(queries), false, func(i int) error { // never fails
		if r := ranges[i].Clamp(s.Len()); !r.Empty() {
			sims := simsPool.Get().(*[]int)
			*sims = s.SimilaritiesRangeInto(queries[i], r.Lo, r.Hi, *sims)
			out[i] = n.topK(*sims, r.Lo, k, sources[i])
			simsPool.Put(sims)
		}
		return nil
	})
	return out, nil
}

// simsPool holds the noisy search's score buffers.
var simsPool = sync.Pool{New: func() any { return new([]int) }}

// topK perturbs the scores of rows lo, lo+1, … in place, in row order,
// each by one draw from src (nil for a noiseless model), and selects
// their k best.
func (n *noise) topK(sims []int, lo, k int, src *rand.Rand) []hdc.Match {
	if src != nil {
		for j, sim := range sims {
			sims[j] = int(math.Round(float64(sim) + src.NormFloat64()*n.spec.SearchSigma))
		}
	}
	return hdc.TopK(sims, lo, k)
}
