package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/hdc"
	"repro/internal/spectrum"
)

// smallEncoder is an exact encoder at a small operating point.
func smallEncoder(t *testing.T) (*hdc.Encoder, OperatingPoint) {
	t.Helper()
	cfg := DefaultOperatingPoint()
	cfg.D = 512
	cfg.NumBins = 200
	cfg.NumChunks = 64
	enc, err := NewEncoder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return enc, cfg
}

func randomPeaks(rng *rand.Rand, n, bins, q int) []spectrum.QuantizedPeak {
	peaks := make([]spectrum.QuantizedPeak, n)
	for i := range peaks {
		peaks[i] = spectrum.QuantizedPeak{Bin: rng.Intn(bins), Level: rng.Intn(q)}
	}
	return peaks
}

func TestNoisyEncoderFlipRate(t *testing.T) {
	ideal, cfg := smallEncoder(t)
	nz := newNoise(NoiseSpec{EncodeBER: 0.1, Seed: 1})
	rng := rand.New(rand.NewSource(2))
	var flipped, total int
	for trial := 0; trial < 30; trial++ {
		clean, err := ideal.Encode(randomPeaks(rng, 50, cfg.NumBins, cfg.Q))
		if err != nil {
			t.Fatal(err)
		}
		noisy := clean.Clone()
		nz.flip(noisy)
		flipped += hdc.HammingDistance(noisy, clean)
		total += cfg.D
	}
	rate := float64(flipped) / float64(total)
	if math.Abs(rate-0.1) > 0.02 {
		t.Errorf("observed flip rate %v, want ~0.1", rate)
	}
}

// TestNoisyEncoderZeroBERIsExact: at zero BER a flip changes no bit
// and draws nothing from the encoding stream.
func TestNoisyEncoderZeroBERIsExact(t *testing.T) {
	ideal, cfg := smallEncoder(t)
	nz := newNoise(NoiseSpec{Seed: 1})
	clean, err := ideal.Encode(randomPeaks(rand.New(rand.NewSource(3)), 40, cfg.NumBins, cfg.Q))
	if err != nil {
		t.Fatal(err)
	}
	h := clean.Clone()
	nz.flip(h)
	if !slices.Equal(h.Words, clean.Words) {
		t.Error("zero-BER flip diverged from the exact encoding")
	}
	if got, want := nz.enc.Int63(), rand.New(rand.NewSource(1)).Int63(); got != want {
		t.Error("zero-BER flip drew from the encoding stream")
	}
}

// randomStore packs n random D-bit references at the given shard size.
func randomStore(t *testing.T, rng *rand.Rand, n, d, shard int) (*hdc.ShardedSearcher, []hdc.BinaryHV) {
	t.Helper()
	refs := make([]hdc.BinaryHV, n)
	for i := range refs {
		refs[i] = hdc.RandomBinaryHV(d, rng)
	}
	s, err := hdc.NewShardedSearcher(d, shard, nil, nil, hdc.PackRows(refs))
	if err != nil {
		t.Fatal(err)
	}
	return s, refs
}

// exactSweep is an untraced exact Search under context.Background(),
// which never stops it.
func exactSweep(s *hdc.ShardedSearcher, queries []hdc.BinaryHV, ranges []hdc.RowRange, k int) [][]hdc.Match {
	out, err := s.Search(context.Background(), queries, ranges, k, nil)
	if err != nil {
		panic(err)
	}
	return out
}

// noisySweep is the noisy Search under context.Background().
func noisySweep(nz *noise, s *hdc.ShardedSearcher, queries []hdc.BinaryHV, ranges []hdc.RowRange, k int) [][]hdc.Match {
	out, err := nz.search(context.Background(), s, queries, ranges, k)
	if err != nil {
		panic(err)
	}
	return out
}

func TestNoisySearcherDegradesRanking(t *testing.T) {
	// With enormous noise, the planted best match should often lose.
	s, refs := randomStore(t, rand.New(rand.NewSource(6)), 50, 512, 0)
	nz := newNoise(NoiseSpec{SearchSigma: 200, Seed: 7})
	losses := 0
	for trial := 0; trial < 30; trial++ {
		q := refs[trial%50].Clone()
		top := noisySweep(nz, s, []hdc.BinaryHV{q}, []hdc.RowRange{{Lo: 0, Hi: 50}}, 1)[0]
		if top[0].Index != trial%50 {
			losses++
		}
	}
	if losses == 0 {
		t.Error("huge noise never changed the winner; noise not applied?")
	}
}

// TestNoisySearcherRangeZeroSigmaParity checks the bulk range path:
// with a noiseless model, a batch of one and a whole batch must match
// the exact sweep's results bit for bit, including clamping and empty
// ranges.
func TestNoisySearcherRangeZeroSigmaParity(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	s, _ := randomStore(t, rng, 60, 256, 16)
	nz := newNoise(NoiseSpec{Seed: 15})
	q := hdc.RandomBinaryHV(256, rng)
	for _, r := range []hdc.RowRange{{Lo: 0, Hi: 60}, {Lo: 10, Hi: 30}, {Lo: -5, Hi: 20}, {Lo: 50, Hi: 90}, {Lo: 25, Hi: 25}} {
		one := []hdc.BinaryHV{q}
		ranges := []hdc.RowRange{r}
		sameMatches(t, noisySweep(nz, s, one, ranges, 5), exactSweep(s, one, ranges, 5))
	}
	queries := []hdc.BinaryHV{q, hdc.RandomBinaryHV(256, rng), q}
	ranges := []hdc.RowRange{{Lo: 5, Hi: 40}, {Lo: 0, Hi: 60}, {Lo: 33, Hi: 33}}
	sameMatches(t, noisySweep(nz, s, queries, ranges, 4), exactSweep(s, queries, ranges, 4))
}

// noisyBatch is a batch of 16 queries over an 80-row store, each with
// its own window.
func noisyBatch(t *testing.T, seed int64) (*hdc.ShardedSearcher, []hdc.BinaryHV, []hdc.RowRange) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	s, _ := randomStore(t, rng, 80, 512, 0)
	queries := make([]hdc.BinaryHV, 16)
	ranges := make([]hdc.RowRange, 16)
	for i := range queries {
		queries[i] = hdc.RandomBinaryHV(512, rng)
		ranges[i] = hdc.RowRange{Lo: i, Hi: 40 + i*2}
	}
	return s, queries, ranges
}

// TestNoisySearcherBatchRangeDeterministic asserts the batch range
// path draws per-query noise in query order: two models with the same
// seed must agree regardless of goroutine scheduling.
func TestNoisySearcherBatchRangeDeterministic(t *testing.T) {
	s, queries, ranges := noisyBatch(t, 16)
	spec := NoiseSpec{SearchSigma: 30, Seed: 99}
	sameMatches(t, noisySweep(newNoise(spec), s, queries, ranges, 3), noisySweep(newNoise(spec), s, queries, ranges, 3))
}

// TestCancelDrawsNoNoise pins that the noisy search checks its context
// before drawing noise: a call under a done context returns its error,
// and the next call draws what a fresh model with the same seed draws.
func TestCancelDrawsNoNoise(t *testing.T) {
	s, queries, ranges := noisyBatch(t, 17)
	spec := NoiseSpec{SearchSigma: 30, Seed: 7}
	nz := newNoise(spec)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if out, err := nz.search(ctx, s, queries, ranges, 3); !errors.Is(err, context.Canceled) || out != nil {
		t.Fatalf("canceled: got %d lists, err %v; want none and context.Canceled", len(out), err)
	}
	sameMatches(t, noisySweep(nz, s, queries, ranges, 3), noisySweep(newNoise(spec), s, queries, ranges, 3))
}

// sameMatches fails unless two batches of match lists are equal.
func sameMatches(t *testing.T, a, b [][]hdc.Match) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%d vs %d lists", len(a), len(b))
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatalf("query %d: %d vs %d results", i, len(a[i]), len(b[i]))
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Errorf("query %d result %d: %+v vs %+v", i, j, a[i][j], b[i][j])
			}
		}
	}
}
