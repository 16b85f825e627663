package hdc

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestNewBinaryHVAllMinusOne(t *testing.T) {
	h := NewBinaryHV(100)
	if h.PopCount() != 0 {
		t.Errorf("fresh HV popcount = %d", h.PopCount())
	}
	for i := 0; i < 100; i++ {
		if h.Bit(i) != -1 {
			t.Fatalf("bit %d = %d, want -1", i, h.Bit(i))
		}
	}
}

func TestNewBinaryHVPanicsOnBadDim(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for D=0")
		}
	}()
	NewBinaryHV(0)
}

func TestSetBitGetBit(t *testing.T) {
	h := NewBinaryHV(130)
	h.SetBit(0, true)
	h.SetBit(64, true)
	h.SetBit(129, true)
	if h.Bit(0) != 1 || h.Bit(64) != 1 || h.Bit(129) != 1 {
		t.Error("set bits not readable")
	}
	if h.Bit(1) != -1 || h.Bit(65) != -1 {
		t.Error("unset bits wrong")
	}
	h.SetBit(64, false)
	if h.Bit(64) != -1 {
		t.Error("clear failed")
	}
	if h.PopCount() != 2 {
		t.Errorf("popcount = %d", h.PopCount())
	}
}

func TestRandomBinaryHVTailMasked(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	h := RandomBinaryHV(70, rng) // 6 bits used in word 1
	if h.Words[1]>>6 != 0 {
		t.Error("tail bits not masked")
	}
	// PopCount near D/2.
	sum := 0
	for i := 0; i < 200; i++ {
		sum += RandomBinaryHV(1000, rng).PopCount()
	}
	mean := float64(sum) / 200
	if mean < 470 || mean > 530 {
		t.Errorf("mean popcount = %v, want ~500", mean)
	}
}

func TestHammingDistanceAndSimilarity(t *testing.T) {
	a := NewBinaryHV(128)
	b := NewBinaryHV(128)
	if HammingDistance(a, b) != 0 || hammingSimilarity(a, b) != 128 {
		t.Error("identical HVs")
	}
	b.SetBit(3, true)
	b.SetBit(100, true)
	if HammingDistance(a, b) != 2 {
		t.Errorf("distance = %d", HammingDistance(a, b))
	}
	if hammingSimilarity(a, b) != 126 {
		t.Errorf("similarity = %d", hammingSimilarity(a, b))
	}
	if Dot(a, b) != 128-4 {
		t.Errorf("dot = %d", Dot(a, b))
	}
}

func TestHammingDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on dimension mismatch")
		}
	}()
	HammingDistance(NewBinaryHV(64), NewBinaryHV(65))
}

func TestDotMatchesUnpackedProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 65 + rng.Intn(400)
		a := RandomBinaryHV(d, rng)
		b := RandomBinaryHV(d, rng)
		want := 0
		for i := 0; i < d; i++ {
			want += a.Bit(i) * b.Bit(i)
		}
		return Dot(a, b) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCloneIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := RandomBinaryHV(128, rng)
	b := a.Clone()
	if !slices.Equal(a.Words, b.Words) {
		t.Fatal("clone not equal")
	}
	b.SetBit(0, b.Bit(0) < 0)
	if slices.Equal(a.Words, b.Words) {
		t.Error("clone shares storage")
	}
}

func TestFlipBitsRate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	h := NewBinaryHV(10000)
	orig := h.Clone()
	n := h.FlipBits(0.1, rng)
	if d := HammingDistance(h, orig); d != n {
		t.Errorf("reported %d flips, actual distance %d", n, d)
	}
	if n < 800 || n > 1200 {
		t.Errorf("flips = %d, want ~1000", n)
	}
	if h.FlipBits(0, rng) != 0 {
		t.Error("rate 0 flipped bits")
	}
}

// TestFlipBitsDeterministicPerSeed is the regression test for the
// geometric-skip rewrite: the Fig. 11 robustness sweeps require the
// same seed to flip the same bits on every run.
func TestFlipBitsDeterministicPerSeed(t *testing.T) {
	for _, rate := range []float64{0.001, 0.05, 0.5} {
		a := NewBinaryHV(4096)
		b := NewBinaryHV(4096)
		na := a.FlipBits(rate, rand.New(rand.NewSource(99)))
		nb := b.FlipBits(rate, rand.New(rand.NewSource(99)))
		if na != nb || !slices.Equal(a.Words, b.Words) {
			t.Errorf("rate %g: same seed gave different flips (%d vs %d)", rate, na, nb)
		}
	}
}

// TestFlipBitsEdgeRates covers the rate >= 1 fast path and the tail
// mask invariant after flipping a non-word-aligned dimension.
func TestFlipBitsEdgeRates(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	h := RandomBinaryHV(100, rng) // D % 64 != 0
	orig := h.Clone()
	if n := h.FlipBits(1.0, rng); n != 100 {
		t.Errorf("rate 1 flipped %d bits, want 100", n)
	}
	if d := HammingDistance(h, orig); d != 100 {
		t.Errorf("rate 1 distance = %d, want 100", d)
	}
	if h.Words[len(h.Words)-1]>>(100%64) != 0 {
		t.Error("tail bits beyond D were set")
	}
	// A tiny rate on a small vector must terminate and usually flip
	// nothing; every flip it does make must land inside [0, D).
	h2 := NewBinaryHV(65)
	n := h2.FlipBits(1e-9, rng)
	if d := HammingDistance(h2, NewBinaryHV(65)); d != n {
		t.Errorf("reported %d flips, distance %d", n, d)
	}
	if h2.Words[1]>>1 != 0 {
		t.Error("flip escaped the dimension range")
	}
}

func TestRandomIntHVPrecisionRanges(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for p := 1; p <= 3; p++ {
		maxMag := maxMagnitude(p)
		h := randomIntHV(2000, p, rng)
		sawMax := false
		for _, v := range h.Vals {
			if v == 0 {
				t.Fatalf("precision %d produced zero component", p)
			}
			if int(v) > maxMag || int(v) < -maxMag {
				t.Fatalf("precision %d component %d out of range", p, v)
			}
			if int(v) == maxMag || int(v) == -maxMag {
				sawMax = true
			}
		}
		if !sawMax {
			t.Errorf("precision %d never used max magnitude", p)
		}
	}
}

func TestMaxMagnitudeClamps(t *testing.T) {
	if maxMagnitude(0) != 1 || maxMagnitude(5) != 4 {
		t.Error("precision clamping wrong")
	}
	if maxMagnitude(1) != 1 || maxMagnitude(2) != 2 || maxMagnitude(3) != 4 {
		t.Error("magnitudes wrong")
	}
}

func TestSignQuantization(t *testing.T) {
	acc := []int32{5, -3, 0, 0, 7, -1}
	h := sign(acc)
	if h.Bit(0) != 1 || h.Bit(1) != -1 || h.Bit(4) != 1 || h.Bit(5) != -1 {
		t.Error("sign of nonzero entries wrong")
	}
	// Ties: deterministic by index parity.
	if h.Bit(2) != 1 || h.Bit(3) != -1 {
		t.Error("tie-break not deterministic")
	}
}

func TestOrthogonalityOfRandomHVs(t *testing.T) {
	// Random hypervectors must be near-orthogonal: |dot| << D.
	rng := rand.New(rand.NewSource(7))
	d := 8192
	a := RandomBinaryHV(d, rng)
	b := RandomBinaryHV(d, rng)
	dot := math.Abs(float64(Dot(a, b)))
	// 6 sigma of binomial: 6*sqrt(D) ≈ 543.
	if dot > 6*math.Sqrt(float64(d)) {
		t.Errorf("random HVs not orthogonal: |dot| = %v", dot)
	}
}

// Test references: the scalar forms the kernels and the item memory
// are checked against.

// hammingSimilarity returns the number of equal components, the score
// the paper's in-memory search computes (§3.3): equivalently the
// bipolar dot product shifted into [0, D].
func hammingSimilarity(a, b BinaryHV) int {
	return a.D - HammingDistance(a, b)
}

// randomIntHV draws a random multi-bit hypervector of the given
// precision (1, 2 or 3 bits). Precision 1 gives bipolar {-1, +1}.
// Two rng calls per component, magnitude then sign: the draw order
// NewItemMemory reproduces and every stored index depends on.
func randomIntHV(d, precision int, rng *rand.Rand) IntHV {
	vals := make([]int8, d)
	maxMag := maxMagnitude(precision)
	for i := range vals {
		mag := int8(rng.Intn(maxMag) + 1)
		vals[i] = mag * int8(2*rng.Intn(2)-1) // branch-free: the sign is a coin flip
	}
	return IntHV{Vals: vals}
}

// sign quantizes an accumulator slice to a packed BinaryHV with the
// Sign() function of Eq. 1. Zero accumulator entries resolve by the
// tie-break bit of the dimension index, keeping encoding deterministic
// without biasing the hyperspace.
func sign(acc []int32) BinaryHV {
	h := NewBinaryHV(len(acc))
	for i, v := range acc {
		switch {
		case v > 0:
			h.SetBit(i, true)
		case v == 0 && i%2 == 0:
			h.SetBit(i, true)
		}
	}
	return h
}
