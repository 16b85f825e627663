package hdc

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBindSelfInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := RandomBinaryHV(333, rng)
	b := RandomBinaryHV(333, rng)
	if got := Bind(Bind(a, b), b); !got.Equal(a) {
		t.Error("bind is not self-inverse")
	}
}

func TestBindBipolarSemantics(t *testing.T) {
	a := NewBinaryHV(4)
	b := NewBinaryHV(4)
	a.SetBit(0, true) // a = +1 -1 -1 -1
	b.SetBit(0, true)
	b.SetBit(1, true) // b = +1 +1 -1 -1
	c := Bind(a, b)
	// products: +1*+1=+1, -1*+1=-1, -1*-1=+1, -1*-1=+1
	want := []int{1, -1, 1, 1}
	for i, w := range want {
		if c.Bit(i) != w {
			t.Errorf("bind bit %d = %d, want %d", i, c.Bit(i), w)
		}
	}
}

func TestBindTailMasked(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := RandomBinaryHV(70, rng)
	b := RandomBinaryHV(70, rng)
	c := Bind(a, b)
	if c.Words[1]>>6 != 0 {
		t.Error("bind left tail bits set")
	}
}

func TestBindDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Bind(NewBinaryHV(64), NewBinaryHV(65))
}

func TestBindPreservesOrthogonality(t *testing.T) {
	// Binding with a common key preserves pairwise distance.
	rng := rand.New(rand.NewSource(3))
	a := RandomBinaryHV(2048, rng)
	b := RandomBinaryHV(2048, rng)
	key := RandomBinaryHV(2048, rng)
	if HammingDistance(a, b) != HammingDistance(Bind(a, key), Bind(b, key)) {
		t.Error("binding changed pairwise distance")
	}
}

func TestBundleMajority(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := RandomBinaryHV(1024, rng)
	b := RandomBinaryHV(1024, rng)
	c := RandomBinaryHV(1024, rng)
	m := Bundle(a, b, c)
	// The bundle is closer to each constituent than to a random HV.
	r := RandomBinaryHV(1024, rng)
	for name, h := range map[string]BinaryHV{"a": a, "b": b, "c": c} {
		if HammingSimilarity(m, h) <= HammingSimilarity(m, r) {
			t.Errorf("bundle not similar to constituent %s", name)
		}
	}
}

// TestBundleMatchesSignOfSum holds Bundle (which rides the encoder's
// vertical counter, on either kernel) against the per-dimension int32
// majority, for odd and even (tie-producing) input counts, a ragged
// last word and a partial last group.
func TestBundleMatchesSignOfSum(t *testing.T) {
	onBothEncodeKernels(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(8))
		for _, d := range []int{64, 100, 1024, 1536} {
			var hvs []BinaryHV
			acc := make([]int32, d)
			for n := 1; n <= 20; n++ {
				h := RandomBinaryHV(d, rng)
				hvs = append(hvs, h)
				for i := range acc {
					acc[i] += int32(h.Bit(i))
				}
				if got, want := Bundle(hvs...), Sign(acc); !got.Equal(want) {
					t.Fatalf("D=%d n=%d: bundle differs from Sign of the bipolar sum", d, n)
				}
			}
		}
	})
}

func TestBundleSingleIsIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := RandomBinaryHV(256, rng)
	if !Bundle(a).Equal(a) {
		t.Error("bundle of one HV is not the HV itself")
	}
}

func TestBundlePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on empty bundle")
		}
	}()
	Bundle()
}

func TestBundleMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on dimension mismatch")
		}
	}()
	Bundle(NewBinaryHV(64), NewBinaryHV(128))
}

func TestPermuteRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	h := RandomBinaryHV(333, rng)
	if !Permute(Permute(h, 100), -100).Equal(h) {
		t.Error("permute round trip failed")
	}
	if !Permute(h, 0).Equal(h) {
		t.Error("zero shift changed HV")
	}
	if !Permute(h, 333).Equal(h) {
		t.Error("full-cycle shift changed HV")
	}
}

func TestPermuteShiftsBits(t *testing.T) {
	h := NewBinaryHV(8)
	h.SetBit(2, true)
	p := Permute(h, 3)
	if p.Bit(5) != 1 || p.PopCount() != 1 {
		t.Errorf("permute moved bit wrongly: %v", p.Ints())
	}
	w := Permute(h, -2)
	if w.Bit(0) != 1 || w.PopCount() != 1 {
		t.Errorf("negative permute wrong: %v", w.Ints())
	}
}

func TestPermutePreservesDistanceProperty(t *testing.T) {
	f := func(seed int64, shift int16) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 65 + rng.Intn(300)
		a := RandomBinaryHV(d, rng)
		b := RandomBinaryHV(d, rng)
		k := int(shift)
		return HammingDistance(a, b) == HammingDistance(Permute(a, k), Permute(b, k))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPermuteDecorrelates(t *testing.T) {
	// A permuted HV is near-orthogonal to the original.
	rng := rand.New(rand.NewSource(7))
	h := RandomBinaryHV(4096, rng)
	p := Permute(h, 1)
	if sim := HammingSimilarity(h, p); sim > 4096*11/20 {
		t.Errorf("permuted HV too similar: %d", sim)
	}
}

func TestSimilarityProfile(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	refs := []BinaryHV{RandomBinaryHV(512, rng), RandomBinaryHV(512, rng)}
	q := refs[0].Clone()
	prof := SimilarityProfile(q, refs)
	if len(prof) != 2 {
		t.Fatalf("profile length %d", len(prof))
	}
	if prof[0] != 1.0 {
		t.Errorf("self similarity = %v", prof[0])
	}
	if prof[1] < 0.3 || prof[1] > 0.7 {
		t.Errorf("random similarity = %v, want ~0.5", prof[1])
	}
}
