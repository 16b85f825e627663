package hdc

import (
	"math/rand"
	"slices"
	"testing"
)

// permuteBitsRef is the bit-by-bit gather PermuteBits replaced, kept as
// its reference.
func permuteBitsRef(hv BinaryHV, perm []int) BinaryHV {
	out := NewBinaryHV(hv.D)
	for j, p := range perm {
		if hv.Bit(p) == 1 {
			out.SetBit(j, true)
		}
	}
	return out
}

// columnOnesRef is the per-Bit() counting loop columnOnes' vertical
// counter replaced, kept as its reference.
func columnOnesRef(hvs []BinaryHV, d int) []int {
	ones := make([]int, d)
	for _, hv := range hvs {
		for j := 0; j < d; j++ {
			if hv.Bit(j) == 1 {
				ones[j]++
			}
		}
	}
	return ones
}

// checkPermuteBits holds PermuteBits to the reference for one vector
// and bijection, and the result's bits past D to zero.
func checkPermuteBits(t testing.TB, hv BinaryHV, perm []int) {
	t.Helper()
	got, want := PermuteBits(hv, perm), permuteBitsRef(hv, perm)
	if got.D != want.D || !slices.Equal(got.Words, want.Words) {
		t.Fatalf("D=%d: PermuteBits\n%x, reference\n%x", hv.D, got.Words, want.Words)
	}
	if rem := hv.D % 64; rem != 0 && got.Words[len(got.Words)-1]>>uint(rem) != 0 {
		t.Fatalf("D=%d: bits set past D in the last word %#x", hv.D, got.Words[len(got.Words)-1])
	}
}

func TestPermuteBitsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, d := range []int{1, 63, 64, 65, 1000, 2048, 8192} {
		identity, reversal := make([]int, d), make([]int, d)
		for j := range identity {
			identity[j], reversal[j] = j, d-1-j
		}
		ones := NewBinaryHV(d)
		for j := 0; j < d; j++ {
			ones.SetBit(j, true)
		}
		for _, hv := range []BinaryHV{RandomBinaryHV(d, rng), NewBinaryHV(d), ones} {
			checkPermuteBits(t, hv, identity)
			checkPermuteBits(t, hv, reversal)
			for trial := 0; trial < 3; trial++ {
				checkPermuteBits(t, hv, rng.Perm(d))
			}
		}
		hv := RandomBinaryHV(d, rng)
		if got := PermuteBits(hv, identity); !got.Equal(hv) {
			t.Fatalf("D=%d: the identity permutation moved bits", d)
		}
	}
}

// FuzzPermuteBits lets the fuzzer pick the dimension, the vector and
// the bijection.
func FuzzPermuteBits(f *testing.F) {
	f.Add(int64(1), uint16(1))
	f.Add(int64(2), uint16(64))
	f.Add(int64(3), uint16(65))
	f.Add(int64(4), uint16(2047))
	f.Fuzz(func(t *testing.T, seed int64, d uint16) {
		rng := rand.New(rand.NewSource(seed))
		dim := 1 + int(d)%4096
		checkPermuteBits(t, RandomBinaryHV(dim, rng), rng.Perm(dim))
	})
}

func TestEntropyPermutationMatchesReference(t *testing.T) {
	// columnSet builds n rows of dimension d whose column j is one in
	// exactly ones(j, n) of them (a shuffled subset, so the counter sees
	// the ones in no particular order).
	rng := rand.New(rand.NewSource(29))
	columnSet := func(d, n int, ones func(j, n int) int) []BinaryHV {
		hvs := make([]BinaryHV, n)
		for i := range hvs {
			hvs[i] = NewBinaryHV(d)
		}
		for j := 0; j < d; j++ {
			for _, i := range rng.Perm(n)[:ones(j, n)] {
				hvs[i].SetBit(j, true)
			}
		}
		return hvs
	}
	// All-zero and all-one columns, a balance and its complement (equal
	// entropy from different counts) and a repeated count (equal entropy,
	// ordered by index).
	steps := func(j, n int) int { return []int{0, n, n / 2, n / 5, n - n/5, n / 2, n / 3}[j%7] }
	cases := []struct {
		name string
		hvs  []BinaryHV
	}{
		{"random/D2048", randomRefs(2048, 300, 31)},
		{"steps/D1000", columnSet(1000, 200, steps)},
		{"steps/D65", columnSet(65, 64, steps)},
		{"one-row/D63", columnSet(63, 1, steps)},
		{"all-ones/D130", columnSet(130, 50, func(_, n int) int { return n })},
		// More rows than the 16-plane counter holds between spills, with
		// columns that are one in every one of them.
		{"spill/D70", columnSet(70, 2*65535+17, steps)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			// The counts are all that changed — and are the stricter check:
			// a count and its complement score the same entropy.
			d := c.hvs[0].D
			want := columnOnesRef(c.hvs, d)
			if got := columnOnes(c.hvs, d); !slices.Equal(got, want) {
				t.Fatalf("column counts diverged from the per-Bit() counter:\ngot  %v\nwant %v", got, want)
			}
			// The permutation sorts them by entropy, ties by index.
			perm := EntropyPermutation(c.hvs)
			if err := ValidatePermutation(perm, d); err != nil {
				t.Fatal(err)
			}
			h := func(j int) float64 { return binaryEntropy(float64(want[j]) / float64(len(c.hvs))) }
			for j := 1; j < d; j++ {
				if a, b := perm[j-1], perm[j]; h(a) < h(b) || h(a) == h(b) && a > b {
					t.Fatalf("positions %d, %d hold dimensions %d (H=%g), %d (H=%g): not entropy-descending, index-ascending", j-1, j, a, h(a), b, h(b))
				}
			}
		})
	}
	if EntropyPermutation(nil) != nil {
		t.Fatal("empty set: want a nil permutation")
	}
}
