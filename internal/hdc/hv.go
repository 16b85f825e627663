// Package hdc implements the hyperdimensional computing core of the
// paper (§3): packed bipolar hypervectors, multi-bit ID item memories,
// flip-based and chunked level hypervector sets, the ID-Level encoder
// (Eq. 1), Hamming similarity search and bit-error injection used by
// the robustness experiments.
//
// Hypervectors are conceptually bipolar vectors in {-1,+1}^D but are
// stored packed, one bit per dimension (bit set = +1), so Hamming
// similarity reduces to XOR + popcount over 64-dimension words.
//
// Search has one entry point, mirroring the accelerator's one
// primitive: ShardedSearcher.Search sweeps a batch of queries, each
// over a contiguous range of packed rows, block-major through one
// kernel. A single query is a batch of one, a full scan the range
// [0, Len()), an untraced search a nil trace.
package hdc

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
)

// BinaryHV is a packed bipolar hypervector of dimension D.
// Bit i set means component i is +1; clear means -1.
type BinaryHV struct {
	// D is the hypervector dimensionality.
	D int
	// Words is the packed bit storage, ceil(D/64) words; unused high
	// bits of the last word are always zero.
	Words []uint64
}

// WordsPerHV returns the packed word count of a D-dimensional
// hypervector: ceil(d/64). It is the row stride of every packed
// hypervector store (BinaryHV.Words, a library's rows, the on-disk
// library index).
func WordsPerHV(d int) int { return (d + 63) / 64 }

// NewBinaryHV returns an all -1 (all bits clear) hypervector.
func NewBinaryHV(d int) BinaryHV {
	if d <= 0 {
		panic(fmt.Sprintf("hdc: non-positive dimension %d", d))
	}
	return BinaryHV{D: d, Words: make([]uint64, WordsPerHV(d))}
}

// RandomBinaryHV returns a uniformly random hypervector.
func RandomBinaryHV(d int, rng *rand.Rand) BinaryHV {
	h := NewBinaryHV(d)
	for i := range h.Words {
		h.Words[i] = rng.Uint64()
	}
	h.maskTail()
	return h
}

// maskTail clears bits beyond D in the final word, preserving the
// invariant relied on by popcount-based similarity.
func (h BinaryHV) maskTail() {
	if rem := h.D % 64; rem != 0 && len(h.Words) > 0 {
		h.Words[len(h.Words)-1] &= (1 << uint(rem)) - 1
	}
}

// Bit returns component i as +1 or -1.
func (h BinaryHV) Bit(i int) int {
	if h.Words[i/64]>>(uint(i)%64)&1 == 1 {
		return 1
	}
	return -1
}

// SetBit sets component i to +1 (v true) or -1 (v false).
func (h BinaryHV) SetBit(i int, v bool) {
	if v {
		h.Words[i/64] |= 1 << (uint(i) % 64)
	} else {
		h.Words[i/64] &^= 1 << (uint(i) % 64)
	}
}

// Clone returns a deep copy.
func (h BinaryHV) Clone() BinaryHV {
	w := make([]uint64, len(h.Words))
	copy(w, h.Words)
	return BinaryHV{D: h.D, Words: w}
}

// Equal reports whether two hypervectors are identical.
func (h BinaryHV) Equal(o BinaryHV) bool {
	if h.D != o.D {
		return false
	}
	for i := range h.Words {
		if h.Words[i] != o.Words[i] {
			return false
		}
	}
	return true
}

// PopCount returns the number of +1 components.
func (h BinaryHV) PopCount() int {
	var c int
	for _, w := range h.Words {
		c += bits.OnesCount64(w)
	}
	return c
}

// HammingDistance returns the number of differing components.
func HammingDistance(a, b BinaryHV) int {
	if a.D != b.D {
		panic(fmt.Sprintf("hdc: dimension mismatch %d vs %d", a.D, b.D))
	}
	var d int
	for i := range a.Words {
		d += bits.OnesCount64(a.Words[i] ^ b.Words[i])
	}
	return d
}

// Dot returns the bipolar dot product in [-D, D]:
// D - 2*HammingDistance.
func Dot(a, b BinaryHV) int {
	return a.D - 2*HammingDistance(a, b)
}

// FlipBits flips each component independently with probability rate,
// returning the number of flipped bits. It models storage/compute bit
// errors in the robustness experiments (Fig. 11). The flip positions
// are drawn by geometric skip sampling — O(expected flips) work
// instead of one uniform draw per dimension — and are deterministic
// for a given rng seed.
func (h BinaryHV) FlipBits(rate float64, rng *rand.Rand) int {
	if rate <= 0 {
		return 0
	}
	if rate >= 1 {
		for i := range h.Words {
			h.Words[i] = ^h.Words[i]
		}
		h.maskTail()
		return h.D
	}
	// The gap between consecutive flips is Geometric(rate):
	// P(skip = j) = (1-rate)^j * rate, sampled as
	// floor(log(U) / log(1-rate)) with U uniform on (0, 1].
	lnKeep := math.Log1p(-rate)
	flipped := 0
	for i := 0; ; i++ {
		skip := math.Log(1-rng.Float64()) / lnKeep
		if skip >= float64(h.D-i) {
			break
		}
		i += int(skip)
		h.Words[i/64] ^= 1 << (uint(i) % 64)
		flipped++
	}
	return flipped
}

// FlipExact flips exactly n distinct random components.
func (h BinaryHV) FlipExact(n int, rng *rand.Rand) {
	if n <= 0 {
		return
	}
	if n >= h.D {
		for i := range h.Words {
			h.Words[i] = ^h.Words[i]
		}
		h.maskTail()
		return
	}
	perm := rng.Perm(h.D)
	for _, i := range perm[:n] {
		h.Words[i/64] ^= 1 << (uint(i) % 64)
	}
}

// Ints unpacks the hypervector into a bipolar int8 slice (for tests
// and for feeding the crossbar simulator).
func (h BinaryHV) Ints() []int8 {
	out := make([]int8, h.D)
	for i := 0; i < h.D; i++ {
		out[i] = int8(h.Bit(i))
	}
	return out
}

// String summarizes the hypervector.
func (h BinaryHV) String() string {
	return fmt.Sprintf("BinaryHV{D=%d, +1s=%d}", h.D, h.PopCount())
}

// IntHV is an unpacked small-integer hypervector used for multi-bit
// ID hypervectors (§4.2.2): components take values in
// {-2^(p-1), …, -1, +1, …, +2^(p-1)} for precision p bits.
type IntHV struct {
	// Vals are the component values.
	Vals []int8
}

// D returns the dimensionality.
func (h IntHV) D() int { return len(h.Vals) }

// clampPrecision bounds an ID precision to the supported 1–3 bits.
func clampPrecision(precision int) int {
	return min(max(precision, 1), 3)
}

// maxMagnitude returns the largest representable magnitude for an ID
// precision in bits.
func maxMagnitude(precision int) int {
	return 1 << (clampPrecision(precision) - 1)
}
