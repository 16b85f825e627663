package hdc

import (
	"fmt"

	"repro/internal/spectrum"
)

// This file provides the remaining standard hyperdimensional algebra
// operations beyond what the ID-Level encoder needs directly: bundling
// (majority), binding (XOR), and permutation (rotation). They round
// out the public HD API so downstream users can build other HD
// applications on the same hypervector type — the paper's conclusion
// notes the techniques generalize beyond mass spectrometry.

// Bind returns the component-wise product of two bipolar hypervectors
// (XOR in packed form). Binding is its own inverse:
// Bind(Bind(a,b), b) == a.
func Bind(a, b BinaryHV) BinaryHV {
	if a.D != b.D {
		panic(fmt.Sprintf("hdc: bind dimension mismatch %d vs %d", a.D, b.D))
	}
	// Bipolar multiply: (+1,+1)->+1, (-1,-1)->+1, mixed->-1.
	// In packed form that is XNOR; with bit=+1 convention, XOR gives
	// the wrong polarity, so complement and re-mask.
	out := NewBinaryHV(a.D)
	for i := range out.Words {
		out.Words[i] = ^(a.Words[i] ^ b.Words[i])
	}
	out.maskTail()
	return out
}

// Bundle returns the majority vote of the hypervectors: component i of
// the result is +1 when more inputs have +1 than -1 at i. Ties (even
// input counts) resolve by the deterministic index-parity rule used by
// Sign. Panics on empty input or mixed dimensions.
func Bundle(hvs ...BinaryHV) BinaryHV {
	if len(hvs) == 0 {
		panic("hdc: bundle of no hypervectors")
	}
	out := NewBinaryHV(hvs[0].D)
	// A bundle is the ID-Level encode of one 1-bit all-(+1) ID under
	// each input as its level: products 0 and 2, so delta bit 1 is set.
	groups := groupsPerHV(len(out.Words))
	planes := make([]uint64, groups*idGroupWords)
	for w := 0; w < groups*groupWords; w++ {
		planes[planeWord(groups, 0, w, idPlanes/2+1)] = ^uint64(0)
	}
	lv := make([]uint64, len(hvs)*groups*groupWords)
	peaks := make([]spectrum.QuantizedPeak, len(hvs))
	for i, h := range hvs {
		if h.D != out.D {
			panic(fmt.Sprintf("hdc: bundle dimension mismatch %d vs %d", h.D, out.D))
		}
		copy(lv[i*groups*groupWords:], h.Words)
		peaks[i].Level = i
	}
	signedSumWords(out.Words, planes, lv, 1, peaks)
	out.maskTail()
	return out
}

// Permute rotates the hypervector's components by k positions
// (component i of the result is component (i-k) mod D of the input).
// Permutation preserves pairwise distances and is used to encode
// sequence positions in HD architectures.
func Permute(h BinaryHV, k int) BinaryHV {
	d := h.D
	k %= d
	if k < 0 {
		k += d
	}
	out := NewBinaryHV(d)
	for i := 0; i < d; i++ {
		src := i - k
		if src < 0 {
			src += d
		}
		if h.Bit(src) > 0 {
			out.SetBit(i, true)
		}
	}
	return out
}

// SimilarityProfile returns the Hamming similarity of the query to
// every reference, as fractions of D in [0, 1]. It is the dense form
// of what the in-memory search computes before top-k selection.
func SimilarityProfile(q BinaryHV, refs []BinaryHV) []float64 {
	out := make([]float64, len(refs))
	for i, r := range refs {
		out[i] = float64(HammingSimilarity(q, r)) / float64(q.D)
	}
	return out
}
