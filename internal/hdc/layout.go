package hdc

import (
	"fmt"
	"math"
	"sort"
)

// Entropy-guided bit layout. The cascade ladder prunes on whatever
// dimensions land in the leading packed words, but the encoder gives
// every dimension the same chance of carrying discriminating
// information — and real spectral libraries do not: dimensions whose
// bit balance across the reference set sits near 1/2 disagree between
// two random references with probability 2p(1-p) ≈ 1/2, while heavily
// skewed dimensions almost always agree and contribute nothing to the
// tier-0 partial distance. Packing the balanced (high-entropy)
// dimensions first raises the expected tier-0 partial of a non-match,
// which tightens the gap to the pruning bound and prunes more rows
// per prefix word. The permutation is a pure relabeling of
// dimensions, applied identically to references at build time and
// queries at prepare time, so every Hamming distance — and therefore
// every search result — is unchanged by construction.

// EntropyPermutation computes a dimension permutation over the
// encoded reference set: dimensions sorted by descending binary
// entropy of their bit balance (ties by ascending original index, so
// the permutation is deterministic and the identity on balance-equal
// prefixes). perm[j] is the original dimension stored at permuted
// position j. All hypervectors must share one dimension; an empty or
// dimensionless set returns nil.
func EntropyPermutation(hvs []BinaryHV) []int {
	if len(hvs) == 0 || hvs[0].D <= 0 {
		return nil
	}
	d := hvs[0].D
	ones := columnOnes(hvs, d)
	n := float64(len(hvs))
	score := make([]float64, d)
	for j := range score {
		p := float64(ones[j]) / n
		score[j] = binaryEntropy(p)
	}
	perm := make([]int, d)
	for j := range perm {
		perm[j] = j
	}
	sort.SliceStable(perm, func(a, b int) bool {
		return score[perm[a]] > score[perm[b]]
	})
	return perm
}

// columnOnes counts, per dimension, the hypervectors whose bit is
// set, 64 dimensions per word-op: a vertical counter per packed word
// (plane k holds bit k of that word's 64 running counts, as in
// signedSumWordsGo) takes each row's word through a half-adder chain
// that stops when the carry dies — two planes on average — and is
// spilled into the counts before its top plane can overflow.
func columnOnes(hvs []BinaryHV, d int) []int {
	const planes = 16
	ones := make([]int, d)
	cnt := make([][planes]uint64, WordsPerHV(d))
	spill := func() {
		for j := range ones {
			c := &cnt[j/64]
			for k := range c {
				ones[j] += int(c[k]>>(uint(j)%64)&1) << k
			}
		}
		clear(cnt)
	}
	for i, hv := range hvs {
		for w, carry := range hv.Words {
			c := &cnt[w]
			for k := 0; carry != 0; k++ {
				c[k], carry = c[k]^carry, c[k]&carry
			}
		}
		if (i+1)%(1<<planes-1) == 0 {
			spill()
		}
	}
	spill()
	return ones
}

// binaryEntropy returns H(p) = -p log2 p - (1-p) log2 (1-p), the
// discrimination score of a dimension with bit balance p (maximal at
// p = 1/2, zero at the degenerate balances).
func binaryEntropy(p float64) float64 {
	if p <= 0 || p >= 1 {
		return 0
	}
	return -p*math.Log2(p) - (1-p)*math.Log2(1-p)
}

// ValidatePermutation checks that perm is a bijection on [0, d): the
// property the layout machinery depends on (a non-bijective
// "permutation" would drop dimensions and silently corrupt every
// distance). The error is descriptive enough to name the first
// offending position.
func ValidatePermutation(perm []int, d int) error {
	if len(perm) != d {
		return fmt.Errorf("hdc: dimension permutation has %d entries, want %d", len(perm), d)
	}
	seen := make([]bool, d)
	for j, p := range perm {
		if p < 0 || p >= d {
			return fmt.Errorf("hdc: dimension permutation is not a bijection: entry %d maps to %d, outside [0, %d)", j, p, d)
		}
		if seen[p] {
			return fmt.Errorf("hdc: dimension permutation is not a bijection: dimension %d appears more than once (second at entry %d)", p, j)
		}
		seen[p] = true
	}
	return nil
}

// IsIdentityPermutation reports whether perm maps every position to
// itself (callers drop identity permutations rather than paying the
// per-query gather for a no-op relabeling).
func IsIdentityPermutation(perm []int) bool {
	for j, p := range perm {
		if p != j {
			return false
		}
	}
	return true
}

// PermuteBits returns a new hypervector whose permuted position j
// holds hv's bit perm[j] (a gather). perm must be a bijection on
// [0, hv.D) — validate with ValidatePermutation; tail bits of the
// result are zero, preserving the packed-store invariant. Each output
// word is shifted together in a register, source bit by source bit
// from the top, and stored once.
func PermuteBits(hv BinaryHV, perm []int) BinaryHV {
	out := NewBinaryHV(hv.D)
	for j := 0; j < len(perm); j += 64 {
		chunk := perm[j:min(j+64, len(perm))]
		var word uint64
		for _, p := range chunk {
			word = word>>1 | hv.Words[uint(p)/64]>>(uint(p)%64)<<63
		}
		out.Words[j/64] = word >> uint(64-len(chunk))
	}
	return out
}
