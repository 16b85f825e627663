package hdc

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestAdmissionBoundMatchesOracle holds the sweep's in-kernel admission
// bound to the flat-scan oracle where an off-by-one in it would show.
// Stretches of rows descend a staircase of exact distances to the
// query, two rows per step, so once a heap is full each next row ties
// with its worst or beats it by exactly one, and a range ending one
// step past a block edge is won by a row the bound at that block's
// start only just admits; the stretches cross
// eight-row mask groups, a kernel block edge, a shard edge and a
// block's ragged tail. Hidden rows sit inside a mask group and in the
// ragged tail (the best row of all among them), and k runs from 1
// past a block's row count and past a shard's. Every case runs with and
// without the hidden rows, as a batch and as batches of one, on both
// kernels.
func TestAdmissionBoundMatchesOracle(t *testing.T) {
	admissionBoundMatchesOracle(t)
	t.Run("go-kernel", func(t *testing.T) {
		useGoKernel(t)
		admissionBoundMatchesOracle(t)
	})
}

// atDistance returns hv with its first j bits flipped: Hamming distance
// j from hv.
func atDistance(hv BinaryHV, j int) BinaryHV {
	c := hv.Clone()
	for b := 0; b < j; b++ {
		c.Words[b/64] ^= 1 << (b % 64)
	}
	return c
}

func admissionBoundMatchesOracle(t *testing.T) {
	// 64-row kernel blocks; the last shard [400, 450) is one block of
	// six whole mask groups and a two-row ragged tail.
	const d, n, shard = 2048, 450, 200
	q := RandomBinaryHV(d, rand.New(rand.NewSource(9)))
	refs := randomRefs(d, n, 10)
	step := 0
	for _, stretch := range []RowRange{
		{Lo: 4, Hi: 20},    // mask group edges 8 and 16
		{Lo: 56, Hi: 72},   // the block edge 64
		{Lo: 190, Hi: 210}, // the block edge 192 and the shard edge 200
		{Lo: 436, Hi: n},   // the last group's end and the ragged tail
	} {
		for r := stretch.Lo; r < stretch.Hi; r++ {
			refs[r] = atDistance(q, 100-step/2)
			step++
		}
	}
	hidden := []int{12, 64, 200, 444, n - 1}
	ranges := []RowRange{
		{Lo: 0, Hi: n},
		{Lo: 3, Hi: n}, // mask groups shifted off the block grid
		{Lo: 5, Hi: 205},
		{Lo: 60, Hi: 70},
		{Lo: 60, Hi: 66},   // its best rows beat block 0's by one
		{Lo: 190, Hi: 194}, // likewise past the block edge 192
		{Lo: 190, Hi: 210},
		{Lo: 440, Hi: n},
		{Lo: 12, Hi: 13}, // a hidden row alone
		{Lo: 100, Hi: n - 1},
	}
	queries := make([]BinaryHV, len(ranges))
	for i := range queries {
		queries[i] = q
	}
	s, err := packedSearcher(refs, shard)
	if err != nil {
		t.Fatal(err)
	}
	if s.block != 64 {
		t.Fatalf("kernel block is %d rows, the rows were laid out for 64", s.block)
	}
	for _, hid := range [][]int{nil, hidden} {
		s.Hide(hid)
		for _, k := range []int{1, 2, 3, 6, 65, 250} {
			t.Run(fmt.Sprintf("hidden=%d/k=%d", len(hid), k), func(t *testing.T) {
				check := func(path string, qi int, got []Match) {
					t.Helper()
					want := naiveTopK(refs, d, q, visibleCands(ranges[qi].Lo, ranges[qi].Hi, n, hid), k)
					if got == nil || !matchesEqual(got, want) {
						t.Fatalf("%s: range %+v\ngot  %v\nwant %v", path, ranges[qi], got, want)
					}
				}
				for qi, got := range sweepBatch(s, queries, ranges, k, nil) {
					check("batch", qi, got)
				}
				for qi, r := range ranges {
					check("batch of one", qi, topKRange(s, q, r.Lo, r.Hi, k))
				}
			})
		}
	}
}
