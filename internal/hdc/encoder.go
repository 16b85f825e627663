package hdc

import (
	"fmt"
	"math/bits"

	"repro/internal/spectrum"
)

// Encoder implements the ID-Level encoding of Eq. 1:
//
//	h = Sign( Σ_{i∈S} ID_i ⊗ LV_i )
//
// where ID_i is the (possibly multi-bit) position hypervector of peak
// i's m/z bin and LV_i the bipolar level hypervector of its quantized
// intensity. The output is a packed binary hypervector.
type Encoder struct {
	// IDs is the position item memory.
	IDs *ItemMemory
	// Levels is the level hypervector set.
	Levels LevelSet
	// lv is the Q levels' packed words back to back, for the kernel.
	lv []uint64
}

// NewEncoder wires an item memory and a level set into an encoder.
// The two must agree on dimensionality.
func NewEncoder(ids *ItemMemory, levels LevelSet) (*Encoder, error) {
	if ids.D != levels.D() {
		return nil, fmt.Errorf("hdc: ID dimension %d != level dimension %d",
			ids.D, levels.D())
	}
	e := &Encoder{IDs: ids, Levels: levels}
	for j := 0; j < levels.Q(); j++ {
		e.lv = append(e.lv, levels.Level(j).Words...)
	}
	return e, nil
}

// D returns the hypervector dimension.
func (e *Encoder) D() int { return e.IDs.D }

// checkBins rejects a peak list naming a bin outside the item memory.
func (e *Encoder) checkBins(peaks []spectrum.QuantizedPeak) error {
	for _, p := range peaks {
		if p.Bin < 0 || p.Bin >= e.IDs.NumBins() {
			return fmt.Errorf("hdc: peak bin %d out of range [0,%d)", p.Bin, e.IDs.NumBins())
		}
	}
	return nil
}

// Accumulate computes the pre-quantization accumulator
// Σ ID_i ⊗ LV_i for a quantized peak list into acc, which must have
// length D. It is the scalar reference: Encode equals Sign of it, and
// the RRAM-simulated encoder is validated against it bit by bit.
func (e *Encoder) Accumulate(peaks []spectrum.QuantizedPeak, acc []int32) error {
	if len(acc) != e.D() {
		return fmt.Errorf("hdc: accumulator length %d != D %d", len(acc), e.D())
	}
	if err := e.checkBins(peaks); err != nil {
		return err
	}
	clear(acc)
	for _, p := range peaks {
		id := e.IDs.ID(p.Bin)
		lv := e.Levels.Level(min(max(p.Level, 0), e.Levels.Q()-1))
		for i, v := range id.Vals {
			acc[i] += int32(v) * int32(lv.Bit(i))
		}
	}
	return nil
}

// Encode encodes a quantized peak list into a binary hypervector.
func (e *Encoder) Encode(peaks []spectrum.QuantizedPeak) (BinaryHV, error) {
	if err := e.checkBins(peaks); err != nil {
		return BinaryHV{}, err
	}
	h := NewBinaryHV(e.D())
	signedSumWords(h.Words, e.IDs.planes, e.lv, e.IDs.Precision, peaks)
	h.maskTail()
	return h, nil
}

// signedSumWords is the bit-sliced ID-Level kernel (DESIGN.md §5):
// out[w] receives Sign(Σ ID ⊗ LV) for the 64 dimensions of word w,
// every word-op working on all 64. planes is an ItemMemory's plane
// store, lv a level table of len(out) words per level; bins are
// already range-checked, levels clamped here. Per peak, the level
// word selects each dimension's offset product o±id from the planes
// and a ripple-carry adder adds it into a vertical counter (plane k
// holds bit k of the 64 running sums): full adders on the low four
// planes, then a half-adder chain until the carry word is zero. The
// sums are acc+o·P ≤ 2o·P for P peaks; comparing them, top plane
// down, against o·P gives the acc>0 and acc==0 lanes, and the
// even-dimension mask on the latter is Sign's tie-break.
//
//oms:hotpath
func signedSumWords(out, planes, lv []uint64, precision int, peaks []spectrum.QuantizedPeak) {
	words := len(out)
	top := len(lv)/words - 1
	maxSum := uint64(len(peaks)) << precision
	for w := range out {
		var c0, c1, c2, c3 uint64
		var cnt [64]uint64 // planes 4 and up while adding, all planes for the compare
		for _, p := range peaks {
			l := lv[min(max(p.Level, 0), top)*words+w]
			g := planes[(p.Bin*words+w)*idPlaneWords:][:idPlaneWords]
			a0, a1 := g[0]^g[4]&l, g[1]^g[5]&l
			a2, a3 := g[2]^g[6]&l, g[3]^g[7]&l
			carry := c0 & a0
			c0 ^= a0
			t := c1 ^ a1
			c1, carry = t^carry, c1&a1|t&carry
			t = c2 ^ a2
			c2, carry = t^carry, c2&a2|t&carry
			t = c3 ^ a3
			c3, carry = t^carry, c3&a3|t&carry
			for k := 4; carry != 0; k++ {
				cnt[k&63], carry = cnt[k&63]^carry, cnt[k&63]&carry
			}
		}
		cnt[0], cnt[1], cnt[2], cnt[3] = c0, c1, c2, c3
		gt, eq := uint64(0), ^uint64(0)
		for k := bits.Len64(maxSum) - 1; k >= 0; k-- {
			m := -(maxSum >> (k + 1) & 1) // bit k of o·P, spread over the lanes
			gt |= eq & cnt[k] &^ m
			eq &^= cnt[k] ^ m
		}
		out[w] = gt | eq&0x5555555555555555
	}
}

// EncodeVector quantizes a binned spectrum vector to Q intensity
// levels and encodes it.
func (e *Encoder) EncodeVector(v spectrum.Vector) (BinaryHV, error) {
	return e.Encode(v.Quantize(e.Levels.Q()))
}
