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
	// lv is the Q levels' packed words back to back, each level padded
	// with zero words to whole plane groups, for the kernel.
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
	stride := groupsPerHV(WordsPerHV(ids.D)) * groupWords
	e.lv = make([]uint64, levels.Q()*stride)
	for j := 0; j < levels.Q(); j++ {
		copy(e.lv[j*stride:], levels.Level(j).Words)
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

// Encode encodes a quantized peak list into a new binary hypervector.
func (e *Encoder) Encode(peaks []spectrum.QuantizedPeak) (BinaryHV, error) {
	h := NewBinaryHV(e.D())
	if err := e.EncodeInto(h, peaks); err != nil {
		return BinaryHV{}, err
	}
	return h, nil
}

// EncodeInto is Encode into h, a D-dimensional hypervector the caller
// owns (a row of a packed block, say): every word of h is overwritten.
// It panics when h is not D-dimensional.
func (e *Encoder) EncodeInto(h BinaryHV, peaks []spectrum.QuantizedPeak) error {
	if h.D != e.D() || len(h.Words) != WordsPerHV(h.D) {
		panic(fmt.Sprintf("hdc: encoding into a D=%d hypervector of %d words with a D=%d encoder", h.D, len(h.Words), e.D()))
	}
	if err := e.checkBins(peaks); err != nil {
		return err
	}
	signedSumWords(h.Words, e.IDs.planes, e.lv, e.IDs.Precision, peaks)
	h.maskTail()
	return nil
}

// signedSumWords is the bit-sliced ID-Level primitive (DESIGN.md §5):
// out[w] receives Sign(Σ ID ⊗ LV) for the 64 dimensions of word w.
// planes is a group-major plane store (ItemMemory), lv a level table
// of whole groups per level; levels are clamped by the kernel. Like
// xorPopRows it forwards to the package's kernel value —
// signedSumWordsGo unless kernel_amd64.go's init found the AVX-512 one
// — after holding the geometry to the stores' lengths, so a bin outside
// the plane store or an empty level table panics here, in Go, and an
// assembly kernel needs no bounds checks of its own.
func signedSumWords(out, planes, lv []uint64, precision int, peaks []spectrum.QuantizedPeak) {
	groups := groupsPerHV(len(out))
	if len(lv) < groups*groupWords {
		panic("hdc: level table shorter than one level")
	}
	bins := len(planes) / (groups * idGroupWords)
	for _, p := range peaks {
		if uint(p.Bin) >= uint(bins) {
			panic("hdc: peak bin outside the plane store")
		}
	}
	signedSumKernel(out, planes, lv, precision, peaks)
}

// signedSumBlock is how many peaks signedSumWordsGo adds into one word
// before moving to the group's next: their plane groups (64 bytes per
// plane, 512 per peak) stay in L1 while the other seven words read them.
const signedSumBlock = 32

// signedSumWordsGo is the reference kernel and the fallback everywhere
// the assembly is not, every word-op working on 64 dimensions. Per
// peak, the level word selects each dimension's offset product o±id
// from the planes and a ripple-carry adder adds it into a vertical
// counter (plane k holds bit k of the 64 running sums): full adders on
// the low four planes, then a half-adder chain until the carry word is
// zero. The walk is group-outer, then signedSumBlock peaks at a time,
// then word: a plane group's eight cache lines each hold one plane of
// all eight words, so a word-outer walk would touch all eight per
// (peak, word); the counters of the group's words wait in cnt between
// blocks. The sums are acc+o·P ≤ 2o·P for P peaks; comparing them, top
// plane down, against o·P gives the acc>0 and acc==0 lanes, and the
// even-dimension mask on the latter is Sign's tie-break.
func signedSumWordsGo(out, planes, lv []uint64, precision int, peaks []spectrum.QuantizedPeak) {
	groups := groupsPerHV(len(out))
	lvStride := groups * groupWords
	top := len(lv)/lvStride - 1
	maxSum := uint64(len(peaks)) << precision
	for g := 0; g < groups; g++ {
		outg := out[g*groupWords : min((g+1)*groupWords, len(out))]
		var cnt [groupWords][64]uint64 // per word: the vertical counter, plane by plane
		for lo := 0; lo < len(peaks); lo += signedSumBlock {
			block := peaks[lo:min(lo+signedSumBlock, len(peaks))]
			for w := range outg {
				w &= groupWords - 1 // no-op (len(outg) <= groupWords) that lets the compiler drop the bounds checks
				c := &cnt[w]
				c0, c1, c2, c3 := c[0], c[1], c[2], c[3]
				for _, p := range block {
					l := lv[min(max(p.Level, 0), top)*lvStride+g*groupWords+w]
					pg := (*[idGroupWords]uint64)(planes[(p.Bin*groups+g)*idGroupWords:])
					a0 := pg[0*groupWords+w] ^ pg[4*groupWords+w]&l
					a1 := pg[1*groupWords+w] ^ pg[5*groupWords+w]&l
					a2 := pg[2*groupWords+w] ^ pg[6*groupWords+w]&l
					a3 := pg[3*groupWords+w] ^ pg[7*groupWords+w]&l
					carry := c0 & a0
					c0 ^= a0
					t := c1 ^ a1
					c1, carry = t^carry, c1&a1|t&carry
					t = c2 ^ a2
					c2, carry = t^carry, c2&a2|t&carry
					t = c3 ^ a3
					c3, carry = t^carry, c3&a3|t&carry
					for k := 4; carry != 0; k++ {
						c[k&63], carry = c[k&63]^carry, c[k&63]&carry
					}
				}
				c[0], c[1], c[2], c[3] = c0, c1, c2, c3
			}
		}
		for w := range outg {
			c := &cnt[w&(groupWords-1)]
			gt, eq := uint64(0), ^uint64(0)
			for k := bits.Len64(maxSum) - 1; k >= 0; k-- {
				m := -(maxSum >> (k + 1) & 1) // bit k of o·P, spread over the lanes
				gt |= eq & c[k] &^ m
				eq &^= c[k] ^ m
			}
			outg[w] = gt | eq&0x5555555555555555
		}
	}
}

// EncodeVector quantizes a binned spectrum vector to Q intensity
// levels and encodes it.
func (e *Encoder) EncodeVector(v spectrum.Vector) (BinaryHV, error) {
	return e.Encode(v.Quantize(e.Levels.Q()))
}
