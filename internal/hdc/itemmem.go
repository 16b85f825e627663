package hdc

import (
	"fmt"
	"math/rand"
)

// ItemMemory holds the position (ID) hypervectors of the ID-Level
// encoder: one multi-bit hypervector per m/z bin (§3.2, §4.2.2).
// Generation is deterministic in (D, bins, precision, seed).
//
// The hypervectors are resident bit-sliced, as the encoder consumes
// them (DESIGN.md §5): with o = 2^(precision-1), every dimension owns
// idPlanes plane bits — the four bit-planes of the offset product o-id
// (level bit -1), then the four planes of its XOR-delta to o+id (level
// bit +1). Both products lie in [0, 8], so the footprint is one int8
// per dimension at any precision. The store is group-major: the
// hypervector's words are taken groupWords at a time — 512 dimensions —
// and every (bin, group) owns idGroupWords consecutive words, plane k
// of the group's eight words at [k*groupWords:][:groupWords], so one
// plane of a group is one 64-byte vector load. The last group is padded
// to a whole one; padding words, like plane bits past D, stay zero.
type ItemMemory struct {
	// D is the hypervector dimension.
	D int
	// Precision is the ID component precision in bits (1–3).
	Precision int
	bins      int
	planes    []uint64
}

const (
	// idPlanes is the plane count per dimension: four of o-id, four of
	// the delta.
	idPlanes = 8
	// groupWords is the hypervector words per plane group.
	groupWords = 8
	// idGroupWords is the plane-store size of one (bin, group).
	idGroupWords = idPlanes * groupWords
)

// groupsPerHV returns the plane-group count of a hypervector of the
// given packed word count: ceil(words/groupWords).
func groupsPerHV(words int) int { return (words + groupWords - 1) / groupWords }

// planeWord indexes, in a plane store of `groups` groups per bin, plane
// k of hypervector word w of bin b.
func planeWord(groups, b, w, k int) int {
	return (b*groups+w/groupWords)*idGroupWords + k*groupWords + w%groupWords
}

// lfgLag and lfgTap are the lags of math/rand's additive
// lagged-Fibonacci source (its rngLen and rngTap): once lfgLag outputs
// exist, output n is output n-lfgLag plus output n-lfgTap, mod 2^64.
const (
	lfgLag = 607
	lfgTap = 273
)

// NewItemMemory builds an item memory with numBins ID hypervectors:
// bin after bin, the components randomIntHV (hv_test.go) draws from
// rand.New(rand.NewSource(seed)), which every stored index assumes.
// Dimension i of a bin takes the stream's next two outputs y, y': the
// magnitude is ((y>>32)&(o-1))+1 and the sign bit (y'>>32)&1 — what
// Intn(o) and Intn(2) return for a power of two. Only the first lfgLag
// outputs come from the source; the rest continue its recurrence in a
// local buffer (DESIGN.md §5).
func NewItemMemory(d, numBins, precision int, seed int64) *ItemMemory {
	if d <= 0 || numBins <= 0 {
		panic(fmt.Sprintf("hdc: bad item memory shape D=%d bins=%d", d, numBins))
	}
	precision = clampPrecision(precision)
	groups := groupsPerHV(WordsPerHV(d))
	im := &ItemMemory{D: d, Precision: precision, bins: numBins,
		planes: make([]uint64, numBins*groups*idGroupWords)}
	// planeByte[mag-1 | sign<<2] is a dimension's eight planes a bit
	// each: the neg nibble o-id, then the delta nibble (o-id)^(o+id).
	o := maxMagnitude(precision)
	var planeByte [8]uint64
	for i := range planeByte {
		v := (i&3 + 1) * (i>>2*2 - 1)
		planeByte[i] = uint64(byte(o-v) | byte((o-v)^(o+v))<<4)
	}
	magMask := uint64(o - 1)

	// buf holds the last lfgLag outputs, then the 2d a bin takes; pos is
	// the first one not yet taken.
	buf := make([]uint64, lfgLag+2*d)
	src := rand.NewSource(seed).(rand.Source64)
	for i := range buf[:lfgLag] {
		buf[i] = src.Uint64()
	}
	pos := 0
	for b := 0; b < numBins; b++ {
		// Continue the stream to the bin's end, lfgTap outputs at a time:
		// a block reads only outputs before it.
		end := pos + 2*d
		for n := lfgLag; n < end; n += lfgTap {
			dst := buf[n:min(n+lfgTap, end)]
			lag, tap := buf[n-lfgLag:][:len(dst)], buf[n-lfgTap:][:len(dst)]
			for i := range dst {
				dst[i] = lag[i] + tap[i]
			}
		}
		ys := buf[pos:end]
		for w := 0; 128*w < len(ys); w++ {
			// planes[k] gathers plane k of the word's 64 dimensions, eight
			// at a time: x packs eight dimensions' plane bytes, and the
			// multiply takes bit k of every byte into one.
			var planes [idPlanes]uint64
			word := ys[128*w : min(128*w+128, len(ys))]
			for j := 0; j < len(word); j += 16 {
				var x uint64
				pairs := word[j:min(j+16, len(word))]
				for i := 1; i < len(pairs); i += 2 {
					x |= planeByte[(pairs[i-1]>>32&magMask|pairs[i]>>32&1<<2)&7] << (4 * (i - 1))
				}
				for k := range planes {
					planes[k] |= (x >> k & 0x0101010101010101) * 0x0102040810204080 >> 56 << (j / 2)
				}
			}
			for k, p := range planes {
				im.planes[planeWord(groups, b, w, k)] = p
			}
		}
		// Carry the last lfgLag outputs to the front for the next bin.
		if end > lfgLag {
			copy(buf, buf[end-lfgLag:end])
			end = lfgLag
		}
		pos = end
	}
	return im
}

// NumBins returns the number of ID hypervectors.
func (im *ItemMemory) NumBins() int { return im.bins }

// ID returns the position hypervector for bin i, unpacked from the
// bit-planes on every call (the crossbar simulator and tests read it;
// the encoder consumes the planes directly).
func (im *ItemMemory) ID(i int) IntHV {
	groups := groupsPerHV(WordsPerHV(im.D))
	offset := int8(maxMagnitude(im.Precision))
	vals := make([]int8, im.D)
	for dim := range vals {
		var neg int8
		for k := 0; k < idPlanes/2; k++ {
			neg |= int8(im.planes[planeWord(groups, i, dim/64, k)]>>(dim%64)&1) << k
		}
		vals[dim] = offset - neg
	}
	return IntHV{Vals: vals}
}

// LevelSet is the interface shared by the two level-hypervector
// constructions: the classic flip-based set and the hardware-friendly
// chunked set (§4.2.1). Level returns the bipolar level hypervector
// for quantized intensity level j in [0, Q).
type LevelSet interface {
	// Q returns the number of levels.
	Q() int
	// D returns the dimensionality.
	D() int
	// Level returns the level hypervector for level j.
	Level(j int) BinaryHV
}

// FlipLevelSet is the classic construction: l0 is random and l_j is
// obtained from l_{j-1} by flipping D/(2Q) fresh bits, so similarity
// decays monotonically with level distance and l0 vs l_{Q-1} differ in
// about half their components.
type FlipLevelSet struct {
	levels []BinaryHV
}

// NewFlipLevelSet builds a flip-based level set with Q levels.
func NewFlipLevelSet(d, q int, seed int64) *FlipLevelSet {
	q = max(q, 2)
	rng := rand.New(rand.NewSource(seed))
	ls := &FlipLevelSet{levels: make([]BinaryHV, q)}
	ls.levels[0] = RandomBinaryHV(d, rng)
	perm := rng.Perm(d)
	step := max(d/(2*q), 1)
	next := 0
	for j := 1; j < q; j++ {
		ls.levels[j] = ls.levels[j-1].Clone()
		for k := 0; k < step && next < d; k++ {
			i := perm[next]
			next++
			ls.levels[j].Words[i/64] ^= 1 << (uint(i) % 64)
		}
	}
	return ls
}

// Q implements LevelSet.
func (ls *FlipLevelSet) Q() int { return len(ls.levels) }

// D implements LevelSet.
func (ls *FlipLevelSet) D() int { return ls.levels[0].D }

// Level implements LevelSet.
func (ls *FlipLevelSet) Level(j int) BinaryHV {
	return ls.levels[min(max(j, 0), len(ls.levels)-1)]
}

// ChunkedLevelSet is the paper's hardware/software co-designed level
// construction (§4.2.1): the D dimensions are divided into C chunks
// and every dimension within a chunk holds the same value, so the
// in-memory encoder can feed level inputs chunk-by-chunk and obtain
// all element-wise MAC outputs of a chunk in one cycle, MVM-style.
// Levels are derived by flipping whole chunks along a random
// permutation, preserving the monotone similarity profile.
type ChunkedLevelSet struct {
	d, q, chunks int
	// chunkVals[j][c] is the bipolar value of chunk c at level j.
	chunkVals [][]int8
	cache     []BinaryHV
}

// NewChunkedLevelSet builds a chunked level set with C chunks. C is
// clamped to [2Q, D] so each level step flips at least one chunk and
// chunks are at least one dimension wide.
func NewChunkedLevelSet(d, q, chunks int, seed int64) *ChunkedLevelSet {
	q = max(q, 2)
	chunks = min(max(chunks, 2*q), d)
	rng := rand.New(rand.NewSource(seed))
	ls := &ChunkedLevelSet{d: d, q: q, chunks: chunks}
	ls.chunkVals = make([][]int8, q)
	base := make([]int8, chunks)
	for c := range base {
		if rng.Intn(2) == 0 {
			base[c] = -1
		} else {
			base[c] = 1
		}
	}
	ls.chunkVals[0] = base
	perm := rng.Perm(chunks)
	step := max(chunks/(2*q), 1)
	next := 0
	for j := 1; j < q; j++ {
		cur := make([]int8, chunks)
		copy(cur, ls.chunkVals[j-1])
		for k := 0; k < step && next < chunks; k++ {
			cur[perm[next]] = -cur[perm[next]]
			next++
		}
		ls.chunkVals[j] = cur
	}
	// Populate the level cache eagerly so Level is a pure read and the
	// set is safe for concurrent use by parallel searchers.
	ls.cache = make([]BinaryHV, q)
	for j := 0; j < q; j++ {
		h := NewBinaryHV(d)
		for c := 0; c < chunks; c++ {
			if ls.chunkVals[j][c] > 0 {
				lo, hi := ls.ChunkBounds(c)
				for i := lo; i < hi; i++ {
					h.SetBit(i, true)
				}
			}
		}
		ls.cache[j] = h
	}
	return ls
}

// Q implements LevelSet.
func (ls *ChunkedLevelSet) Q() int { return ls.q }

// D implements LevelSet.
func (ls *ChunkedLevelSet) D() int { return ls.d }

// NumChunks returns the chunk count C.
func (ls *ChunkedLevelSet) NumChunks() int { return ls.chunks }

// ChunkBounds returns the dimension range [lo, hi) of chunk c; chunk
// widths differ by at most one when D is not divisible by C.
func (ls *ChunkedLevelSet) ChunkBounds(c int) (lo, hi int) {
	lo = c * ls.d / ls.chunks
	hi = (c + 1) * ls.d / ls.chunks
	return lo, hi
}

// ChunkValue returns the bipolar value of chunk c at level j.
func (ls *ChunkedLevelSet) ChunkValue(j, c int) int8 {
	return ls.chunkVals[min(max(j, 0), ls.q-1)][c]
}

// Level implements LevelSet, returning the precomputed packed
// hypervector for the level. Safe for concurrent use.
func (ls *ChunkedLevelSet) Level(j int) BinaryHV {
	return ls.cache[min(max(j, 0), ls.q-1)]
}
