package hdc

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
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

// chunkWords caps a build worker's stream buffer: the lfgLag outputs
// before its chunk, then the chunk's own (one bin at least).
const chunkWords = 8 << 10

// NewItemMemory builds an item memory with numBins ID hypervectors:
// bin after bin, the components randomIntHV (hv_test.go) draws from
// rand.New(rand.NewSource(seed)), which every stored index assumes.
// Dimension i of a bin takes the stream's next two outputs y, y': the
// magnitude is ((y>>32)&(o-1))+1 and the sign bit (y'>>32)&1 — what
// Intn(o) and Intn(2) return for a power of two. Only the first lfgLag
// outputs come from the source; the rest continue its recurrence.
//
// The build is pipelined over up to maxBuildWorkers workers, GOMAXPROCS
// permitting (DESIGN.md §5): the bins are cut into chunks, the
// recurrence runs through them in order, each chunk starting from the
// last lfgLag outputs of the one before, and a worker packs its chunk
// while the next continues the stream.
func NewItemMemory(d, numBins, precision int, seed int64) *ItemMemory {
	if d <= 0 || numBins <= 0 {
		panic(fmt.Sprintf("hdc: bad item memory shape D=%d bins=%d", d, numBins))
	}
	precision = clampPrecision(precision)
	groups := groupsPerHV(WordsPerHV(d))
	im := &ItemMemory{D: d, Precision: precision, bins: numBins,
		planes: make([]uint64, numBins*groups*idGroupWords)}
	chunkBins := max(1, (chunkWords-lfgLag)/(2*d))
	b := &itemBuild{im: im, src: rand.NewSource(seed).(rand.Source64),
		groups: groups, chunkBins: chunkBins, chunks: (numBins + chunkBins - 1) / chunkBins,
		bufWords: lfgLag + chunkBins*2*d}
	// truth[k][c] is plane k of a dimension whose three stream bits
	// form minterm c = a | b<<1 | s<<2, as a mask: the neg nibble o-id,
	// then the delta nibble (o-id)^(o+id), of id = ±((a|b<<1)&(o-1)+1),
	// positive when s is set.
	o := maxMagnitude(precision)
	for c := range 8 {
		v := (c&(o-1) + 1) * (c>>2*2 - 1)
		planes := byte(o-v) | byte((o-v)^(o+v))<<4
		for k := range b.truth {
			b.truth[k][c] = -uint64(planes >> k & 1)
		}
	}
	workers := min(runtime.GOMAXPROCS(0), b.chunks, maxBuildWorkers)
	b.bufs = make([]uint64, workers*b.bufWords)
	work := b.work
	b.wg.Add(workers)
	for range workers - 1 {
		go work()
	}
	work()
	b.wg.Wait()
	return im
}

// maxBuildWorkers caps NewItemMemory's workers: the recurrence is
// about a quarter of the work and runs in chunk order, so a fifth
// worker would only wait for it.
const maxBuildWorkers = 4

// itemBuild is the shared state of one NewItemMemory build. Chunk c
// holds bins [c*chunkBins, (c+1)*chunkBins); every chunk but the last
// holds at least lfgLag outputs, so the tail it hands on is its own.
// Each worker owns one buffer of bufWords for its chunk: the lfgLag
// outputs before the chunk, then the chunk's.
type itemBuild struct {
	im                *ItemMemory
	src               rand.Source64
	groups            int
	chunkBins, chunks int
	bufWords          int
	bufs              []uint64
	truth             [idPlanes][8]uint64

	// workers counts the buffers handed out, next the chunks claimed
	// and published the chunks whose outputs are complete.
	workers, next, published atomic.Int64
	// tail is the last lfgLag outputs of chunk published-1, in the
	// buffer of the worker that continued the stream through it.
	tail []uint64
	wg   sync.WaitGroup
}

// work claims chunks until none is left: it waits for the chunk
// before to publish its tail, continues the stream from it through
// the chunk, publishes the chunk's own tail, then packs the chunk. A
// worker writes its buffer only once its chunk's predecessor is
// published, so every chunk that reads the buffer's tail already has.
//
// The wait yields instead of blocking. It is short — only the earlier
// chunks' additions remain — and a goroutine woken from a block would
// queue behind the packing worker that woke it rather than take the
// idle core.
func (b *itemBuild) work() {
	defer b.wg.Done()
	buf := b.bufs[(b.workers.Add(1)-1)*int64(b.bufWords):][:b.bufWords]
	for {
		c := int(b.next.Add(1) - 1)
		if c >= b.chunks {
			return
		}
		for b.published.Load() < int64(c) {
			runtime.Gosched()
		}
		bin := c * b.chunkBins
		n := (min(bin+b.chunkBins, b.im.bins) - bin) * 2 * b.im.D
		from := lfgLag
		if c == 0 {
			for i := range min(n, lfgLag) {
				buf[lfgLag+i] = b.src.Uint64()
			}
			from += lfgLag
		} else {
			copy(buf, b.tail)
		}
		// lfgTap outputs at a time: a block reads only outputs before it.
		end := lfgLag + n
		for i := from; i < end; i += lfgTap {
			dst := buf[i:min(i+lfgTap, end)]
			lag, tap := buf[i-lfgLag:][:len(dst)], buf[i-lfgTap:][:len(dst)]
			for j := range dst {
				dst[j] = lag[j] + tap[j]
			}
		}
		b.tail = buf[n:end]
		b.published.Add(1)

		for i, ys := 0, buf[lfgLag:end]; len(ys) > 0; i, ys = i+1, ys[2*b.im.D:] {
			b.packBin(bin+i, ys[:2*b.im.D])
		}
	}
}

// packBin stores the planes of bin from its 2D stream outputs ys, one
// hypervector word — 64 dimensions, 128 outputs — at a time.
func (b *itemBuild) packBin(bin int, ys []uint64) {
	for w := 0; 128*w < len(ys); w++ {
		word := ys[128*w:]
		valid := ^uint64(0)
		if len(word) < 128 {
			// The last word of a ragged bin: zero outputs in, and planes
			// past D masked off.
			var full [128]uint64
			copy(full[:], word)
			word, valid = full[:], 1<<(len(word)/2)-1
		}
		am, bm, sm := streamBits((*[128]uint64)(word))
		// The eight minterms c = a | b<<1 | s<<2, dimension by dimension.
		ab := [4]uint64{^am &^ bm, am &^ bm, bm &^ am, am & bm}
		m := [8]uint64{ab[0] &^ sm, ab[1] &^ sm, ab[2] &^ sm, ab[3] &^ sm, ab[0] & sm, ab[1] & sm, ab[2] & sm, ab[3] & sm}
		for k, t := range &b.truth {
			b.im.planes[planeWord(b.groups, bin, w, k)] = valid & (m[0]&t[0] | m[1]&t[1] | m[2]&t[2] | m[3]&t[3] |
				m[4]&t[4] | m[5]&t[5] | m[6]&t[6] | m[7]&t[7])
		}
	}
}

// streamBits gathers the three random bits of a word's 64 dimensions
// from their 128 stream outputs: a and b are bits 32 and 33 of the
// even output, s is bit 32 of the odd one. Eight dimensions at a time,
// each bit moves by a constant shift and enters at the top.
func streamBits(ys *[128]uint64) (a, b, s uint64) {
	for j := 0; j < 128; j += 16 {
		p := (*[16]uint64)(ys[j:])
		a = a>>8 | (p[0]>>32&1|p[2]>>31&2|p[4]>>30&4|p[6]>>29&8|p[8]>>28&16|p[10]>>27&32|p[12]>>26&64|p[14]>>25&128)<<56
		b = b>>8 | (p[0]>>33&1|p[2]>>32&2|p[4]>>31&4|p[6]>>30&8|p[8]>>29&16|p[10]>>28&32|p[12]>>27&64|p[14]>>26&128)<<56
		s = s>>8 | (p[1]>>32&1|p[3]>>31&2|p[5]>>30&4|p[7]>>29&8|p[9]>>28&16|p[11]>>27&32|p[13]>>26&64|p[15]>>25&128)<<56
	}
	return a, b, s
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
