package hdc

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
	"testing/quick"
)

// seedIDs replays the item memory's seed generator without the plane
// store: the ID hypervectors NewItemMemory(d, bins, precision, seed)
// must hold, as the seed repo drew them and every stored index
// assumes.
func seedIDs(d, bins, precision int, seed int64) []IntHV {
	rng := rand.New(rand.NewSource(seed))
	ids := make([]IntHV, bins)
	for i := range ids {
		ids[i] = randomIntHV(d, precision, rng)
	}
	return ids
}

// seedPlanes packs the seed generator's draw into a plane store the
// way NewItemMemory did while it called rand per component: bin by
// bin, eight dimensions per multiply-gather, ORed into place. It is the
// reference the identity tests and the benchmark's seed-loop leg hold
// the plane store against, padding words included.
func seedPlanes(d, bins, precision int, seed int64) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	groups := groupsPerHV(WordsPerHV(d))
	planes := make([]uint64, bins*groups*idGroupWords)
	offset := int8(maxMagnitude(precision))
	for b := 0; b < bins; b++ {
		vals := randomIntHV(d, precision, rng).Vals
		for j := 0; j < d; j += 8 {
			var x uint64
			for i, v := range vals[j:min(j+8, d)] {
				neg := uint64(offset - v)
				x |= (neg | (neg^uint64(offset+v))<<4) << (8 * i)
			}
			for k := 0; k < idPlanes; k++ {
				planes[planeWord(groups, b, j/64, k)] |= (x >> k & 0x0101010101010101) * 0x0102040810204080 >> 56 << (j % 64)
			}
		}
	}
	return planes
}

// checkSeedPlanes fails t unless NewItemMemory holds seedPlanes' words.
func checkSeedPlanes(t *testing.T, d, bins, precision int, seed int64) {
	t.Helper()
	got, want := NewItemMemory(d, bins, precision, seed).planes, seedPlanes(d, bins, precision, seed)
	if len(got) != len(want) {
		t.Fatalf("D=%d bins=%d p=%d seed=%d: plane store holds %d words, want %d", d, bins, precision, seed, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("D=%d bins=%d p=%d seed=%d: plane word %d is %#x, the seed draw packs %#x", d, bins, precision, seed, i, got[i], want[i])
		}
	}
}

// TestItemMemoryMatchesSeedDraw holds the plane store to the seed draw
// where the continued stream is easiest to get wrong: D so small that
// a bin straddles the first lfgLag outputs, the ones taken from the
// source (2*303 = 606 fits inside them, 2*304 = 608 crosses in the
// first bin, D = 1, 7 and 100 cross in a later one), at every precision
// and on seeds that exercise rand's reduction of the seed (0, -1,
// 1<<40, math.MinInt64).
func TestItemMemoryMatchesSeedDraw(t *testing.T) {
	atBuildProcs(t, func(t *testing.T) {
		for _, seed := range []int64{0, -1, 1 << 40, math.MinInt64} {
			for _, d := range []int{1, 7, 100, 303, 304} {
				for precision := 1; precision <= 3; precision++ {
					checkSeedPlanes(t, d, 400, precision, seed)
				}
			}
		}
	})
}

// atBuildProcs runs f as one subtest per GOMAXPROCS the item memory is
// built at: serially, by the two-core pipeline, and by more workers
// than the recurrence keeps busy.
func atBuildProcs(t *testing.T, f func(t *testing.T)) {
	for _, procs := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("procs%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			f(t)
		})
	}
}

// FuzzItemMemory holds NewItemMemory to the seed draw at any shape,
// precision (clamped included) and seed.
func FuzzItemMemory(f *testing.F) {
	f.Add(uint16(303), uint16(3), uint8(3), int64(1))
	f.Add(uint16(1), uint16(400), uint8(1), int64(math.MinInt64))
	f.Add(uint16(1000), uint16(2), uint8(9), int64(-1))
	f.Fuzz(func(t *testing.T, d, bins uint16, precision uint8, seed int64) {
		checkSeedPlanes(t, int(d%1100)+1, int(bins%400)+1, int(precision%5), seed)
	})
}

// TestItemMemoryPinnedDigest pins the plane store at omsbuild's default
// operating point and at the benchmark's. Its words are what every
// index built there was encoded with.
func TestItemMemoryPinnedDigest(t *testing.T) {
	for _, tc := range []struct {
		d, bins, precision int
		seed               int64
		want               string
	}{
		{8192, 1399, 3, 1, "e5a03c3d1d52a941291f72dd747223ef9b1da35b46a8aef6411dd301133c7153"},
		{2048, 1399, 3, 1, "f22f2dcb3c577084e717f73ed3adc01fb168a5da11954a24c75b1301d35ab0b3"},
	} {
		atBuildProcs(t, func(t *testing.T) {
			h := sha256.New()
			if err := binary.Write(h, binary.LittleEndian, NewItemMemory(tc.d, tc.bins, tc.precision, tc.seed).planes); err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
				t.Errorf("NewItemMemory(%d, %d, %d, %d) planes hash to %s, pinned %s: the ID hypervectors moved, and every stored index built at this operating point no longer decodes against them (a Go toolchain change to math/rand's source would do the same)",
					tc.d, tc.bins, tc.precision, tc.seed, got, tc.want)
			}
		})
	}
}

// TestNewItemMemoryAllocs pins NewItemMemory at a constant allocation
// count, the same at 10 bins (one chunk, no worker goroutine) and at
// 1399 (workers, GOMAXPROCS permitting): nothing is allocated per bin.
func TestNewItemMemoryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-detector instrumentation")
	}
	for _, bins := range []int{10, 1399} {
		allocs := fewestAllocs(20, func() { NewItemMemory(64, bins, 3, 1) })
		if allocs != itemMemoryAllocs {
			t.Errorf("NewItemMemory over %d bins allocates %d objects, baseline %d", bins, allocs, itemMemoryAllocs)
		}
	}
}

// fewestAllocs is the fewest heap objects any one of runs calls of f
// allocates, with the collector off. Beside f the runtime allocates for
// itself at times — a goroutine, or a thread to run it on, for a worker
// f spawns; a collection's mark workers — which only ever adds to a
// call's count, while each of f's own allocations is in every call: the
// least count is f's. testing.AllocsPerRun's mean would count the
// runtime's too, so a pin on it depends on what ran before.
func fewestAllocs(runs int, f func()) uint64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var ms runtime.MemStats
	fewest := uint64(math.MaxUint64)
	for range runs {
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		f()
		runtime.ReadMemStats(&ms)
		fewest = min(fewest, ms.Mallocs-before)
	}
	return fewest
}

// BenchmarkNewItemMemory times the item memory every process draws at
// start-up, also per dimension: pipelined at D = 2048 and 8192, then
// serially (GOMAXPROCS=1) and by the seed loop at D = 2048, so one run
// shows what the pipeline and the packing each save.
func BenchmarkNewItemMemory(b *testing.B) {
	for _, d := range []int{2048, 8192} {
		b.Run(fmt.Sprintf("D%d", d), func(b *testing.B) {
			for b.Loop() {
				NewItemMemory(d, 1399, 3, 1)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*d*1399), "ns/dim")
		})
	}
	b.Run("serial-D2048", func(b *testing.B) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		for b.Loop() {
			NewItemMemory(2048, 1399, 3, 1)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*2048*1399), "ns/dim")
	})
	b.Run("seed-loop-D2048", func(b *testing.B) {
		for b.Loop() {
			seedPlanes(2048, 1399, 3, 1)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*2048*1399), "ns/dim")
	})
}

// TestItemMemoryIDRoundTrip checks planes → IntHV against the drawn
// values, for full and ragged last words and groups, and that the
// planes past D stay zero (the encoder relies on it for the tail).
func TestItemMemoryIDRoundTrip(t *testing.T) {
	for _, d := range []int{1, 64, 100, 512, 1000, 1536, 2048} {
		for precision := 1; precision <= 3; precision++ {
			im := NewItemMemory(d, 20, precision, 42)
			for b, want := range seedIDs(d, 20, precision, 42) {
				got := im.ID(b)
				if len(got.Vals) != d {
					t.Fatalf("D=%d p=%d bin %d: unpacked D %d", d, precision, b, len(got.Vals))
				}
				for i, v := range want.Vals {
					if got.Vals[i] != v {
						t.Fatalf("D=%d p=%d bin %d dim %d: planes hold %d, generator drew %d", d, precision, b, i, got.Vals[i], v)
					}
				}
			}
			// No plane bit past D: the ragged last word's high bits and
			// the last group's padding words, in every plane.
			words := WordsPerHV(d)
			groups := groupsPerHV(words)
			if len(im.planes) != 20*groups*idGroupWords {
				t.Fatalf("D=%d p=%d: plane store holds %d words, want %d", d, precision, len(im.planes), 20*groups*idGroupWords)
			}
			for b := 0; b < 20; b++ {
				for k := 0; k < idPlanes; k++ {
					if rem := d % 64; rem != 0 && im.planes[planeWord(groups, b, words-1, k)]>>rem != 0 {
						t.Fatalf("D=%d p=%d bin %d plane %d: bits set past D", d, precision, b, k)
					}
					for w := words; w < groups*groupWords; w++ {
						if im.planes[planeWord(groups, b, w, k)] != 0 {
							t.Fatalf("D=%d p=%d bin %d plane %d: padding word %d not zero", d, precision, b, k, w)
						}
					}
				}
			}
		}
	}
}

func TestItemMemoryDeterministic(t *testing.T) {
	a := NewItemMemory(256, 50, 3, 42)
	b := NewItemMemory(256, 50, 3, 42)
	for i := 0; i < 50; i++ {
		for j, v := range a.ID(i).Vals {
			if b.ID(i).Vals[j] != v {
				t.Fatalf("item memory not deterministic at id %d dim %d", i, j)
			}
		}
	}
	c := NewItemMemory(256, 50, 3, 43)
	same := true
	for j, v := range a.ID(0).Vals {
		if c.ID(0).Vals[j] != v {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical item memory")
	}
}

func TestItemMemoryShape(t *testing.T) {
	im := NewItemMemory(128, 10, 2, 1)
	if im.NumBins() != 10 || im.D != 128 || im.Precision != 2 {
		t.Errorf("shape: %+v", im)
	}
	for i := 0; i < 10; i++ {
		if len(im.ID(i).Vals) != 128 {
			t.Fatalf("ID %d has D=%d", i, len(im.ID(i).Vals))
		}
	}
}

func TestItemMemoryPrecisionClamp(t *testing.T) {
	im := NewItemMemory(64, 5, 9, 1)
	if im.Precision != 3 {
		t.Errorf("precision = %d, want clamp to 3", im.Precision)
	}
	im0 := NewItemMemory(64, 5, 0, 1)
	if im0.Precision != 1 {
		t.Errorf("precision = %d, want clamp to 1", im0.Precision)
	}
}

func TestItemMemoryPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewItemMemory(0, 10, 1, 1)
}

func TestFlipLevelSetMonotoneSimilarity(t *testing.T) {
	d, q := 4096, 16
	ls := NewFlipLevelSet(d, q, 9)
	if ls.Q() != q || ls.D() != d {
		t.Fatalf("shape: Q=%d D=%d", ls.Q(), ls.D())
	}
	l0 := ls.Level(0)
	prev := d + 1
	for j := 1; j < q; j++ {
		sim := hammingSimilarity(l0, ls.Level(j))
		if sim >= prev {
			t.Errorf("similarity not strictly decreasing at level %d: %d >= %d", j, sim, prev)
		}
		prev = sim
	}
	// Adjacent levels differ by exactly D/(2Q) bits.
	step := d / (2 * q)
	for j := 1; j < q; j++ {
		if got := HammingDistance(ls.Level(j-1), ls.Level(j)); got != step {
			t.Errorf("level step %d distance = %d, want %d", j, got, step)
		}
	}
	// Extremes differ by about half the dimensions.
	dist := HammingDistance(l0, ls.Level(q-1))
	want := step * (q - 1)
	if dist != want {
		t.Errorf("l0 vs l%d distance = %d, want %d", q-1, dist, want)
	}
}

func TestFlipLevelSetClampsLevelIndex(t *testing.T) {
	ls := NewFlipLevelSet(256, 8, 1)
	if !slices.Equal(ls.Level(-3).Words, ls.Level(0).Words) {
		t.Error("negative level not clamped")
	}
	if !slices.Equal(ls.Level(99).Words, ls.Level(7).Words) {
		t.Error("overflow level not clamped")
	}
}

func TestFlipLevelSetTinyDimension(t *testing.T) {
	// D < 2Q forces step=1; must not panic or run out of bits badly.
	ls := NewFlipLevelSet(8, 16, 2)
	if ls.Q() != 16 {
		t.Fatalf("Q = %d", ls.Q())
	}
	_ = ls.Level(15)
}

func TestChunkedLevelSetStructure(t *testing.T) {
	d, q, c := 1024, 16, 64
	ls := NewChunkedLevelSet(d, q, c, 11)
	if ls.NumChunks() != c || ls.Q() != q || ls.D() != d {
		t.Fatalf("shape: %d %d %d", ls.NumChunks(), ls.Q(), ls.D())
	}
	// Every chunk of every level is constant.
	for j := 0; j < q; j++ {
		h := ls.Level(j)
		for ch := 0; ch < c; ch++ {
			lo, hi := ls.ChunkBounds(ch)
			want := h.Bit(lo)
			for i := lo; i < hi; i++ {
				if h.Bit(i) != want {
					t.Fatalf("level %d chunk %d not constant at dim %d", j, ch, i)
				}
			}
			if int8(want) != ls.ChunkValue(j, ch) {
				t.Fatalf("ChunkValue mismatch at level %d chunk %d", j, ch)
			}
		}
	}
}

func TestChunkedLevelSetMonotone(t *testing.T) {
	ls := NewChunkedLevelSet(4096, 16, 128, 12)
	l0 := ls.Level(0)
	prev := 4097
	for j := 1; j < 16; j++ {
		sim := hammingSimilarity(l0, ls.Level(j))
		if sim >= prev {
			t.Errorf("chunked similarity not decreasing at level %d", j)
		}
		prev = sim
	}
}

func TestChunkedLevelSetClampsChunks(t *testing.T) {
	// chunks below 2Q clamp up; chunks above D clamp down.
	ls := NewChunkedLevelSet(1000, 16, 4, 13)
	if ls.NumChunks() != 32 {
		t.Errorf("chunks = %d, want 32", ls.NumChunks())
	}
	ls2 := NewChunkedLevelSet(20, 8, 500, 13)
	if ls2.NumChunks() != 20 {
		t.Errorf("chunks = %d, want 20", ls2.NumChunks())
	}
}

func TestChunkBoundsCoverAllDims(t *testing.T) {
	f := func(dRaw, cRaw uint16) bool {
		d := int(dRaw%2000) + 64
		ls := NewChunkedLevelSet(d, 8, int(cRaw%128)+16, 5)
		covered := 0
		prevHi := 0
		for c := 0; c < ls.NumChunks(); c++ {
			lo, hi := ls.ChunkBounds(c)
			if lo != prevHi || hi < lo {
				return false
			}
			covered += hi - lo
			prevHi = hi
		}
		return covered == d && prevHi == d
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestChunkedLevelCache(t *testing.T) {
	ls := NewChunkedLevelSet(512, 8, 32, 14)
	a := ls.Level(3)
	b := ls.Level(3)
	if &a.Words[0] != &b.Words[0] {
		t.Error("level cache not reused")
	}
}
