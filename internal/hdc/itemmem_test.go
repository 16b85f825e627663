package hdc

import (
	"math/rand"
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
		ids[i] = RandomIntHV(d, precision, rng)
	}
	return ids
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
				if got.D() != d {
					t.Fatalf("D=%d p=%d bin %d: unpacked D %d", d, precision, b, got.D())
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
		if im.ID(i).D() != 128 {
			t.Fatalf("ID %d has D=%d", i, im.ID(i).D())
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
		sim := HammingSimilarity(l0, ls.Level(j))
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
	if !ls.Level(-3).Equal(ls.Level(0)) {
		t.Error("negative level not clamped")
	}
	if !ls.Level(99).Equal(ls.Level(7)) {
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
		sim := HammingSimilarity(l0, ls.Level(j))
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
