package spectrum

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBinnerNumBins(t *testing.T) {
	b := DefaultBinner()
	if got := b.NumBins(); got != 1399 {
		t.Errorf("NumBins = %d, want 1399", got)
	}
	tiny := Binner{MinMZ: 0, MaxMZ: 0.5, BinWidth: 1}
	if tiny.NumBins() != 1 {
		t.Errorf("tiny binner NumBins = %d, want 1", tiny.NumBins())
	}
}

func TestBinnerBinEdges(t *testing.T) {
	b := Binner{MinMZ: 100, MaxMZ: 200, BinWidth: 1}
	cases := []struct {
		mz  float64
		bin int
		ok  bool
	}{
		{100.0, 0, true},
		{100.999, 0, true},
		{101.0, 1, true},
		{199.999, 99, true},
		{200.0, 0, false},
		{99.999, 0, false},
		{math.NaN(), 0, false},
	}
	for _, c := range cases {
		bin, ok := b.bin(c.mz, b.NumBins())
		if ok != c.ok || (ok && bin != c.bin) {
			t.Errorf("Bin(%v) = (%d,%v), want (%d,%v)", c.mz, bin, ok, c.bin, c.ok)
		}
	}
}

func TestBinCenterInverse(t *testing.T) {
	b := DefaultBinner()
	for _, i := range []int{0, 1, 700, b.NumBins() - 1} {
		c := b.MinMZ + (float64(i)+0.5)*b.BinWidth
		got, ok := b.bin(c, b.NumBins())
		if !ok || got != i {
			t.Errorf("Bin(centre of bin %d) = (%d,%v)", i, got, ok)
		}
	}
}

func TestVectorizeSumsSharedBins(t *testing.T) {
	b := Binner{MinMZ: 100, MaxMZ: 200, BinWidth: 1}
	s := makeSpec("a", 600, 2,
		Peak{MZ: 150.1, Intensity: 3},
		Peak{MZ: 150.9, Intensity: 4}, // same bin as above
		Peak{MZ: 151.5, Intensity: 5},
		Peak{MZ: 99, Intensity: 100}, // out of range
	)
	v := b.Vectorize(s)
	if len(v.Entries) != 2 {
		t.Fatalf("entries = %d, want 2", len(v.Entries))
	}
	if v.Entries[0].Bin != 50 || v.Entries[0].Intensity != 7 {
		t.Errorf("entry 0 = %+v", v.Entries[0])
	}
	if v.Entries[1].Bin != 51 || v.Entries[1].Intensity != 5 {
		t.Errorf("entry 1 = %+v", v.Entries[1])
	}
	if v.NumBins != 100 {
		t.Errorf("NumBins = %d", v.NumBins)
	}
}

func TestVectorizeSortedEntries(t *testing.T) {
	b := DefaultBinner()
	rng := rand.New(rand.NewSource(7))
	s := &Spectrum{ID: "r", PrecursorMZ: 600, Charge: 2}
	for i := 0; i < 100; i++ {
		s.Peaks = append(s.Peaks, Peak{MZ: 101 + rng.Float64()*1398, Intensity: rng.Float64()})
	}
	v := b.Vectorize(s)
	for i := 1; i < len(v.Entries); i++ {
		if v.Entries[i-1].Bin >= v.Entries[i].Bin {
			t.Fatal("entries not strictly sorted")
		}
	}
}

func TestDotAndCosine(t *testing.T) {
	a := Vector{Entries: []Entry{{1, 1}, {3, 2}, {5, 3}}, NumBins: 10}
	b := Vector{Entries: []Entry{{1, 4}, {4, 9}, {5, 1}}, NumBins: 10}
	if got := Dot(a, b); got != 1*4+3*1 {
		t.Errorf("Dot = %v, want 7", got)
	}
	// The cosine of identical vectors, Dot over the norms' product, is 1.
	if got := Dot(a, a) / (a.Norm() * a.Norm()); math.Abs(got-1) > 1e-12 {
		t.Errorf("cosine(a,a) = %v", got)
	}
	// A dot product with the empty vector is 0.
	if got := Dot(a, Vector{}); got != 0 {
		t.Errorf("Dot with empty = %v", got)
	}
}

func TestNormalizedAndScale(t *testing.T) {
	a := Vector{Entries: []Entry{{0, 3}, {1, 4}}, NumBins: 4}
	if got := a.Norm(); got != 5 {
		t.Errorf("Norm = %v", got)
	}
	n := a.Normalized()
	if math.Abs(n.Norm()-1) > 1e-12 {
		t.Errorf("Normalized norm = %v", n.Norm())
	}
	if a.Entries[0].Intensity != 3 {
		t.Error("Normalized mutated input")
	}
	z := Vector{}
	_ = z.Normalized() // must not panic
}

func TestShiftedDotMatchesShiftedPeaks(t *testing.T) {
	// Library peptide has fragments in bins 10, 20, 30.
	lib := Vector{Entries: []Entry{{10, 1}, {20, 1}, {30, 1}}, NumBins: 100}
	// Query: bins 10 (unmodified) and 25, 35 (shifted by +5 bins).
	q := Vector{Entries: []Entry{{10, 1}, {25, 1}, {35, 1}}, NumBins: 100}
	if got := Dot(q, lib); got != 1 {
		t.Errorf("plain dot = %v, want 1", got)
	}
	if got := ShiftedDot(q, lib, 5); got != 3 {
		t.Errorf("shifted dot = %v, want 3", got)
	}
	if got := ShiftedDot(q, lib, 0); got != 1 {
		t.Errorf("zero shift dot = %v, want 1", got)
	}
}

func TestShiftedDotNegativeShift(t *testing.T) {
	lib := Vector{Entries: []Entry{{50, 2}}, NumBins: 100}
	q := Vector{Entries: []Entry{{45, 3}}, NumBins: 100}
	if got := ShiftedDot(q, lib, -5); got != 6 {
		t.Errorf("negative shift dot = %v, want 6", got)
	}
}

func TestShiftedDotConsumesLibraryOnce(t *testing.T) {
	lib := Vector{Entries: []Entry{{10, 1}}, NumBins: 100}
	q := Vector{Entries: []Entry{{10, 1}, {15, 1}}, NumBins: 100}
	// Bin 10 matches unshifted; bin 15 would match lib bin 10 with
	// shift 5, but it is already consumed.
	if got := ShiftedDot(q, lib, 5); got != 1 {
		t.Errorf("library entry reused: dot = %v, want 1", got)
	}
}

func TestQuantizeLevels(t *testing.T) {
	v := Vector{Entries: []Entry{{0, 1}, {1, 5}, {2, 10}}, NumBins: 4}
	qp := v.Quantize(16)
	if qp[2].Level != 15 {
		t.Errorf("max intensity level = %d, want 15", qp[2].Level)
	}
	if qp[0].Level != 1 { // 1/10*15 = 1.5 -> 1
		t.Errorf("low intensity level = %d, want 1", qp[0].Level)
	}
	for _, p := range qp {
		if p.Level < 0 || p.Level > 15 {
			t.Errorf("level out of range: %+v", p)
		}
	}
}

func TestQuantizeDegenerate(t *testing.T) {
	v := Vector{Entries: []Entry{{0, 0}, {1, 0}}, NumBins: 4}
	for _, p := range v.Quantize(16) {
		if p.Level != 0 {
			t.Errorf("zero vector level = %d", p.Level)
		}
	}
	v2 := Vector{Entries: []Entry{{0, 5}}, NumBins: 4}
	if got := v2.Quantize(1); got[0].Level > 1 {
		t.Errorf("levels clamp failed: %d", got[0].Level)
	}
}

func TestDotCommutativityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mk := func() Vector {
			n := rng.Intn(50)
			ent := make([]Entry, 0, n)
			bin := 0
			for i := 0; i < n; i++ {
				bin += 1 + rng.Intn(5)
				ent = append(ent, Entry{Bin: bin, Intensity: rng.Float64()})
			}
			return Vector{Entries: ent, NumBins: 1000}
		}
		a, b := mk(), mk()
		return math.Abs(Dot(a, b)-Dot(b, a)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestCosineBoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mk := func() Vector {
			n := 1 + rng.Intn(30)
			ent := make([]Entry, 0, n)
			bin := 0
			for i := 0; i < n; i++ {
				bin += 1 + rng.Intn(7)
				ent = append(ent, Entry{Bin: bin, Intensity: rng.Float64() * 100})
			}
			return Vector{Entries: ent, NumBins: 1000}
		}
		// Cauchy-Schwarz: the cosine, Dot over the norms' product, lies
		// in [-1, 1].
		a, b := mk(), mk()
		c := Dot(a, b) / (a.Norm() * b.Norm())
		return c >= -1e-9 && c <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestVectorizeSumsInPeakOrder pins the per-bin sums bit for bit to the
// map-accumulating Vectorize this one replaced (outputs captured as
// literals): a dozen peaks per bin whose float sum depends on the order
// of addition, in m/z order and — the stable sort's job — out of it.
func TestVectorizeSumsInPeakOrder(t *testing.T) {
	b := Binner{MinMZ: 200, MaxMZ: 203, BinWidth: 1}
	for sorted, want := range map[bool][]uint64{
		true:  {0x4016000000000002, 0x401199999999999a, 0x401199999999999a},
		false: {0x4016000000000000, 0x401199999999999b, 0x401199999999999a},
	} {
		s := &Spectrum{Peaks: tiePeaks(40)}
		for i := range s.Peaks {
			s.Peaks[i].Intensity = 0.1 * float64(i%7+1)
		}
		if sorted {
			s.SortPeaks()
		}
		v := b.Vectorize(s)
		if v.NumBins != 3 || len(v.Entries) != 3 {
			t.Fatalf("sorted=%v: %d entries over %d bins, want 3 over 3", sorted, len(v.Entries), v.NumBins)
		}
		for i, e := range v.Entries {
			if e.Bin != i || math.Float64bits(e.Intensity) != want[i] {
				t.Errorf("sorted=%v entry %d: bin %d intensity %#x, want bin %d intensity %#x",
					sorted, i, e.Bin, math.Float64bits(e.Intensity), i, want[i])
			}
		}
	}
	// A bin's only peak at -0 summed to +0 in the map (0 + -0).
	v := b.Vectorize(&Spectrum{Peaks: []Peak{{MZ: 200.5, Intensity: math.Copysign(0, -1)}}})
	if len(v.Entries) != 1 || math.Signbit(v.Entries[0].Intensity) {
		t.Errorf("lone -0 peak: entries %v, want one +0", v.Entries)
	}
}
