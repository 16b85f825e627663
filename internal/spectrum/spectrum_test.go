package spectrum

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func makeSpec(id string, mz float64, charge int, peaks ...Peak) *Spectrum {
	return &Spectrum{ID: id, PrecursorMZ: mz, Charge: charge, Peaks: peaks}
}

func TestPrecursorMass(t *testing.T) {
	s := makeSpec("a", 500.0, 2)
	want := (500.0 - protonMass) * 2
	if got := s.PrecursorMass(); math.Abs(got-want) > 1e-9 {
		t.Errorf("PrecursorMass = %v, want %v", got, want)
	}
}

func TestPrecursorMassZeroCharge(t *testing.T) {
	s := &Spectrum{PrecursorMZ: 500}
	if got := s.PrecursorMass(); math.Abs(got-(500-protonMass)) > 1e-9 {
		t.Errorf("zero charge treated as 1, got %v", got)
	}
}

func TestSortPeaksAndBasePeak(t *testing.T) {
	s := makeSpec("a", 500, 2,
		Peak{MZ: 300, Intensity: 10},
		Peak{MZ: 100, Intensity: 50},
		Peak{MZ: 200, Intensity: 5},
	)
	s.SortPeaks()
	for i := 1; i < len(s.Peaks); i++ {
		if s.Peaks[i-1].MZ > s.Peaks[i].MZ {
			t.Fatal("peaks not sorted")
		}
	}
	if bp := s.BasePeak(); bp.Intensity != 50 {
		t.Errorf("base peak = %v", bp)
	}
}

func TestCloneIsDeep(t *testing.T) {
	s := makeSpec("a", 500, 2, Peak{MZ: 100, Intensity: 1})
	c := s.Clone()
	c.Peaks[0].Intensity = 99
	if s.Peaks[0].Intensity != 1 {
		t.Error("Clone shares peak storage")
	}
}

func TestValidate(t *testing.T) {
	good := makeSpec("g", 500, 2, Peak{MZ: 100, Intensity: 1})
	if err := good.Validate(); err != nil {
		t.Errorf("valid spectrum rejected: %v", err)
	}
	bad := []*Spectrum{
		makeSpec("b1", -1, 2),
		makeSpec("b2", 500, 0),
		makeSpec("b3", 500, 2, Peak{MZ: -5, Intensity: 1}),
		makeSpec("b4", 500, 2, Peak{MZ: 100, Intensity: math.NaN()}),
		makeSpec("b5", 500, 2, Peak{MZ: math.Inf(1), Intensity: 1}),
		makeSpec("b6", math.NaN(), 2),
		makeSpec("b7", math.Inf(1), 2),
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spectrum %s should fail validation", s.ID)
		}
	}
}

func TestPreprocessNoiseFilter(t *testing.T) {
	cfg := DefaultPreprocess()
	cfg.MinPeaks = 1
	cfg.Norm = NormNone
	s := makeSpec("a", 900, 2,
		Peak{MZ: 200, Intensity: 1000},
		Peak{MZ: 300, Intensity: 9},  // below 1% of 1000
		Peak{MZ: 400, Intensity: 10}, // exactly 1%: kept
		Peak{MZ: 500, Intensity: 500},
	)
	out, err := cfg.Preprocess(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Peaks) != 3 {
		t.Fatalf("peaks after noise filter = %d, want 3", len(out.Peaks))
	}
	for _, p := range out.Peaks {
		if p.Intensity < 10 {
			t.Errorf("noise peak survived: %+v", p)
		}
	}
}

func TestPreprocessTopN(t *testing.T) {
	cfg := PreprocessConfig{MaxPeaks: 3, MinPeaks: 1, Norm: NormNone}
	s := makeSpec("a", 900, 2,
		Peak{MZ: 100, Intensity: 5},
		Peak{MZ: 200, Intensity: 50},
		Peak{MZ: 300, Intensity: 40},
		Peak{MZ: 400, Intensity: 30},
		Peak{MZ: 500, Intensity: 20},
	)
	out, err := cfg.Preprocess(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Peaks) != 3 {
		t.Fatalf("top-N kept %d peaks", len(out.Peaks))
	}
	// Strongest three, restored to m/z order.
	if out.Peaks[0].MZ != 200 || out.Peaks[1].MZ != 300 || out.Peaks[2].MZ != 400 {
		t.Errorf("wrong peaks kept: %+v", out.Peaks)
	}
}

func TestPreprocessMZRangeAndPrecursorRemoval(t *testing.T) {
	cfg := PreprocessConfig{
		MinPeaks: 1, MinMZ: 101, MaxMZ: 1500,
		RemovePrecursor: true, PrecursorTol: 1.5, Norm: NormNone,
	}
	s := makeSpec("a", 700, 2,
		Peak{MZ: 50, Intensity: 10},    // below range
		Peak{MZ: 699.5, Intensity: 10}, // within precursor window
		Peak{MZ: 800, Intensity: 10},
		Peak{MZ: 1600, Intensity: 10}, // above range
	)
	out, err := cfg.Preprocess(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Peaks) != 1 || out.Peaks[0].MZ != 800 {
		t.Errorf("kept peaks = %+v", out.Peaks)
	}
}

func TestPreprocessTooFewPeaks(t *testing.T) {
	cfg := DefaultPreprocess()
	s := makeSpec("a", 900, 2, Peak{MZ: 200, Intensity: 10})
	if _, err := cfg.Preprocess(s); !errors.Is(err, ErrTooFewPeaks) {
		t.Errorf("want ErrTooFewPeaks, got %v", err)
	}
}

func TestPreprocessDoesNotMutateInput(t *testing.T) {
	cfg := DefaultPreprocess()
	cfg.MinPeaks = 1
	s := makeSpec("a", 900, 2,
		Peak{MZ: 300, Intensity: 100}, Peak{MZ: 200, Intensity: 400},
		Peak{MZ: 500, Intensity: 25}, Peak{MZ: 400, Intensity: 16},
		Peak{MZ: 600, Intensity: 9},
	)
	before := make([]Peak, len(s.Peaks))
	copy(before, s.Peaks)
	if _, err := cfg.Preprocess(s); err != nil {
		t.Fatal(err)
	}
	for i := range before {
		if s.Peaks[i] != before[i] {
			t.Fatal("Preprocess mutated input")
		}
	}
}

func TestNormalizations(t *testing.T) {
	mk := func() *Spectrum {
		return makeSpec("a", 900, 2,
			Peak{MZ: 200, Intensity: 4},
			Peak{MZ: 300, Intensity: 9},
			Peak{MZ: 400, Intensity: 16},
		)
	}
	sq := mk()
	applyNormalization(sq.Peaks, NormSqrt)
	if sq.Peaks[0].Intensity != 2 || sq.Peaks[1].Intensity != 3 || sq.Peaks[2].Intensity != 4 {
		t.Errorf("sqrt norm: %+v", sq.Peaks)
	}
	un := mk()
	applyNormalization(un.Peaks, NormUnit)
	var ss float64
	for _, p := range un.Peaks {
		ss += p.Intensity * p.Intensity
	}
	if math.Abs(ss-1) > 1e-12 {
		t.Errorf("unit norm sum of squares = %v", ss)
	}
	rk := mk()
	applyNormalization(rk.Peaks, NormRank)
	if rk.Peaks[0].Intensity != 1 || rk.Peaks[1].Intensity != 2 || rk.Peaks[2].Intensity != 3 {
		t.Errorf("rank norm: %+v", rk.Peaks)
	}
	none := mk()
	applyNormalization(none.Peaks, NormNone)
	if none.Peaks[0].Intensity != 4 {
		t.Errorf("none norm changed intensities")
	}
}

func TestNormUnitZeroVector(t *testing.T) {
	s := makeSpec("a", 900, 2, Peak{MZ: 200, Intensity: 0})
	applyNormalization(s.Peaks, NormUnit) // must not divide by zero
	if s.Peaks[0].Intensity != 0 {
		t.Error("zero vector changed")
	}
}

func TestPreprocessPropertyInvariants(t *testing.T) {
	cfg := DefaultPreprocess()
	cfg.MinPeaks = 1
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(200)
		s := &Spectrum{ID: "p", PrecursorMZ: 300 + rng.Float64()*700, Charge: 1 + rng.Intn(3)}
		for i := 0; i < n; i++ {
			s.Peaks = append(s.Peaks, Peak{
				MZ:        50 + rng.Float64()*1800,
				Intensity: rng.Float64() * 1e4,
			})
		}
		out, err := cfg.Preprocess(s)
		if err != nil {
			return errors.Is(err, ErrTooFewPeaks)
		}
		if len(out.Peaks) > cfg.MaxPeaks {
			return false
		}
		for i := 1; i < len(out.Peaks); i++ {
			if out.Peaks[i-1].MZ > out.Peaks[i].MZ {
				return false
			}
		}
		for _, p := range out.Peaks {
			if p.MZ < cfg.MinMZ || p.MZ > cfg.MaxMZ {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// tiePeaks is a tie-heavy peak list: 13 distinct m/z values a quarter
// apart, visited out of order, under 12 distinct intensities.
func tiePeaks(n int) []Peak {
	peaks := make([]Peak, n)
	for i := range peaks {
		peaks[i] = Peak{MZ: 200 + 0.25*float64(i*7%13), Intensity: float64(i*5%4+1) + 0.1*float64(i%3)}
	}
	return peaks
}

// TestSortsKeepTheirTiePermutations pins where the prepare path's
// unstable sorts leave equal keys — equal m/z in SortPeaks, equal
// intensities at the top-N cut in Preprocess — to the outputs of the
// sort.Slice calls they replaced, captured as literals: every stored
// index and golden result was computed from those permutations.
func TestSortsKeepTheirTiePermutations(t *testing.T) {
	for n, want := range map[int][]float64{
		10: {1, 3.2, 1.1, 3, 1.2, 2.1, 4, 2.2, 4.1, 2},
		40: {2.1, 4, 3.2, 1, 1.1, 4, 3.2, 3, 2.2, 1.1, 1.2, 3, 4.1, 1.2, 2, 3.1, 3.1, 1, 4.2, 3.2, 1, 2.1, 2.1, 3.2, 4, 2.2, 4, 1.1, 2.2, 4.1, 3, 4.1, 2, 1.2, 2, 4.2, 3.1, 4.2, 1, 2.1},
		64: {1.1, 1, 2.1, 4, 3.2, 3, 1.1, 4, 2.2, 3.2, 1.2, 1.1, 3, 2.2, 4.1, 3, 2, 4.1, 1.2, 3.1, 4.2, 1.2, 3.1, 2, 1, 2.1, 4.2, 3.1, 3.2, 1, 3.2, 4, 1, 2.1, 4, 2.2, 2.1, 1.1, 3.2, 2.2, 4.1, 4, 1.1, 3, 1.2, 3, 4.1, 2, 2.2, 1.2, 4.1, 3.1, 4.2, 2, 1, 3.1, 2, 4.2, 2.1, 2.1, 3.2, 4.2, 1, 4},
	} {
		s := &Spectrum{Peaks: tiePeaks(n)}
		s.SortPeaks()
		for i, p := range s.Peaks {
			if i > 0 && p.MZ < s.Peaks[i-1].MZ {
				t.Fatalf("%d peaks: not sorted at %d", n, i)
			}
			if p.Intensity != want[i] {
				t.Fatalf("%d peaks: peak %d carries intensity %v, sort.Slice left %v there", n, i, p.Intensity, want[i])
			}
		}
		again := s.Clone()
		again.SortPeaks() // sorted input: returns at once, and would have been a no-op
		if !slices.Equal(again.Peaks, s.Peaks) {
			t.Fatalf("%d peaks: re-sorting a sorted list moved a peak", n)
		}
	}
	for n, want := range map[int][]Peak{
		40: {{200, 4}, {200.25, 4}, {200.25, 3.2}, {200.75, 4.1}, {201.25, 4.2}, {201.5, 3.2}, {201.75, 4}, {202, 4}, {202.25, 4.1}, {202.5, 4.1}, {202.75, 4.2}, {203, 4.2}},
		64: {{200.5, 4.1}, {200.75, 4.1}, {201, 4.2}, {201.25, 4.2}, {201.75, 4}, {202, 4.1}, {202, 4}, {202.25, 4.1}, {202.5, 4.2}, {202.5, 4.1}, {202.75, 4.2}, {203, 4.2}},
	} {
		cfg := PreprocessConfig{MaxPeaks: 12, Norm: NormNone}
		out, err := cfg.Preprocess(&Spectrum{PrecursorMZ: 900, Charge: 2, Peaks: tiePeaks(n)})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(out.Peaks, want) {
			t.Errorf("top 12 of %d peaks:\ngot  %v\nwant %v", n, out.Peaks, want)
		}
	}
}
