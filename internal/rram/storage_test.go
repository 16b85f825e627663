package rram

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/hdc"
)

func newTestRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func TestHVStoreValidation(t *testing.T) {
	dev := quietDevice(1)
	if _, err := NewHVStore(dev, 0, 2); err == nil {
		t.Error("zero dimension accepted")
	}
	if _, err := NewHVStore(dev, 64, 0); err == nil {
		t.Error("zero bits accepted")
	}
	if _, err := NewHVStore(dev, 64, 4); err == nil {
		t.Error("4 bits accepted")
	}
}

func TestHVStoreCellsPerHV(t *testing.T) {
	dev := quietDevice(2)
	cases := []struct{ d, bits, want int }{
		{64, 1, 64}, {64, 2, 32}, {64, 3, 22}, {100, 3, 34},
	}
	for _, c := range cases {
		s, err := NewHVStore(dev, c.d, c.bits)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.CellsPerHV(); got != c.want {
			t.Errorf("CellsPerHV(d=%d, bits=%d) = %d, want %d", c.d, c.bits, got, c.want)
		}
	}
}

func TestHVStoreDensityImprovement(t *testing.T) {
	// The headline claim: 3 bits/cell yields 3x storage capacity.
	dev := quietDevice(3)
	s1, _ := NewHVStore(dev, 8192, 1)
	s3, _ := NewHVStore(dev, 8192, 3)
	ratio := float64(s1.CellsPerHV()) / float64(s3.CellsPerHV())
	if ratio < 2.99 {
		t.Errorf("density ratio = %v, want ~3x", ratio)
	}
}

func TestHVStoreRoundTripQuietDevice(t *testing.T) {
	dev := quietDevice(4)
	rng := newTestRNG(5)
	for bits := 1; bits <= 3; bits++ {
		s, err := NewHVStore(dev, 515, bits) // odd D exercises padding
		if err != nil {
			t.Fatal(err)
		}
		h := hdc.RandomBinaryHV(515, rng)
		idx, err := s.Store(h)
		if err != nil {
			t.Fatal(err)
		}
		back, err := s.Load(idx, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(h.Words, back.Words) {
			t.Errorf("bits=%d: round trip corrupted %d bits",
				bits, hdc.HammingDistance(h, back))
		}
	}
}

func TestHVStoreDimensionMismatch(t *testing.T) {
	dev := quietDevice(6)
	s, _ := NewHVStore(dev, 128, 2)
	if _, err := s.Store(hdc.NewBinaryHV(64)); err == nil {
		t.Error("dimension mismatch accepted")
	}
	if _, err := s.Load(0, 0); err == nil {
		t.Error("load of missing hypervector accepted")
	}
	if _, err := s.Load(-1, 0); err == nil {
		t.Error("negative index accepted")
	}
}

func TestHVStoreLen(t *testing.T) {
	dev := quietDevice(7)
	s, _ := NewHVStore(dev, 64, 1)
	rng := newTestRNG(8)
	for i := 0; i < 5; i++ {
		idx, err := s.Store(hdc.RandomBinaryHV(64, rng))
		if err != nil {
			t.Fatal(err)
		}
		if idx != i {
			t.Errorf("store %d returned index %d", i, idx)
		}
	}
	if len(s.cells) != 5 || s.CellsPerHV() != 64 {
		t.Errorf("stored %d hypervectors of %d cells", len(s.cells), s.CellsPerHV())
	}
}

func TestBitErrorRateOrdering(t *testing.T) {
	// Fig. 7's essential shape: BER(3b) > BER(2b) > BER(1b) and BER
	// grows with time for MLC.
	elapsedDay := 24 * time.Hour
	ber := func(bits int, elapsed time.Duration) float64 {
		dev := NewDevice(DefaultDeviceConfig(), int64(100+bits))
		r, err := BitErrorRate(dev, 2048, bits, 12, elapsed)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	b1, b2, b3 := ber(1, elapsedDay), ber(2, elapsedDay), ber(3, elapsedDay)
	if !(b3 > b2 && b2 > b1) {
		t.Errorf("BER ordering wrong: 1b=%v 2b=%v 3b=%v", b1, b2, b3)
	}
	// Paper bands at one day: 1b ≈ 0, 2b low single digits, 3b ~8-14%.
	if b1 > 0.005 {
		t.Errorf("1 bit/cell BER = %v, want ~0", b1)
	}
	if b2 < 0.002 || b2 > 0.06 {
		t.Errorf("2 bits/cell BER = %v, want low single digit %%", b2)
	}
	if b3 < 0.05 || b3 > 0.18 {
		t.Errorf("3 bits/cell BER = %v, want ~8-14%%", b3)
	}
	// Time growth for 3 bits/cell.
	early := ber(3, time.Second)
	if early >= b3 {
		t.Errorf("3b BER should grow with time: 1s=%v 1day=%v", early, b3)
	}
}

func TestGrayCodeRoundTrip(t *testing.T) {
	for v := 0; v < 8; v++ {
		if fromGray(toGray(v)) != v {
			t.Errorf("gray round trip failed for %d", v)
		}
	}
	// Adjacent values differ in exactly one bit under Gray coding.
	for v := 0; v < 7; v++ {
		x := toGray(v) ^ toGray(v+1)
		if x&(x-1) != 0 {
			t.Errorf("gray(%d) and gray(%d) differ in >1 bit", v, v+1)
		}
	}
}

func TestGrayHVStoreRoundTripQuietDevice(t *testing.T) {
	dev := quietDevice(20)
	rng := newTestRNG(21)
	for bits := 1; bits <= 3; bits++ {
		s, err := NewGrayHVStore(dev, 515, bits)
		if err != nil {
			t.Fatal(err)
		}
		h := hdc.RandomBinaryHV(515, rng)
		idx, err := s.Store(h)
		if err != nil {
			t.Fatal(err)
		}
		back, err := s.Load(idx, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(h.Words, back.Words) {
			t.Errorf("gray bits=%d: corrupted %d bits", bits, hdc.HammingDistance(h, back))
		}
	}
}

func TestGrayCodingReducesBER(t *testing.T) {
	// The ablation claim: Gray coding lowers MLC storage BER because
	// one-level slips flip one bit instead of several.
	dev1 := NewDevice(DefaultDeviceConfig(), 200)
	plain, err := BitErrorRate(dev1, 4096, 3, 10, 24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	dev2 := NewDevice(DefaultDeviceConfig(), 200)
	gray, err := GrayBitErrorRate(dev2, 4096, 3, 10, 24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if gray >= plain {
		t.Errorf("gray BER %v not below plain BER %v", gray, plain)
	}
}
