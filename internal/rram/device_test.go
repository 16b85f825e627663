package rram

import (
	"math"
	"testing"
	"time"
)

func TestLevelGridTargetsAndDecision(t *testing.T) {
	g := NewLevelGrid(4, 50)
	wants := []float64{0, 50.0 / 3, 100.0 / 3, 50}
	for l, w := range wants {
		if got := g.Target(l); math.Abs(got-w) > 1e-9 {
			t.Errorf("target(%d) = %v, want %v", l, got, w)
		}
		if got := g.Decide(w); got != l {
			t.Errorf("decide(%v) = %d, want %d", w, got, l)
		}
	}
	// Midpoint decisions.
	if g.Decide(8.0) != 0 || g.Decide(9.0) != 1 {
		t.Error("midpoint thresholds wrong")
	}
	// Clamps.
	if g.Decide(-5) != 0 || g.Decide(500) != 3 {
		t.Error("decision clamps wrong")
	}
	if g.Target(-1) != 0 || g.Target(99) != 50 {
		t.Error("target clamps wrong")
	}
}

func TestLevelGridSeparationShrinks(t *testing.T) {
	// Separation is the conductance distance between adjacent levels.
	separation := func(levels int) float64 {
		g := NewLevelGrid(levels, 50)
		return g.Target(1) - g.Target(0)
	}
	s2, s4, s8 := separation(2), separation(4), separation(8)
	if !(s2 > s4 && s4 > s8) {
		t.Errorf("separations not decreasing: %v %v %v", s2, s4, s8)
	}
}

func TestLevelGridMinLevels(t *testing.T) {
	g := NewLevelGrid(1, 50)
	if g.Levels != 2 {
		t.Errorf("levels clamp: %d", g.Levels)
	}
}

func TestDeviceProgramClamping(t *testing.T) {
	dev := NewDevice(DefaultDeviceConfig(), 1)
	var c Cell
	dev.Program(&c, -10)
	if c.target != 0 {
		t.Errorf("negative target not clamped: %v", c.target)
	}
	dev.Program(&c, 999)
	if c.target != 50 {
		t.Errorf("high target not clamped: %v", c.target)
	}
	if !c.programmed || c.target != 50 {
		t.Error("programmed cell state wrong")
	}
}

func TestDevicePanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewDevice(DeviceConfig{}, 1)
}

func TestConductanceSpreadGrowsWithTime(t *testing.T) {
	dev := NewDevice(DefaultDeviceConfig(), 2)
	n := 4000
	cells := make([]Cell, n)
	for i := range cells {
		dev.Program(&cells[i], 25)
	}
	spread := func(elapsed time.Duration) float64 {
		var sum, sum2 float64
		for i := range cells {
			g := dev.Conductance(&cells[i], elapsed)
			sum += g
			sum2 += g * g
		}
		mean := sum / float64(n)
		return math.Sqrt(sum2/float64(n) - mean*mean)
	}
	s0 := spread(0)
	s30 := spread(30 * time.Minute)
	s1d := spread(24 * time.Hour)
	if !(s0 < s30 && s30 < s1d*1.05) {
		t.Errorf("spread not growing: %v %v %v", s0, s30, s1d)
	}
	// Relaxation saturates: 1 day vs 2 days nearly identical.
	s2d := spread(48 * time.Hour)
	if math.Abs(s2d-s1d) > 0.25*s1d {
		t.Errorf("relaxation did not saturate: %v vs %v", s1d, s2d)
	}
}

func TestConductanceDriftsDownward(t *testing.T) {
	dev := NewDevice(DefaultDeviceConfig(), 3)
	n := 4000
	cells := make([]Cell, n)
	for i := range cells {
		dev.Program(&cells[i], 40)
	}
	mean := func(elapsed time.Duration) float64 {
		var sum float64
		for i := range cells {
			sum += dev.Conductance(&cells[i], elapsed)
		}
		return sum / float64(n)
	}
	if m0, m1 := mean(0), mean(24*time.Hour); m1 >= m0 {
		t.Errorf("no downward drift: %v -> %v", m0, m1)
	}
}

func TestUnprogrammedCellReadsNearZero(t *testing.T) {
	dev := NewDevice(DefaultDeviceConfig(), 4)
	var c Cell
	var sum float64
	for i := 0; i < 100; i++ {
		sum += dev.Conductance(&c, time.Hour)
	}
	if mean := sum / 100; mean > 1.0 {
		t.Errorf("unprogrammed mean conductance = %v", mean)
	}
}

func TestConductanceNonNegativeAndBounded(t *testing.T) {
	dev := NewDevice(DefaultDeviceConfig(), 5)
	var lo, hi Cell
	dev.Program(&lo, 0)
	dev.Program(&hi, 50)
	for i := 0; i < 1000; i++ {
		g0 := dev.Conductance(&lo, time.Hour)
		g1 := dev.Conductance(&hi, time.Hour)
		if g0 < 0 || g1 < 0 || g0 > 62.5 || g1 > 62.5 {
			t.Fatalf("conductance out of physical range: %v %v", g0, g1)
		}
	}
}

func TestHistogramShape(t *testing.T) {
	dev := NewDevice(DefaultDeviceConfig(), 6)
	grid := NewLevelGrid(4, 50)
	cells := make([]Cell, 2000)
	for i := range cells {
		dev.Program(&cells[i], grid.Target(i%4))
	}
	h := Histogram(dev, cells, 0, 50)
	total := 0
	for _, c := range h {
		total += c
	}
	if total != 2000 {
		t.Errorf("histogram total = %d", total)
	}
	if len(h) != 50 {
		t.Errorf("bins = %d", len(h))
	}
	// Expect 4 populated modes: count bins holding >2% of cells.
	modes := 0
	for _, c := range h {
		if c > 40 {
			modes++
		}
	}
	if modes < 4 {
		t.Errorf("histogram modes = %d, want >= 4 populated regions", modes)
	}
	if got := Histogram(dev, cells, 0, 0); len(got) != 1 {
		t.Error("numBins clamp failed")
	}
}
