package units

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

// within reports whether offset lies in w's closed interval.
func within(w MassWindow, offset float64) bool { return offset >= w.Lower && offset <= w.Upper }

func TestDaToleranceContains(t *testing.T) {
	w := StandardWindow(1000, Da(0.5))
	if !within(w, 0.5) {
		t.Errorf("1000.5 should be within 0.5 Da of 1000")
	}
	if within(w, 0.51) {
		t.Errorf("1000.51 should be outside 0.5 Da of 1000")
	}
	if !within(w, -0.5) {
		t.Errorf("999.5 should be within 0.5 Da of 1000")
	}
}

func TestPPMToleranceContains(t *testing.T) {
	// 10 ppm of 1000 Da = 0.01 Da.
	w := StandardWindow(1000, Tolerance{Value: 10, PPM: true})
	if !within(w, 0.009) {
		t.Errorf("1000.009 should be within 10 ppm of 1000")
	}
	if within(w, 0.011) {
		t.Errorf("1000.011 should be outside 10 ppm of 1000")
	}
}

func TestToleranceDelta(t *testing.T) {
	if got := Da(0.25).Delta(5000); got != 0.25 {
		t.Errorf("Da delta = %v, want 0.25", got)
	}
	if got := (Tolerance{Value: 20, PPM: true}).Delta(500); !almostEqual(got, 0.01, 1e-12) {
		t.Errorf("PPM delta = %v, want 0.01", got)
	}
}

func TestToleranceWindow(t *testing.T) {
	// A Dalton tolerance's window does not scale with the reference.
	for _, ref := range []float64{100, 5000} {
		if w := StandardWindow(ref, Da(1)); w.Lower != -1 || w.Upper != 1 {
			t.Errorf("window around %v = %v, want [-1, +1] Da", ref, w)
		}
	}
}

func TestToleranceString(t *testing.T) {
	if s := Da(0.5).String(); s != "0.5 Da" {
		t.Errorf("String = %q", s)
	}
	if s := (Tolerance{Value: 10, PPM: true}).String(); s != "10 ppm" {
		t.Errorf("String = %q", s)
	}
}

func TestOpenWindowNormalizes(t *testing.T) {
	w := OpenWindow(500, -150)
	if w.Lower != -150 || w.Upper != 500 {
		t.Errorf("OpenWindow should normalize order, got %+v", w)
	}
}

func TestStandardWindow(t *testing.T) {
	w := StandardWindow(2000, Tolerance{Value: 10, PPM: true})
	if !almostEqual(w.Upper, 0.02, 1e-9) || !almostEqual(w.Lower, -0.02, 1e-9) {
		t.Errorf("StandardWindow = %+v", w)
	}
}

func TestMZRoundTrip(t *testing.T) {
	for _, charge := range []int{1, 2, 3, 4} {
		mass := 1234.5678
		mz := NeutralMassToMZ(mass, charge)
		back := (mz - ProtonMass) * float64(charge)
		if !almostEqual(mass, back, 1e-9) {
			t.Errorf("charge %d: round trip %v -> %v", charge, mass, back)
		}
	}
}

func TestMZChargeZeroTreatedAsOne(t *testing.T) {
	if got, want := NeutralMassToMZ(100, 0), NeutralMassToMZ(100, 1); got != want {
		t.Errorf("charge 0 mz = %v, want %v", got, want)
	}
	if got, want := NeutralMassToMZ(100, -2), NeutralMassToMZ(100, 1); got != want {
		t.Errorf("charge -2 mz = %v, want %v", got, want)
	}
}

func TestMZRoundTripProperty(t *testing.T) {
	f := func(mass float64, charge uint8) bool {
		m := math.Mod(math.Abs(mass), 5000) + 100
		c := int(charge%4) + 1
		back := (NeutralMassToMZ(m, c) - ProtonMass) * float64(c)
		return almostEqual(m, back, 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestToleranceSymmetryProperty(t *testing.T) {
	f := func(ref float64, off float64) bool {
		r := math.Mod(math.Abs(ref), 4000) + 200
		o := math.Mod(off, 1.0)
		// Window containment must be symmetric in the offset sign.
		for _, tol := range []Tolerance{Da(0.5), {Value: 200, PPM: true}} {
			w := StandardWindow(r, tol)
			if within(w, o) != within(w, -o) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
