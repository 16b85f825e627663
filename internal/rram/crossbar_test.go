package rram

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

func quietDevice(seed int64) *Device {
	// A near-ideal device for functional (non-noise) tests.
	cfg := DefaultDeviceConfig()
	cfg.ProgramSigma = 1e-6
	cfg.RelaxSigmaInf = 1e-6
	cfg.ReadSigma = 1e-6
	cfg.RelaxDriftFrac = 0
	return NewDevice(cfg, seed)
}

func TestNewCrossbarValidation(t *testing.T) {
	dev := quietDevice(1)
	bad := []CrossbarConfig{
		{Rows: 0, Cols: 4, ADCBits: 6},
		{Rows: 3, Cols: 4, ADCBits: 6},
		{Rows: 4, Cols: 0, ADCBits: 6},
		{Rows: 4, Cols: 4, ADCBits: 0},
		{Rows: 4, Cols: 4, ADCBits: 20},
	}
	for i, cfg := range bad {
		if _, err := NewCrossbar(cfg, dev); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	cfg := CrossbarConfig{Rows: 256, Cols: 256, ADCBits: 6, MaxActiveRows: 9999, WeightBits: 3}
	x, err := NewCrossbar(cfg, dev)
	if err != nil {
		t.Fatal(err)
	}
	if x.cfg.MaxActiveRows != cfg.Rows/2 {
		t.Errorf("MaxActiveRows not clamped: %d", x.cfg.MaxActiveRows)
	}
}

func TestWeightMax(t *testing.T) {
	for _, c := range []struct{ bits, want int }{{1, 1}, {2, 2}, {3, 4}, {0, 1}, {9, 4}} {
		cfg := CrossbarConfig{WeightBits: c.bits}
		if got := cfg.WeightMax(); got != float64(c.want) {
			t.Errorf("WeightMax(%d) = %v, want %d", c.bits, got, c.want)
		}
	}
}

func TestProgramWeightsBounds(t *testing.T) {
	dev := quietDevice(2)
	x, _ := NewCrossbar(CrossbarConfig{Rows: 8, Cols: 4, ADCBits: 8, WeightBits: 1}, dev)
	if err := x.ProgramWeights(make([][]float64, 5)); err == nil {
		t.Error("too many weight rows accepted")
	}
	if err := x.ProgramWeights([][]float64{make([]float64, 9)}); err == nil {
		t.Error("too many weight cols accepted")
	}
	if err := x.ProgramWeights([][]float64{{1, -1}}); err != nil {
		t.Error(err)
	}
}

func TestDifferentialMappingEquations(t *testing.T) {
	// Verify Eqs. 2-3 for a known weight on a quiet device.
	dev := quietDevice(3)
	x, _ := NewCrossbar(CrossbarConfig{Rows: 4, Cols: 2, ADCBits: 8, WeightBits: 3}, dev)
	if err := x.ProgramWeights([][]float64{{2, -4}}); err != nil {
		t.Fatal(err)
	}
	gmax := dev.cfg.GMax
	// W=2, Wmax=4: g+ = (1+0.5)/2*gmax = 37.5, g- = 12.5.
	if g := x.cells[0][0].target; math.Abs(g-0.75*gmax) > 1e-9 {
		t.Errorf("g+ = %v, want %v", g, 0.75*gmax)
	}
	if g := x.cells[1][0].target; math.Abs(g-0.25*gmax) > 1e-9 {
		t.Errorf("g- = %v, want %v", g, 0.25*gmax)
	}
	// W=-4: g+ = 0, g- = gmax.
	if g := x.cells[0][1].target; g != 0 {
		t.Errorf("g+ = %v, want 0", g)
	}
	if g := x.cells[1][1].target; math.Abs(g-gmax) > 1e-9 {
		t.Errorf("g- = %v, want %v", g, gmax)
	}
}

func TestMVMMatchesIdealOnQuietDevice(t *testing.T) {
	dev := quietDevice(4)
	cfg := CrossbarConfig{Rows: 64, Cols: 16, ADCBits: 10, MaxActiveRows: 32, WeightBits: 1,
		SenseNoiseSigma: -1}
	x, _ := NewCrossbar(cfg, dev)
	rng := rand.New(rand.NewSource(5))
	weights := make([][]float64, 32)
	for i := range weights {
		weights[i] = make([]float64, 16)
		for j := range weights[i] {
			weights[i][j] = float64(rng.Intn(2)*2 - 1)
		}
	}
	if err := x.ProgramWeights(weights); err != nil {
		t.Fatal(err)
	}
	inputs := make([]float64, 32)
	for i := range inputs {
		inputs[i] = float64(rng.Intn(2)*2 - 1)
	}
	got, err := x.MVM(0, inputs, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := x.IdealMVM(0, inputs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for j := range got {
		// 10-bit ADC over ±32 range: LSB ≈ 0.06, allow 2 LSB.
		if math.Abs(got[j]-want[j]) > 0.2 {
			t.Errorf("col %d: MVM %v vs ideal %v", j, got[j], want[j])
		}
	}
}

func TestMVMValidation(t *testing.T) {
	dev := quietDevice(6)
	x, _ := NewCrossbar(CrossbarConfig{Rows: 16, Cols: 4, ADCBits: 6, MaxActiveRows: 4, WeightBits: 1}, dev)
	if _, err := x.MVM(0, nil, nil, 0); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := x.MVM(0, make([]float64, 5), nil, 0); err == nil {
		t.Error("over-limit active rows accepted")
	}
	if _, err := x.MVM(7, make([]float64, 4), nil, 0); err == nil {
		t.Error("out-of-range pair window accepted")
	}
	if _, err := x.MVM(0, make([]float64, 2), []int{9}, 0); err == nil {
		t.Error("bad column accepted")
	}
	if _, err := x.IdealMVM(7, make([]float64, 4), nil); err == nil {
		t.Error("IdealMVM out-of-range accepted")
	}
}

func TestMVMErrorGrowsWithActivatedRows(t *testing.T) {
	// The Fig. 9 mechanism: with fixed ADC bits, more activated rows
	// means larger quantization error in weight units.
	rmseAt := func(n int) float64 {
		dev := NewDevice(DefaultDeviceConfig(), 8)
		cfg := CrossbarConfig{Rows: 256, Cols: 32, ADCBits: 6, MaxActiveRows: 128, WeightBits: 1}
		x, _ := NewCrossbar(cfg, dev)
		rng := rand.New(rand.NewSource(9))
		weights := make([][]float64, 128)
		for i := range weights {
			weights[i] = make([]float64, 32)
			for j := range weights[i] {
				weights[i][j] = float64(rng.Intn(2)*2 - 1)
			}
		}
		if err := x.ProgramWeights(weights); err != nil {
			t.Fatal(err)
		}
		var se, sw float64
		for trial := 0; trial < 20; trial++ {
			inputs := make([]float64, n)
			for i := range inputs {
				inputs[i] = float64(rng.Intn(2)*2 - 1)
			}
			got, err := x.MVM(0, inputs, nil, 2*time.Hour)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := x.IdealMVM(0, inputs, nil)
			for j := range got {
				d := got[j] - want[j]
				se += d * d
				sw += want[j] * want[j]
			}
		}
		// Signal-normalized RMSE, the paper's Fig. 9b metric: the MAC
		// signal grows as sqrt(N) while ADC error grows as N.
		return math.Sqrt(se / sw)
	}
	e16, e128 := rmseAt(16), rmseAt(128)
	if e128 <= e16 {
		t.Errorf("normalized RMSE should grow with rows: n=16 %v, n=128 %v", e16, e128)
	}
}

func TestMVMErrorGrowsWithWeightBits(t *testing.T) {
	// Binary weights stored on a higher-precision grid use a smaller
	// fraction of the conductance swing, raising relative error.
	rmseAt := func(bits int) float64 {
		dev := NewDevice(DefaultDeviceConfig(), 10)
		cfg := CrossbarConfig{Rows: 256, Cols: 32, ADCBits: 6, MaxActiveRows: 64, WeightBits: bits}
		x, _ := NewCrossbar(cfg, dev)
		rng := rand.New(rand.NewSource(11))
		weights := make([][]float64, 64)
		for i := range weights {
			weights[i] = make([]float64, 32)
			for j := range weights[i] {
				weights[i][j] = float64(rng.Intn(2)*2 - 1)
			}
		}
		if err := x.ProgramWeights(weights); err != nil {
			t.Fatal(err)
		}
		var se, sw float64
		for trial := 0; trial < 15; trial++ {
			inputs := make([]float64, 64)
			for i := range inputs {
				inputs[i] = float64(rng.Intn(2)*2 - 1)
			}
			got, err := x.MVM(0, inputs, nil, 2*time.Hour)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := x.IdealMVM(0, inputs, nil)
			for j := range got {
				d := got[j] - want[j]
				se += d * d
				sw += want[j] * want[j]
			}
		}
		return math.Sqrt(se / sw)
	}
	e1, e3 := rmseAt(1), rmseAt(3)
	if e3 <= e1 {
		t.Errorf("RMSE should grow with weight bits: 1b %v, 3b %v", e1, e3)
	}
}

func TestSenseNoiseConfig(t *testing.T) {
	if (CrossbarConfig{}).senseSigma() != DefaultSenseNoiseSigma {
		t.Error("zero should select the default sense noise")
	}
	if (CrossbarConfig{SenseNoiseSigma: -1}).senseSigma() != 0 {
		t.Error("negative should disable sense noise")
	}
	if (CrossbarConfig{SenseNoiseSigma: 0.01}).senseSigma() != 0.01 {
		t.Error("explicit value not honored")
	}
}

func TestSenseNoiseGrowsErrorWithRows(t *testing.T) {
	// Fixed voltage-referred noise costs N*Wmax in weight units, so
	// per-MAC error grows with activated rows even on a conductance-
	// quiet device.
	errAt := func(n int) float64 {
		dev := quietDevice(40)
		cfg := CrossbarConfig{Rows: 256, Cols: 8, ADCBits: 12,
			MaxActiveRows: 128, WeightBits: 1, SenseNoiseSigma: 0.01}
		x, _ := NewCrossbar(cfg, dev)
		rng := rand.New(rand.NewSource(41))
		weights := make([][]float64, 128)
		for i := range weights {
			weights[i] = make([]float64, 8)
			for j := range weights[i] {
				weights[i][j] = float64(rng.Intn(2)*2 - 1)
			}
		}
		if err := x.ProgramWeights(weights); err != nil {
			t.Fatal(err)
		}
		var se float64
		var cnt int
		for trial := 0; trial < 40; trial++ {
			inputs := make([]float64, n)
			for i := range inputs {
				inputs[i] = float64(rng.Intn(2)*2 - 1)
			}
			got, err := x.MVM(0, inputs, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := x.IdealMVM(0, inputs, nil)
			for j := range got {
				d := got[j] - want[j]
				se += d * d
				cnt++
			}
		}
		return math.Sqrt(se / float64(cnt))
	}
	e16, e128 := errAt(16), errAt(128)
	if e128 < 4*e16 {
		t.Errorf("sense-noise error should scale ~linearly with rows: 16 -> %v, 128 -> %v", e16, e128)
	}
}
