package perf

import (
	"math"
	"testing"
	"time"
)

func TestEncodeCyclesPerQuery(t *testing.T) {
	w := IPRG2012Workload()
	// 100 peaks / 64 rows -> 2 batches x 256 chunks = 512 cycles.
	if got := EncodeCyclesPerQuery(w); got != 512 {
		t.Errorf("encode cycles = %d, want 512", got)
	}
}

func TestSearchCyclesPerQuery(t *testing.T) {
	w := IPRG2012Workload()
	// 250k candidates / (256 cols x 45 arrays) = 22 waves x 128 groups.
	if got := SearchCyclesPerQuery(w); got != 22*128 {
		t.Errorf("search cycles = %d, want %d", got, 22*128)
	}
}

func TestAcceleratorCostPositive(t *testing.T) {
	m := DefaultAccelModel()
	c := m.Accelerator(IPRG2012Workload())
	if c.Total <= 0 || c.Energy <= 0 {
		t.Fatalf("cost: %+v", c)
	}
	perQ := c.Total / time.Duration(IPRG2012Workload().NumQueries)
	if perQ < 50*time.Microsecond || perQ > 10*time.Millisecond {
		t.Errorf("per-query latency %v outside plausible range", perQ)
	}
}

// TestPerQueryZeroQueries checks that a workload of no queries costs
// the accelerator no time and no energy.
func TestPerQueryZeroQueries(t *testing.T) {
	w := IPRG2012Workload()
	w.NumQueries = 0
	if c := DefaultAccelModel().Accelerator(w); c.Total != 0 || c.Energy != 0 {
		t.Errorf("zero queries cost %v and %v J", c.Total, c.Energy)
	}
}

func TestFigure12ReproducesPaperRatios(t *testing.T) {
	rows := Figure12(DefaultAccelModel(), IPRG2012Workload())
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]Fig12Row{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	// Anchor: ANN-SoLo CPU at exactly 1x by construction.
	cpu := byName["ANN-SoLo (CPU)"]
	if math.Abs(cpu.Speedup-1) > 1e-9 || math.Abs(cpu.EnergyImprovement-1) > 1e-9 {
		t.Errorf("CPU anchor: %+v", cpu)
	}
	// Paper's speedups: this work 76.7x vs CPU, ANN-SoLo GPU
	// 76.7/24.8 = 3.09x, HyperOMS 76.7/1.7 = 45.1x.
	checks := []struct {
		name string
		speedup,
		energy float64
		tolFrac float64
	}{
		{"ANN-SoLo (GPU)", 76.7 / 24.8, 1.41, 0.05},
		{"HyperOMS (GPU)", 76.7 / 1.7, 5.44, 0.05},
		{"This Work", 76.7, 2993.61, 0.15},
	}
	for _, c := range checks {
		r, ok := byName[c.name]
		if !ok {
			t.Fatalf("missing row %s", c.name)
		}
		if math.Abs(r.Speedup-c.speedup) > c.speedup*c.tolFrac {
			t.Errorf("%s speedup = %v, want ~%v", c.name, r.Speedup, c.speedup)
		}
		if math.Abs(r.EnergyImprovement-c.energy) > c.energy*c.tolFrac {
			t.Errorf("%s energy = %v, want ~%v", c.name, r.EnergyImprovement, c.energy)
		}
	}
}

func TestSpeedupVsBaselines(t *testing.T) {
	rows := Figure12(DefaultAccelModel(), IPRG2012Workload())
	byName := map[string]Fig12Row{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	// §5.3.3: 1.7x vs HyperOMS, 24.8x vs ANN-SoLo GPU, 76.7x vs CPU.
	cases := []struct {
		name string
		want float64
	}{
		{"HyperOMS (GPU)", 1.7},
		{"ANN-SoLo (GPU)", 24.8},
		{"ANN-SoLo (CPU)", 76.7},
	}
	for _, c := range cases {
		got := byName["This Work"].Speedup / byName[c.name].Speedup
		if math.Abs(got-c.want) > c.want*0.01 {
			t.Errorf("speedup vs %s = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestEnergyOrdering(t *testing.T) {
	rows := Figure12(DefaultAccelModel(), IPRG2012Workload())
	byName := map[string]Fig12Row{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	if !(byName["This Work"].EnergyImprovement > byName["HyperOMS (GPU)"].EnergyImprovement &&
		byName["HyperOMS (GPU)"].EnergyImprovement > byName["ANN-SoLo (GPU)"].EnergyImprovement &&
		byName["ANN-SoLo (GPU)"].EnergyImprovement > 0.99) {
		t.Errorf("energy ordering broken: %+v", rows)
	}
	// Headline claim: 500x-3000x more energy efficient than the
	// state-of-the-art tools.
	worstRatio := byName["This Work"].EnergyImprovement / byName["HyperOMS (GPU)"].EnergyImprovement
	if worstRatio < 400 || worstRatio > 4000 {
		t.Errorf("energy efficiency vs best baseline = %v, want within 500-3000x band", worstRatio)
	}
}

func TestHEK293WorkloadScales(t *testing.T) {
	// HEK293 is the iPRG2012 operating point at 47k queries and 3M
	// references.
	ip := IPRG2012Workload()
	hek := ip
	hek.NumQueries, hek.NumRefs = 47000, 3000000
	m := DefaultAccelModel()
	ci, ch := m.Accelerator(ip), m.Accelerator(hek)
	if ch.Total <= ci.Total {
		t.Error("bigger workload should cost more time")
	}
	if ch.Energy <= ci.Energy {
		t.Error("bigger workload should cost more energy")
	}
}

func TestBaselineCostConstruction(t *testing.T) {
	accel := Cost{Name: "This Work", Total: time.Second, Energy: 1}
	b := Baseline(accel, BaselineFactor{Name: "X", Slowdown: 10, Power: 100})
	if b.Total != 10*time.Second {
		t.Errorf("baseline time = %v", b.Total)
	}
	if math.Abs(b.Energy-1000) > 1e-9 {
		t.Errorf("baseline energy = %v", b.Energy)
	}
}
