package experiments

import (
	"fmt"
	"strings"

	"repro/internal/accel"
	"repro/internal/core"
	"repro/internal/msdata"
	"repro/internal/perf"
)

// Figure12 computes the speedup and energy-efficiency comparison
// (paper Fig. 12 and the §5.3.3 speedup text) on the paper-scale
// iPRG2012 workload using the analytical cost model.
func Figure12() []perf.Fig12Row {
	return perf.Figure12(perf.DefaultAccelModel(), perf.IPRG2012Workload())
}

// RenderFigure12 formats the comparison.
func RenderFigure12(rows []perf.Fig12Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 12: Energy efficiency and speedup vs ANN-SoLo (CPU)\n")
	fmt.Fprintf(&b, "%-16s %10s %18s\n", "Tool", "Speedup", "EnergyImprovement")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s %9.2fx %17.2fx\n", r.Name, r.Speedup, r.EnergyImprovement)
	}
	return b.String()
}

// Fig13Row is the identification count at one HD dimension for the
// ideal software path and the in-RRAM (3 bits/cell) path.
type Fig13Row struct {
	// D is the HD dimension.
	D int
	// Ideal is the noise-free identification count.
	Ideal int
	// InRRAM is the count under characterized chip errors.
	InRRAM int
}

// fig13Dims are the swept dimensions of Fig. 13.
var fig13Dims = []int{8192, 4096, 2048, 1024}

// Figure13 sweeps the HD dimension at 3-bit ID precision, comparing
// ideal search quality with the in-RRAM error model.
func Figure13(opts Options) ([]Fig13Row, error) {
	cfg := msdata.IPRG2012(opts.Scale)
	cfg.Seed += opts.Seed
	ds, err := msdata.Generate(cfg)
	if err != nil {
		return nil, err
	}
	dims := fig13Dims
	if opts.Quick {
		dims = []int{2048, 512}
	}
	var rows []Fig13Row
	for _, d := range dims {
		p := core.DefaultParams()
		p.Accel.D = d
		p.Accel.NumChunks = core.NumChunksFor(d)
		p.Accel.Seed = opts.Seed + int64(d)
		ideal, _, err := core.BuildExact(p, ds.Library)
		if err != nil {
			return nil, err
		}
		idealRes, err := ideal.Run(ds.Queries)
		if err != nil {
			return nil, err
		}
		// The in-RRAM noise: BER per bit is dimension-independent and
		// similarity noise scales with sqrt(D) through the per-group
		// accumulation — the same scaling accel.Characterize applies.
		spec := core.NoiseSpec{
			EncodeBER:     0.04,
			RefStorageBER: 0.02,
			SearchSigma:   0.004 * float64(d),
			Seed:          opts.Seed + int64(d) + 7,
		}
		noisy, err := core.BuildNoisy(p, ds.Library, spec)
		if err != nil {
			return nil, err
		}
		noisyRes, err := noisy.Run(ds.Queries)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig13Row{D: d, Ideal: len(idealRes.Accepted), InRRAM: len(noisyRes.Accepted)})
	}
	return rows, nil
}

// RenderFigure13 formats the dimension sweep.
func RenderFigure13(rows []Fig13Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 13: identifications vs HD dimension (ID precision = 3 bit)\n")
	fmt.Fprintf(&b, "%-8s %10s %16s\n", "D", "Ideal", "InRRAM(3b/cell)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8d %10d %16d\n", r.D, r.Ideal, r.InRRAM)
	}
	return b.String()
}

// ThroughputRow reports the §5.2.2 comparison against the prior MLC
// CIM macro [13].
type ThroughputRow struct {
	// Design names the configuration.
	Design string
	// Rows and Levels are the operating point.
	Rows, Levels int
	// RowSpeedup is relative concurrent-row throughput.
	RowSpeedup float64
}

// Throughput reports this design's row-activation advantage (16x).
func Throughput() []ThroughputRow {
	tc := accel.DefaultThroughputComparison()
	return []ThroughputRow{
		{Design: "MLC CIM macro [13]", Rows: tc.PriorRows, Levels: tc.PriorLevels, RowSpeedup: 1},
		{Design: "This Work", Rows: tc.ThisRows, Levels: tc.ThisLevels, RowSpeedup: tc.RowSpeedup()},
	}
}

// RenderThroughput formats the comparison.
func RenderThroughput(rows []ThroughputRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Section 5.2.2: concurrent row activation vs prior MLC CIM\n")
	fmt.Fprintf(&b, "%-20s %6s %8s %10s\n", "Design", "Rows", "Levels", "Speedup")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-20s %6d %8d %9.0fx\n", r.Design, r.Rows, r.Levels, r.RowSpeedup)
	}
	return b.String()
}

// StorageRow reports the MLC density claim.
type StorageRow struct {
	// BitsPerCell is the density configuration.
	BitsPerCell int
	// HVs8k is the number of 8192-dim hypervectors storable on the
	// 3M-cell chip.
	HVs8k int
	// VsSLC is the density improvement over SLC.
	VsSLC float64
}

// Storage reports the chip capacity at each density (the 3x claim).
func Storage() []StorageRow {
	var rows []StorageRow
	for bits := 1; bits <= 3; bits++ {
		spec := accel.DefaultChipSpec()
		spec.BitsPerCell = bits
		rows = append(rows, StorageRow{
			BitsPerCell: bits,
			HVs8k:       spec.HypervectorsStorable(8192),
			VsSLC:       spec.DensityVsSLC(),
		})
	}
	return rows
}

// RenderStorage formats the capacity table.
func RenderStorage(rows []StorageRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Storage capacity (3M-cell chip, 8192-dim hypervectors)\n")
	fmt.Fprintf(&b, "%-12s %12s %8s\n", "bits/cell", "HVs storable", "vs SLC")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12d %12d %7.0fx\n", r.BitsPerCell, r.HVs8k, r.VsSLC)
	}
	return b.String()
}
