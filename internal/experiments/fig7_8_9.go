package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/accel"
	"repro/internal/core"
	"repro/internal/hdc"
	"repro/internal/rram"
	"repro/internal/spectrum"
)

// Fig7Row is the storage bit-error rate at one time point for 1/2/3
// bits per cell.
type Fig7Row struct {
	// Label names the time point ("After 1s", …, "1day").
	Label string
	// Elapsed is the time since programming.
	Elapsed time.Duration
	// BER[b-1] is the bit error rate at b bits per cell.
	BER [3]float64
}

// Figure7 measures hypervector storage bit-error rates over time
// (paper Fig. 7) on the simulated chip.
func Figure7(opts Options) ([]Fig7Row, error) {
	d := 2048
	count := 24
	if opts.Quick {
		d, count = 1024, 6
	}
	rows := make([]Fig7Row, 0, len(timePoints))
	for _, tp := range timePoints {
		row := Fig7Row{Label: tp.Label, Elapsed: tp.Elapsed}
		for bits := 1; bits <= 3; bits++ {
			dev := rram.NewDevice(rram.DefaultDeviceConfig(), opts.Seed+int64(bits)*17)
			ber, err := rram.BitErrorRate(dev, d, bits, count, tp.Elapsed)
			if err != nil {
				return nil, err
			}
			row.BER[bits-1] = ber
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderFigure7 formats the storage error series.
func RenderFigure7(rows []Fig7Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 7: Bit Error Rate from Storage (%%)\n")
	fmt.Fprintf(&b, "%-10s %12s %12s %12s\n", "Time", "1 bit/cell", "2 bits/cell", "3 bits/cell")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %12.3f %12.3f %12.3f\n",
			r.Label, r.BER[0]*100, r.BER[1]*100, r.BER[2]*100)
	}
	return b.String()
}

// Fig8Data holds the conductance histograms of one cell configuration
// over the four time points (paper Fig. 8).
type Fig8Data struct {
	// Levels is the number of conductance levels (2, 4 or 8).
	Levels int
	// Histograms[t] is the binned conductance distribution at time
	// point t.
	Histograms [][]int
	// NumBins is the histogram resolution.
	NumBins int
}

// Figure8 programs a cell population uniformly across the level grid
// and collects conductance histograms at each time point.
func Figure8(opts Options) ([]Fig8Data, error) {
	cells := 6000
	numBins := 50
	if opts.Quick {
		cells = 1200
	}
	var out []Fig8Data
	for _, levels := range []int{2, 4, 8} {
		dev := rram.NewDevice(rram.DefaultDeviceConfig(), opts.Seed+int64(levels))
		grid := rram.NewLevelGrid(levels, rram.DefaultDeviceConfig().GMax)
		pop := make([]rram.Cell, cells)
		for i := range pop {
			dev.Program(&pop[i], grid.Target(i%levels))
		}
		data := Fig8Data{Levels: levels, NumBins: numBins}
		for _, tp := range timePoints {
			data.Histograms = append(data.Histograms, rram.Histogram(dev, pop, tp.Elapsed, numBins))
		}
		out = append(out, data)
	}
	return out, nil
}

// RenderFigure8 formats the histograms as compact sparklines.
func RenderFigure8(data []Fig8Data) string {
	glyphs := []rune(" .:-=+*#%@")
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 8: Conductance relaxation effect (histograms over 0-62.5 uS)\n")
	for _, d := range data {
		fmt.Fprintf(&b, "%d-level cells:\n", d.Levels)
		for t, h := range d.Histograms {
			maxC := 1
			for _, c := range h {
				if c > maxC {
					maxC = c
				}
			}
			var line strings.Builder
			for _, c := range h {
				g := c * (len(glyphs) - 1) / maxC
				line.WriteRune(glyphs[g])
			}
			fmt.Fprintf(&b, "  %-9s |%s|\n", timePoints[t].Label, line.String())
		}
	}
	return b.String()
}

// Fig9Row is the computation error at one activated-row count for
// 1/2/3 bits per cell.
type Fig9Row struct {
	// Rows is the number of activated rows.
	Rows int
	// Err[b-1] is the error at b bits per cell: encoding bit-error
	// fraction for Fig. 9a, signal-normalized RMSE for Fig. 9b.
	Err [3]float64
}

// fig9RowCounts returns the swept activated-row counts.
func fig9RowCounts(quick bool) []int {
	if quick {
		return []int{16, 64, 128}
	}
	return []int{16, 32, 48, 64, 80, 96, 112, 128}
}

// Figure9Encoding measures in-memory encoding bit errors versus
// activated rows (paper Fig. 9a). Bits per cell maps to the ID
// hypervector precision stored per cell pair.
func Figure9Encoding(opts Options) ([]Fig9Row, error) {
	d := 512
	lists := 20
	if opts.Quick {
		lists = 2
	}
	// One fixed workload swept across every row count and precision so
	// the series vary only in the hardware operating point.
	const numBins, q = 300, 16
	rng := rand.New(rand.NewSource(opts.Seed + 901))
	peakLists := make([][]spectrum.QuantizedPeak, lists)
	for i := range peakLists {
		// Peak-rich spectra (the preprocessing cap is 150 peaks) so
		// every activated-row setting fills its batches.
		m := 130 + rng.Intn(21)
		pl := make([]spectrum.QuantizedPeak, m)
		for j := range pl {
			pl[j] = spectrum.QuantizedPeak{Bin: rng.Intn(numBins), Level: rng.Intn(q)}
		}
		peakLists[i] = pl
	}
	var rows []Fig9Row
	for _, n := range fig9RowCounts(opts.Quick) {
		row := Fig9Row{Rows: n}
		for bits := 1; bits <= 3; bits++ {
			cfg := core.DefaultOperatingPoint()
			cfg.D = d
			cfg.NumBins = numBins
			cfg.NumChunks = 64
			cfg.IDPrecision = bits
			cfg.BitsPerCell = bits
			cfg.ActiveRows = n
			// The row sweep probes the error/throughput trade-off: a
			// moderate ADC makes the N-dependence of quantization
			// error visible, as in the paper's measurement.
			cfg.ADCBits = 6
			cfg.Elapsed = 2 * time.Hour
			cfg.Seed = opts.Seed + int64(n*10+bits)
			enc, err := accel.NewHWEncoder(cfg)
			if err != nil {
				return nil, err
			}
			ber, err := enc.BitErrorRate(peakLists)
			if err != nil {
				return nil, err
			}
			row.Err[bits-1] = ber
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Figure9Search measures in-memory search RMSE versus activated rows
// (paper Fig. 9b).
func Figure9Search(opts Options) ([]Fig9Row, error) {
	d := 512
	numRefs, numQueries := 32, 8
	if opts.Quick {
		numRefs, numQueries = 16, 3
	}
	// Fixed references and queries across the whole sweep.
	rng := rand.New(rand.NewSource(opts.Seed + 902))
	refs := make([]hdc.BinaryHV, numRefs)
	for i := range refs {
		refs[i] = hdc.RandomBinaryHV(d, rng)
	}
	queries := make([]hdc.BinaryHV, numQueries)
	for i := range queries {
		queries[i] = hdc.RandomBinaryHV(d, rng)
	}
	var rows []Fig9Row
	for _, n := range fig9RowCounts(opts.Quick) {
		row := Fig9Row{Rows: n}
		for bits := 1; bits <= 3; bits++ {
			cfg := core.DefaultOperatingPoint()
			cfg.D = d
			cfg.NumBins = 300
			cfg.NumChunks = 64
			cfg.BitsPerCell = bits
			cfg.ActiveRows = n
			cfg.ADCBits = 6
			cfg.Elapsed = 2 * time.Hour
			cfg.Seed = opts.Seed + int64(n*100+bits)
			hw, err := accel.NewHWSearcher(cfg, refs)
			if err != nil {
				return nil, err
			}
			rmse, err := hw.SearchRMSE(queries)
			if err != nil {
				return nil, err
			}
			row.Err[bits-1] = rmse
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderFigure9 formats either panel of Fig. 9.
func RenderFigure9(rows []Fig9Row, panel string, percent bool) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 9%s\n", panel)
	fmt.Fprintf(&b, "%-6s %12s %12s %12s\n", "Rows", "1 bit/cell", "2 bits/cell", "3 bits/cell")
	for _, r := range rows {
		if percent {
			fmt.Fprintf(&b, "%-6d %12.2f %12.2f %12.2f\n",
				r.Rows, r.Err[0]*100, r.Err[1]*100, r.Err[2]*100)
		} else {
			fmt.Fprintf(&b, "%-6d %12.4f %12.4f %12.4f\n",
				r.Rows, r.Err[0], r.Err[1], r.Err[2])
		}
	}
	return b.String()
}
