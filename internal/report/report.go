// Package report renders experiment results as machine-readable CSV,
// one file per table/figure, so downstream plotting can regenerate the
// paper's charts from this repository's runs. Writers take io.Writer;
// the Dir helper materializes a full run into a directory.
package report

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/experiments"
	"repro/internal/perf"
)

// writeCSV writes a header and rows, converting cells to strings.
func writeCSV(w io.Writer, header []string, rows [][]string) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, r := range rows {
		if err := cw.Write(r); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func f(v float64) string { return strconv.FormatFloat(v, 'g', 8, 64) }
func d(v int) string     { return strconv.Itoa(v) }

// Table1CSV writes the workload settings.
func Table1CSV(w io.Writer, rows []experiments.Table1Row) error {
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = []string{r.Dataset, d(r.Queries), d(r.References),
			d(r.ScaledQueries), d(r.ScaledReferences)}
	}
	return writeCSV(w, []string{"dataset", "queries_paper", "references_paper",
		"queries_run", "references_run"}, out)
}

// Figure7CSV writes the storage BER series.
func Figure7CSV(w io.Writer, rows []experiments.Fig7Row) error {
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = []string{r.Label, f(r.Elapsed.Seconds()),
			f(r.BER[0]), f(r.BER[1]), f(r.BER[2])}
	}
	return writeCSV(w, []string{"time", "elapsed_s", "ber_1b", "ber_2b", "ber_3b"}, out)
}

// Figure8CSV writes the conductance histograms in long form.
func Figure8CSV(w io.Writer, data []experiments.Fig8Data) error {
	var out [][]string
	for _, dd := range data {
		for t, hist := range dd.Histograms {
			for bin, count := range hist {
				out = append(out, []string{
					d(dd.Levels), d(t), d(bin), d(count),
				})
			}
		}
	}
	return writeCSV(w, []string{"levels", "timepoint", "bin", "count"}, out)
}

// Figure9CSV writes either computation-error panel.
func Figure9CSV(w io.Writer, rows []experiments.Fig9Row) error {
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = []string{d(r.Rows), f(r.Err[0]), f(r.Err[1]), f(r.Err[2])}
	}
	return writeCSV(w, []string{"rows", "err_1b", "err_2b", "err_3b"}, out)
}

// Figure10CSV writes the Venn region counts in long form.
func Figure10CSV(w io.Writer, results []experiments.VennResult) error {
	var out [][]string
	for _, v := range results {
		for _, region := range []string{"TAH", "TA", "TH", "AH", "T", "A", "H"} {
			out = append(out, []string{v.Dataset, region, d(v.Regions[region])})
		}
	}
	return writeCSV(w, []string{"dataset", "region", "peptides"}, out)
}

// Figure11CSV writes the robustness series.
func Figure11CSV(w io.Writer, dataset string, rows []experiments.Fig11Row) error {
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = []string{dataset, f(r.BER), d(r.IDs[0]), d(r.IDs[1]), d(r.IDs[2])}
	}
	return writeCSV(w, []string{"dataset", "ber", "ids_1bit", "ids_2bit", "ids_3bit"}, out)
}

// Figure12CSV writes the cost-model comparison.
func Figure12CSV(w io.Writer, rows []perf.Fig12Row) error {
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = []string{r.Name, f(r.Speedup), f(r.EnergyImprovement)}
	}
	return writeCSV(w, []string{"tool", "speedup", "energy_improvement"}, out)
}

// Figure13CSV writes the dimension sweep.
func Figure13CSV(w io.Writer, rows []experiments.Fig13Row) error {
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = []string{d(r.D), d(r.Ideal), d(r.InRRAM)}
	}
	return writeCSV(w, []string{"dimension", "ideal_ids", "rram_ids"}, out)
}

// RunResult aggregates one full experiment run for directory export.
type RunResult struct {
	Table1   []experiments.Table1Row
	Fig7     []experiments.Fig7Row
	Fig8     []experiments.Fig8Data
	Fig9Enc  []experiments.Fig9Row
	Fig9Sea  []experiments.Fig9Row
	Fig10    []experiments.VennResult
	Fig11    map[string][]experiments.Fig11Row
	Fig12    []perf.Fig12Row
	Fig13    []experiments.Fig13Row
	Started  time.Time
	Finished time.Time
}

var fig11Datasets = []string{"iPRG2012", "HEK293"} // Collect's run order and WriteDir's write order

// Collect runs every experiment with the options.
func Collect(opts experiments.Options) (*RunResult, error) {
	rr := &RunResult{Started: time.Now(), Fig11: map[string][]experiments.Fig11Row{}}
	var err error
	if rr.Table1, err = experiments.Table1(opts); err != nil {
		return nil, fmt.Errorf("table1: %w", err)
	}
	if rr.Fig7, err = experiments.Figure7(opts); err != nil {
		return nil, fmt.Errorf("fig7: %w", err)
	}
	if rr.Fig8, err = experiments.Figure8(opts); err != nil {
		return nil, fmt.Errorf("fig8: %w", err)
	}
	if rr.Fig9Enc, err = experiments.Figure9Encoding(opts); err != nil {
		return nil, fmt.Errorf("fig9a: %w", err)
	}
	if rr.Fig9Sea, err = experiments.Figure9Search(opts); err != nil {
		return nil, fmt.Errorf("fig9b: %w", err)
	}
	if rr.Fig10, err = experiments.Figure10(opts); err != nil {
		return nil, fmt.Errorf("fig10: %w", err)
	}
	for _, ds := range fig11Datasets {
		rows, err := experiments.Figure11(opts, ds)
		if err != nil {
			return nil, fmt.Errorf("fig11 %s: %w", ds, err)
		}
		rr.Fig11[ds] = rows
	}
	rr.Fig12 = experiments.Figure12()
	if rr.Fig13, err = experiments.Figure13(opts); err != nil {
		return nil, fmt.Errorf("fig13: %w", err)
	}
	rr.Finished = time.Now()
	return rr, nil
}

// WriteDir materializes the run as CSV files in dir (created if
// needed) and returns the file names written.
func (rr *RunResult) WriteDir(dir string) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var written []string
	emit := func(name string, fn func(io.Writer) error) error {
		fh, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		defer fh.Close()
		if err := fn(fh); err != nil {
			return err
		}
		written = append(written, name)
		return fh.Close()
	}
	steps := []struct {
		name string
		fn   func(io.Writer) error
	}{
		{"table1.csv", func(w io.Writer) error { return Table1CSV(w, rr.Table1) }},
		{"fig7_storage_ber.csv", func(w io.Writer) error { return Figure7CSV(w, rr.Fig7) }},
		{"fig8_histograms.csv", func(w io.Writer) error { return Figure8CSV(w, rr.Fig8) }},
		{"fig9a_encoding.csv", func(w io.Writer) error { return Figure9CSV(w, rr.Fig9Enc) }},
		{"fig9b_search.csv", func(w io.Writer) error { return Figure9CSV(w, rr.Fig9Sea) }},
		{"fig10_venn.csv", func(w io.Writer) error { return Figure10CSV(w, rr.Fig10) }},
		{"fig12_cost.csv", func(w io.Writer) error { return Figure12CSV(w, rr.Fig12) }},
		{"fig13_dimension.csv", func(w io.Writer) error { return Figure13CSV(w, rr.Fig13) }},
	}
	for _, s := range steps {
		if err := emit(s.name, s.fn); err != nil {
			return nil, fmt.Errorf("report: writing %s: %w", s.name, err)
		}
	}
	for _, ds := range fig11Datasets {
		name := fmt.Sprintf("fig11_%s.csv", ds)
		if err := emit(name, func(w io.Writer) error { return Figure11CSV(w, ds, rr.Fig11[ds]) }); err != nil {
			return nil, fmt.Errorf("report: writing %s: %w", name, err)
		}
	}
	return written, nil
}
