// Package experiments contains one runner per table and figure of the
// paper's evaluation (§5). Each runner returns structured rows; the
// Render helpers turn them into the text tables printed by
// cmd/omsrepro and recorded in EXPERIMENTS.md.
//
// Experiments accept a Scale factor so the same code drives both
// fast test-sized runs and the larger runs used for reporting. At
// scale 1 the dataset presets match Table 1 (16k/1M and 47k/3M);
// report runs use the largest scale that stays tractable on a laptop
// and EXPERIMENTS.md records the scale used.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/msdata"
)

// Options tunes experiment size and determinism.
type Options struct {
	// Scale multiplies dataset preset sizes (1 = paper scale).
	Scale float64
	// Seed offsets all randomness.
	Seed int64
	// Quick shrinks Monte-Carlo sample counts for tests.
	Quick bool
}

// TestOptions returns the fast configuration used by unit tests.
func TestOptions() Options {
	return Options{Scale: 0.001, Seed: 1, Quick: true}
}

// Table1Row is one dataset row of Table 1.
type Table1Row struct {
	// Dataset is the workload name.
	Dataset string
	// Queries and References are the paper-scale counts.
	Queries, References int
	// ScaledQueries and ScaledReferences are the counts actually
	// generated at the configured scale.
	ScaledQueries, ScaledReferences int
}

// Table1 reports the OMS workload settings (paper Table 1) along with
// the scaled sizes this run generates.
func Table1(opts Options) ([]Table1Row, error) {
	rows := make([]Table1Row, 0, 2)
	for _, preset := range []struct {
		name string
		cfg  msdata.Config
		full msdata.Config
	}{
		{"iPRG2012", msdata.IPRG2012(opts.Scale), msdata.IPRG2012(1)},
		{"HEK293", msdata.HEK293(opts.Scale), msdata.HEK293(1)},
	} {
		ds, err := msdata.Generate(preset.cfg)
		if err != nil {
			return nil, err
		}
		st := ds.Summarize()
		rows = append(rows, Table1Row{
			Dataset:          preset.name,
			Queries:          preset.full.NumQueries,
			References:       preset.full.NumReferences,
			ScaledQueries:    st.NumQueries,
			ScaledReferences: st.NumTargets,
		})
	}
	return rows, nil
}

// RenderTable1 formats Table 1.
func RenderTable1(rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: OMS workload settings\n")
	fmt.Fprintf(&b, "%-10s %14s %18s %14s %18s\n",
		"Dataset", "queries(paper)", "references(paper)", "queries(run)", "references(run)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %14d %18d %14d %18d\n",
			r.Dataset, r.Queries, r.References, r.ScaledQueries, r.ScaledReferences)
	}
	return b.String()
}

// timeLabels are the measurement points of Figs. 7 and 8.
var timePoints = []struct {
	Label   string
	Elapsed time.Duration
}{
	{"After 1s", time.Second},
	{"30min", 30 * time.Minute},
	{"60min", time.Hour},
	{"1day", 24 * time.Hour},
}
