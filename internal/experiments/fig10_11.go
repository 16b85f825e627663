package experiments

import (
	"fmt"
	"strings"

	"repro/internal/accel"
	"repro/internal/annsolo"
	"repro/internal/core"
	"repro/internal/fdr"
	"repro/internal/hyperoms"
	"repro/internal/msdata"
)

// VennResult is the 3-way overlap of identified peptides (paper
// Fig. 10) between this work, ANN-SoLo and HyperOMS.
type VennResult struct {
	// Dataset names the workload.
	Dataset string
	// Totals per tool.
	ThisWork, ANNSoLo, HyperOMS int
	// Region counts, keyed by membership: "T", "A", "H", "TA", "TH",
	// "AH", "TAH".
	Regions map[string]int
}

// engineDimension picks the HD dimension for quality experiments:
// the paper's 8k, or smaller in Quick mode.
func engineDimension(opts Options) int {
	if opts.Quick {
		return 2048
	}
	return 8192
}

// thisWorkParams returns the paper's configuration for this work's
// engine: D, 3-bit IDs, chunked levels.
func thisWorkParams(opts Options) core.Params {
	p := core.DefaultParams()
	p.Accel.D = engineDimension(opts)
	p.Accel.NumChunks = p.Accel.D / 32
	p.Accel.Seed = opts.Seed + 11
	return p
}

// thisWorkNoise returns the characterized chip error statistics used
// for this work's engine in quality experiments: moderate encode BER
// and similarity noise representative of 3 bits/cell at 64 rows.
// Characterizing from the cell-accurate simulation (accel.Characterize)
// yields values in this range; the fixed constants keep dataset-scale
// experiments deterministic and fast.
func thisWorkNoise(opts Options) core.NoiseSpec {
	d := float64(engineDimension(opts))
	return core.NoiseSpec{
		EncodeBER:     0.04,
		RefStorageBER: 0.02,
		SearchSigma:   0.004 * d,
		Seed:          opts.Seed + 13,
	}
}

// Figure10 runs the three tools on both datasets and reports the
// identified-peptide Venn diagram.
func Figure10(opts Options) ([]VennResult, error) {
	var out []VennResult
	for _, preset := range []struct {
		name string
		cfg  msdata.Config
	}{
		{"iPRG2012", msdata.IPRG2012(opts.Scale)},
		{"HEK293", msdata.HEK293(opts.Scale)},
	} {
		preset.cfg.Seed += opts.Seed
		ds, err := msdata.Generate(preset.cfg)
		if err != nil {
			return nil, err
		}
		v, err := vennOn(ds, opts)
		if err != nil {
			return nil, err
		}
		v.Dataset = preset.name
		out = append(out, v)
	}
	return out, nil
}

func vennOn(ds *msdata.Dataset, opts Options) (VennResult, error) {
	// This work: HD with characterized RRAM noise.
	thisEng, err := core.BuildNoisy(thisWorkParams(opts), ds.Library, thisWorkNoise(opts))
	if err != nil {
		return VennResult{}, err
	}
	thisRes, err := thisEng.Run(ds.Queries)
	if err != nil {
		return VennResult{}, err
	}
	// HyperOMS: exact binary HD.
	hp := hyperoms.DefaultParams()
	hp.D = engineDimension(opts)
	hp.Seed = opts.Seed + 21
	hEng, err := hyperoms.NewEngine(hp, ds.Library)
	if err != nil {
		return VennResult{}, err
	}
	hRes, err := hEng.Run(ds.Queries)
	if err != nil {
		return VennResult{}, err
	}
	// ANN-SoLo: cascade shifted-dot search.
	aEng, err := annsolo.NewEngine(annsolo.DefaultParams(), ds.Library)
	if err != nil {
		return VennResult{}, err
	}
	aRes, err := aEng.Run(ds.Queries)
	if err != nil {
		return VennResult{}, err
	}
	tSet := fdr.UniquePeptides(thisRes.Accepted)
	aSet := fdr.UniquePeptides(aRes.Accepted)
	hSet := fdr.UniquePeptides(hRes.Accepted)
	v := VennResult{
		ThisWork: len(tSet), ANNSoLo: len(aSet), HyperOMS: len(hSet),
		Regions: map[string]int{},
	}
	all := map[string]bool{}
	for p := range tSet {
		all[p] = true
	}
	for p := range aSet {
		all[p] = true
	}
	for p := range hSet {
		all[p] = true
	}
	for p := range all {
		key := ""
		if tSet[p] {
			key += "T"
		}
		if aSet[p] {
			key += "A"
		}
		if hSet[p] {
			key += "H"
		}
		v.Regions[key]++
	}
	return v, nil
}

// RenderFigure10 formats the Venn region counts.
func RenderFigure10(results []VennResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 10: Venn diagram of identified peptides\n")
	fmt.Fprintf(&b, "(T = This Work, A = ANN-SoLo, H = HyperOMS)\n")
	for _, v := range results {
		fmt.Fprintf(&b, "%s: |T|=%d |A|=%d |H|=%d\n", v.Dataset, v.ThisWork, v.ANNSoLo, v.HyperOMS)
		for _, region := range []string{"TAH", "TA", "TH", "AH", "T", "A", "H"} {
			fmt.Fprintf(&b, "  %-4s %d\n", region, v.Regions[region])
		}
	}
	return b.String()
}

// Fig11Row is the identification count at one injected bit-error rate
// for ID precisions 1/2/3 bits.
type Fig11Row struct {
	// BER is the injected bit error rate.
	BER float64
	// IDs[p-1] is the number of identifications at p-bit ID precision.
	IDs [3]int
}

// fig11BERs are the swept error rates of Fig. 11.
var fig11BERs = []float64{0.0015, 0.01, 0.05, 0.10, 0.20}

// Figure11 measures HD robustness: identifications at 1% FDR versus
// injected encode/storage bit errors, for each ID precision.
func Figure11(opts Options, preset string) ([]Fig11Row, error) {
	var cfg msdata.Config
	switch preset {
	case "iPRG2012":
		cfg = msdata.IPRG2012(opts.Scale)
	case "HEK293":
		cfg = msdata.HEK293(opts.Scale)
	default:
		return nil, fmt.Errorf("experiments: unknown preset %q", preset)
	}
	cfg.Seed += opts.Seed
	ds, err := msdata.Generate(cfg)
	if err != nil {
		return nil, err
	}
	var rows []Fig11Row
	for _, ber := range fig11BERs {
		row := Fig11Row{BER: ber}
		for precision := 1; precision <= 3; precision++ {
			p := thisWorkParams(opts)
			p.Accel.IDPrecision = precision
			p.Accel.Seed = opts.Seed + int64(precision)*101
			spec := core.NoiseSpec{
				EncodeBER:     ber,
				RefStorageBER: ber,
				Seed:          opts.Seed + int64(precision*1000) + int64(ber*1e4),
			}
			eng, err := core.BuildNoisy(p, ds.Library, spec)
			if err != nil {
				return nil, err
			}
			res, err := eng.Run(ds.Queries)
			if err != nil {
				return nil, err
			}
			row.IDs[precision-1] = len(res.Accepted)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderFigure11 formats the robustness series.
func RenderFigure11(rows []Fig11Row, dataset string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 11: HD robustness on %s (identifications @1%% FDR)\n", dataset)
	fmt.Fprintf(&b, "%-8s %16s %16s %16s\n", "BER", "ID_precision_1b", "ID_precision_2b", "ID_precision_3b")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %16d %16d %16d\n",
			fmt.Sprintf("%.2f%%", r.BER*100), r.IDs[0], r.IDs[1], r.IDs[2])
	}
	return b.String()
}

// Characterized exposes the chip-characterized noise model for
// documentation: it runs the cell-accurate probe and reports the
// resulting error statistics next to the fixed constants used by the
// quality experiments.
func Characterized(opts Options) (accel.NoisyModel, error) {
	cfg := core.DefaultOperatingPoint()
	cfg.Seed = opts.Seed + 31
	probes := 6
	if opts.Quick {
		probes = 2
	}
	return accel.Characterize(cfg, probes, opts.Seed+37)
}
