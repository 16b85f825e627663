package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/fdr"
	"repro/internal/hdc"
	"repro/internal/msdata"
	"repro/internal/rram"
	"repro/internal/spectrum"
)

// LevelSetAblation verifies the §4.2.1 claim that replacing random
// level hypervectors with the hardware-friendly chunked construction
// has minimal impact on search quality: identifications with each
// level-set construction at the same operating point.
type LevelSetAblation struct {
	// FlipIDs is the identification count with classic flip-based
	// random level hypervectors.
	FlipIDs int
	// ChunkedIDs is the count with chunked level hypervectors.
	ChunkedIDs int
}

// AblationLevelSets runs both constructions on the same dataset.
func AblationLevelSets(opts Options) (LevelSetAblation, error) {
	cfg := msdata.IPRG2012(opts.Scale)
	cfg.Seed += opts.Seed
	ds, err := msdata.Generate(cfg)
	if err != nil {
		return LevelSetAblation{}, err
	}
	p := thisWorkParams(opts)

	// Chunked (this work's construction): the standard build path.
	chunkedEng, _, err := core.BuildExact(p, ds.Library)
	if err != nil {
		return LevelSetAblation{}, err
	}
	chunkedRes, err := chunkedEng.Run(ds.Queries)
	if err != nil {
		return LevelSetAblation{}, err
	}

	// Flip-based random levels at the same dimension/precision.
	ids := hdc.NewItemMemory(p.Accel.D, p.Accel.NumBins, p.Accel.IDPrecision, p.Accel.Seed)
	levels := hdc.NewFlipLevelSet(p.Accel.D, p.Accel.Q, p.Accel.Seed+1)
	enc, err := hdc.NewEncoder(ids, levels)
	if err != nil {
		return LevelSetAblation{}, err
	}
	lib, err := core.BuildLibrary(ds.Library, p, enc)
	if err != nil {
		return LevelSetAblation{}, err
	}
	searcher, err := hdc.NewShardedSearcher(lib.HVs, 0)
	if err != nil {
		return LevelSetAblation{}, err
	}
	flipEng, err := core.NewEngine(p, lib, enc, searcher)
	if err != nil {
		return LevelSetAblation{}, err
	}
	flipRes, err := flipEng.Run(ds.Queries)
	if err != nil {
		return LevelSetAblation{}, err
	}
	return LevelSetAblation{
		FlipIDs:    len(flipRes.Accepted),
		ChunkedIDs: len(chunkedRes.Accepted),
	}, nil
}

// RenderLevelSetAblation formats the comparison.
func RenderLevelSetAblation(a LevelSetAblation) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: level hypervector construction (identifications @1%% FDR)\n")
	fmt.Fprintf(&b, "%-30s %6d\n", "random flip-based levels", a.FlipIDs)
	fmt.Fprintf(&b, "%-30s %6d\n", "chunked levels (this work)", a.ChunkedIDs)
	return b.String()
}

// GrayAblationRow compares storage BER under the paper's binary
// mapping and the Gray-coded extension at one density.
type GrayAblationRow struct {
	// BitsPerCell is the MLC density.
	BitsPerCell int
	// PlainBER and GrayBER are the one-day bit error rates.
	PlainBER, GrayBER float64
}

// AblationGrayCoding measures both storage mappings.
func AblationGrayCoding(opts Options) ([]GrayAblationRow, error) {
	d, count := 2048, 16
	if opts.Quick {
		d, count = 1024, 4
	}
	var rows []GrayAblationRow
	for bits := 1; bits <= 3; bits++ {
		devP := rram.NewDevice(rram.DefaultDeviceConfig(), opts.Seed+int64(bits)*31)
		plain, err := rram.BitErrorRate(devP, d, bits, count, 24*time.Hour)
		if err != nil {
			return nil, err
		}
		devG := rram.NewDevice(rram.DefaultDeviceConfig(), opts.Seed+int64(bits)*31)
		gray, err := rram.GrayBitErrorRate(devG, d, bits, count, 24*time.Hour)
		if err != nil {
			return nil, err
		}
		rows = append(rows, GrayAblationRow{BitsPerCell: bits, PlainBER: plain, GrayBER: gray})
	}
	return rows, nil
}

// RenderGrayAblation formats the mapping comparison.
func RenderGrayAblation(rows []GrayAblationRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: storage mapping at 1 day (BER %%)\n")
	fmt.Fprintf(&b, "%-12s %12s %12s\n", "bits/cell", "binary(§4.3)", "Gray-coded")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12d %12.3f %12.3f\n", r.BitsPerCell, r.PlainBER*100, r.GrayBER*100)
	}
	return b.String()
}

// OpenVsStandard quantifies the motivation of OMS (§1): how many
// modified queries each search mode identifies correctly.
type OpenVsStandard struct {
	// ModifiedQueries is the number of modified queries generated.
	ModifiedQueries int
	// StandardCorrect and OpenCorrect count correctly matched modified
	// queries per mode (before FDR, best-match assignments).
	StandardCorrect, OpenCorrect int
	// StandardIDs and OpenIDs are total identifications at 1% FDR.
	StandardIDs, OpenIDs int
}

// AblationOpenVsStandard runs both window settings.
func AblationOpenVsStandard(opts Options) (OpenVsStandard, error) {
	cfg := msdata.IPRG2012(opts.Scale)
	cfg.Seed += opts.Seed
	ds, err := msdata.Generate(cfg)
	if err != nil {
		return OpenVsStandard{}, err
	}
	out := OpenVsStandard{}
	for _, gt := range ds.Truth {
		if gt.Modified {
			out.ModifiedQueries++
		}
	}
	run := func(open bool) (int, int, error) {
		p := thisWorkParams(opts)
		p.Open = open
		engine, _, err := core.BuildExact(p, ds.Library)
		if err != nil {
			return 0, 0, err
		}
		psms, err := engine.SearchAll(ds.Queries)
		if err != nil {
			return 0, 0, err
		}
		correct := 0
		for _, psm := range psms {
			gt := ds.Truth[psm.QueryID]
			if gt.Modified && gt.Peptide == psm.Peptide {
				correct++
			}
		}
		res, err := fdr.Filter(psms, p.FDRAlpha)
		if err != nil {
			return 0, 0, err
		}
		return correct, len(res.Accepted), nil
	}
	if out.StandardCorrect, out.StandardIDs, err = run(false); err != nil {
		return OpenVsStandard{}, err
	}
	if out.OpenCorrect, out.OpenIDs, err = run(true); err != nil {
		return OpenVsStandard{}, err
	}
	return out, nil
}

// RenderOpenVsStandard formats the motivation table.
func RenderOpenVsStandard(o OpenVsStandard) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Motivation: open vs standard search (%d modified queries)\n", o.ModifiedQueries)
	fmt.Fprintf(&b, "%-20s %18s %14s\n", "Mode", "modified matched", "IDs @1% FDR")
	fmt.Fprintf(&b, "%-20s %18d %14d\n", "standard (narrow)", o.StandardCorrect, o.StandardIDs)
	fmt.Fprintf(&b, "%-20s %18d %14d\n", "open [-150,+500]", o.OpenCorrect, o.OpenIDs)
	return b.String()
}

// quantizedFromSpectrum is a small helper used by ablation tests.
func quantizedFromSpectrum(b spectrum.Binner, s *spectrum.Spectrum, q int) []spectrum.QuantizedPeak {
	return b.Vectorize(s).Quantize(q)
}

// ChimericRobustness stresses the engines with co-fragmenting
// contaminant peptides (chimeric spectra), a failure mode real
// instruments produce constantly. HD's distributed representation
// should degrade gracefully: the host peptide's ladder still dominates
// the encoded hypervector.
type ChimericRobustness struct {
	// CleanIDs and ChimericIDs are identifications at 1% FDR.
	CleanIDs, ChimericIDs int
	// CleanCorrect and ChimericCorrect count truth-consistent
	// assignments among accepted PSMs.
	CleanCorrect, ChimericCorrect int
}

// AblationChimeric compares clean and contaminated workloads.
func AblationChimeric(opts Options) (ChimericRobustness, error) {
	cfg := msdata.IPRG2012(opts.Scale)
	cfg.Seed += opts.Seed
	clean, err := msdata.Generate(cfg)
	if err != nil {
		return ChimericRobustness{}, err
	}
	dirty, err := msdata.Contaminate(clean, msdata.DefaultChimericConfig())
	if err != nil {
		return ChimericRobustness{}, err
	}
	run := func(ds *msdata.Dataset) (int, int, error) {
		p := thisWorkParams(opts)
		engine, _, err := core.BuildExact(p, ds.Library)
		if err != nil {
			return 0, 0, err
		}
		res, err := engine.Run(ds.Queries)
		if err != nil {
			return 0, 0, err
		}
		correct := 0
		for _, psm := range res.Accepted {
			if ds.Truth[psm.QueryID].Peptide == psm.Peptide {
				correct++
			}
		}
		return len(res.Accepted), correct, nil
	}
	out := ChimericRobustness{}
	if out.CleanIDs, out.CleanCorrect, err = run(clean); err != nil {
		return ChimericRobustness{}, err
	}
	if out.ChimericIDs, out.ChimericCorrect, err = run(dirty); err != nil {
		return ChimericRobustness{}, err
	}
	return out, nil
}

// RenderChimeric formats the stress result.
func RenderChimeric(c ChimericRobustness) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Stress: chimeric (co-fragmenting) spectra\n")
	fmt.Fprintf(&b, "%-12s %8s %10s\n", "Workload", "IDs", "correct")
	fmt.Fprintf(&b, "%-12s %8d %10d\n", "clean", c.CleanIDs, c.CleanCorrect)
	fmt.Fprintf(&b, "%-12s %8d %10d\n", "chimeric", c.ChimericIDs, c.ChimericCorrect)
	return b.String()
}
