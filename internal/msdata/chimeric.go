package msdata

import (
	"fmt"
	"math/rand"

	"repro/internal/peptide"
	"repro/internal/spectrum"
)

// Chimeric spectra: in real experiments two peptides frequently
// co-elute and co-fragment, producing a single spectrum containing
// both fragment ladders — a major source of unidentified spectra and
// a stress test for any search engine. MakeChimeric merges a
// contaminant peptide's fragments into a host query at a given
// relative intensity, preserving the host's precursor (the instrument
// selected the host ion).

// ChimericConfig controls contamination.
type ChimericConfig struct {
	// Fraction of queries to contaminate.
	Fraction float64
	// RelativeIntensity scales the contaminant's peaks against the
	// host's base peak (0.3 = 30% of host base peak).
	RelativeIntensity float64
	// Seed drives selection and contaminant choice.
	Seed int64
}

// DefaultChimericConfig returns a moderate contamination setting.
func DefaultChimericConfig() ChimericConfig {
	return ChimericConfig{Fraction: 0.3, RelativeIntensity: 0.5, Seed: 99}
}

// Contaminate returns a copy of the dataset in which a fraction of
// queries are chimeric: their peak lists additionally contain the
// fragment ladder of another random library peptide. Ground truth
// still names the host peptide (the precursor belongs to it).
func Contaminate(ds *Dataset, cfg ChimericConfig) (*Dataset, error) {
	if cfg.Fraction < 0 || cfg.Fraction > 1 {
		return nil, fmt.Errorf("msdata: chimeric fraction %v outside [0,1]", cfg.Fraction)
	}
	if cfg.RelativeIntensity <= 0 {
		cfg.RelativeIntensity = 0.5
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	out := &Dataset{
		Name:       ds.Name + "+chimeric",
		Library:    ds.Library,
		NumTargets: ds.NumTargets,
		Truth:      make(map[string]GroundTruth, len(ds.Truth)),
	}
	for id, gt := range ds.Truth {
		out.Truth[id] = gt
	}
	targets := ds.Library[:ds.NumTargets]
	out.Queries = make([]*spectrum.Spectrum, len(ds.Queries))
	for i, q := range ds.Queries {
		if rng.Float64() >= cfg.Fraction {
			out.Queries[i] = q
			continue
		}
		host := q.Clone()
		contaminantSpec := targets[rng.Intn(len(targets))]
		contaminant, err := peptide.New(contaminantSpec.Peptide)
		if err != nil {
			return nil, fmt.Errorf("msdata: library peptide %q: %v", contaminantSpec.Peptide, err)
		}
		scale := host.BasePeak().Intensity * cfg.RelativeIntensity / 100
		theo := TheoreticalSpectrum(contaminant, contaminantSpec.Charge, 1)
		for _, p := range theo.Peaks {
			host.Peaks = append(host.Peaks, spectrum.Peak{
				MZ:        p.MZ,
				Intensity: p.Intensity * scale,
			})
		}
		host.SortPeaks()
		out.Queries[i] = host
		gt := out.Truth[host.ID]
		gt.QueryID = host.ID
		out.Truth[host.ID] = gt
	}
	return out, nil
}
