// Package msdata generates deterministic synthetic proteomics
// workloads that stand in for the paper's real datasets (iPRG2012 +
// human HCD yeast library, HEK293 b1906 + human spectral library).
//
// A workload consists of a reference spectral library built from the
// theoretical b/y fragment spectra of unmodified tryptic peptides
// (plus decoy entries for FDR estimation) and a set of query spectra
// derived from library peptides. A configurable fraction of queries
// carries a post-translational modification, shifting the precursor
// mass and a subset of fragment peaks — exactly the situation open
// modification search exists to handle. Remaining queries are either
// unmodified rederivations (identifiable by standard search) or
// "foreign" spectra with no library counterpart (never identifiable;
// these exercise the FDR filter).
package msdata

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/peptide"
	"repro/internal/spectrum"
)

// Config controls synthetic workload generation.
type Config struct {
	// Name labels the dataset (e.g. "iPRG2012").
	Name string
	// NumReferences is the number of target (non-decoy) library spectra.
	NumReferences int
	// NumQueries is the number of query spectra.
	NumQueries int
	// DecoyFraction adds this fraction of decoy entries relative to
	// NumReferences (1.0 = equal number of decoys and targets).
	DecoyFraction float64
	// ModifiedFraction of queries carry a PTM mass shift.
	ModifiedFraction float64
	// ForeignFraction of queries have no library counterpart at all.
	ForeignFraction float64
	// PeptideLenMin/Max bound the tryptic peptide lengths.
	PeptideLenMin, PeptideLenMax int
	// NoisePeaks is the number of random noise peaks added per query.
	NoisePeaks int
	// PeakJitterDa is the standard deviation of m/z measurement noise
	// applied to query fragment peaks, in Da.
	PeakJitterDa float64
	// IntensityJitter is the multiplicative log-normal sigma applied
	// to query peak intensities.
	IntensityJitter float64
	// DropPeakProb is the probability that any individual fragment
	// peak is missing from a query spectrum.
	DropPeakProb float64
	// MaxFragmentCharge bounds fragment ion charges in library spectra.
	MaxFragmentCharge int
	// Seed makes generation deterministic.
	Seed int64
}

// IPRG2012 returns the iPRG2012-like preset scaled by scale: at
// scale=1 it matches Table 1 (16k queries, 1M references); tests use
// small scales. Scale below ~1e-4 is clamped so the workload remains
// non-degenerate.
func IPRG2012(scale float64) Config {
	return preset("iPRG2012", 16000, 1000000, scale)
}

// HEK293 returns the HEK293-like preset scaled by scale (Table 1:
// 47k queries, 3M references at scale=1).
func HEK293(scale float64) Config {
	return preset("HEK293", 47000, 3000000, scale)
}

func preset(name string, queries, refs int, scale float64) Config {
	q := int(math.Round(float64(queries) * scale))
	r := int(math.Round(float64(refs) * scale))
	if q < 20 {
		q = 20
	}
	if r < 200 {
		r = 200
	}
	return Config{
		Name:              name,
		NumReferences:     r,
		NumQueries:        q,
		DecoyFraction:     1.0,
		ModifiedFraction:  0.35,
		ForeignFraction:   0.15,
		PeptideLenMin:     7,
		PeptideLenMax:     25,
		NoisePeaks:        12,
		PeakJitterDa:      0.02,
		IntensityJitter:   0.25,
		DropPeakProb:      0.15,
		MaxFragmentCharge: 2,
		Seed:              int64(len(name)) * 1000003,
	}
}

// GroundTruth records what a query spectrum really is, for evaluating
// search results against the generator's knowledge.
type GroundTruth struct {
	// QueryID is the query spectrum ID.
	QueryID string
	// Peptide is the true peptide sequence ("" for foreign spectra).
	Peptide string
	// Modified reports whether the query carries a PTM.
	Modified bool
	// ModName is the PTM name if Modified.
	ModName string
	// MassShift is the PTM mass delta in Da (0 if unmodified).
	MassShift float64
}

// Dataset is a complete generated workload.
type Dataset struct {
	// Name is the preset name.
	Name string
	// Library contains target followed by decoy spectra.
	Library []*spectrum.Spectrum
	// Queries are the query spectra in generation order.
	Queries []*spectrum.Spectrum
	// Truth maps query ID to its ground truth.
	Truth map[string]GroundTruth
	// NumTargets is the count of non-decoy library entries.
	NumTargets int
}

// Generate builds the synthetic workload for the configuration.
func Generate(cfg Config) (*Dataset, error) {
	if cfg.NumReferences <= 0 || cfg.NumQueries <= 0 {
		return nil, fmt.Errorf("msdata: non-positive workload size %d/%d",
			cfg.NumReferences, cfg.NumQueries)
	}
	if cfg.PeptideLenMin < 4 {
		cfg.PeptideLenMin = 4
	}
	if cfg.PeptideLenMax < cfg.PeptideLenMin {
		cfg.PeptideLenMax = cfg.PeptideLenMin
	}
	if cfg.MaxFragmentCharge < 1 {
		cfg.MaxFragmentCharge = 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	ds := &Dataset{
		Name:       cfg.Name,
		Truth:      make(map[string]GroundTruth, cfg.NumQueries),
		NumTargets: cfg.NumReferences,
	}

	// Target peptides, unique by sequence.
	peps := make([]peptide.Peptide, 0, cfg.NumReferences)
	seen := make(map[string]bool, cfg.NumReferences)
	for len(peps) < cfg.NumReferences {
		length := cfg.PeptideLenMin + rng.Intn(cfg.PeptideLenMax-cfg.PeptideLenMin+1)
		p := peptide.Random(rng, length)
		if seen[p.Sequence] {
			continue
		}
		seen[p.Sequence] = true
		peps = append(peps, p)
	}

	// Library: theoretical spectra of targets.
	for i, p := range peps {
		s := TheoreticalSpectrum(p, chargeFor(rng, p), cfg.MaxFragmentCharge)
		s.ID = fmt.Sprintf("%s:ref:%d", cfg.Name, i)
		ds.Library = append(ds.Library, s)
	}
	// Decoys.
	numDecoys := int(math.Round(cfg.DecoyFraction * float64(cfg.NumReferences)))
	for i := 0; i < numDecoys; i++ {
		d := peptide.Decoy(peps[i%len(peps)], rng)
		if seen[d.Sequence] {
			// A decoy colliding with a real target would corrupt FDR
			// estimation; perturb by shuffling until distinct.
			b := []byte(d.Sequence)
			for tries := 0; tries < 32 && seen[string(b)]; tries++ {
				rng.Shuffle(len(b)-1, func(x, y int) { b[x], b[y] = b[y], b[x] })
			}
			d.Sequence = string(b)
		}
		s := TheoreticalSpectrum(d, chargeFor(rng, d), cfg.MaxFragmentCharge)
		s.ID = fmt.Sprintf("%s:decoy:%d", cfg.Name, i)
		s.IsDecoy = true
		ds.Library = append(ds.Library, s)
	}

	// Queries.
	numForeign := int(math.Round(cfg.ForeignFraction * float64(cfg.NumQueries)))
	numModified := int(math.Round(cfg.ModifiedFraction * float64(cfg.NumQueries)))
	if numForeign+numModified > cfg.NumQueries {
		numModified = cfg.NumQueries - numForeign
	}
	for i := 0; i < cfg.NumQueries; i++ {
		id := fmt.Sprintf("%s:query:%d", cfg.Name, i)
		var (
			q     *spectrum.Spectrum
			truth GroundTruth
		)
		switch {
		case i < numForeign:
			// Foreign spectrum: random peptide not in the library.
			var p peptide.Peptide
			for {
				length := cfg.PeptideLenMin + rng.Intn(cfg.PeptideLenMax-cfg.PeptideLenMin+1)
				p = peptide.Random(rng, length)
				if !seen[p.Sequence] {
					break
				}
			}
			q = noisyQuery(rng, cfg, p)
			truth = GroundTruth{QueryID: id}
		case i < numForeign+numModified:
			// Modified query of a library peptide.
			base := peps[rng.Intn(len(peps))]
			mod := cfg.randomMod(rng, base)
			p := base.WithMod(mod)
			q = noisyQuery(rng, cfg, p)
			truth = GroundTruth{
				QueryID: id, Peptide: base.Sequence,
				Modified: true, ModName: mod.Name, MassShift: mod.DeltaMass,
			}
		default:
			// Unmodified query of a library peptide.
			base := peps[rng.Intn(len(peps))]
			q = noisyQuery(rng, cfg, base)
			truth = GroundTruth{QueryID: id, Peptide: base.Sequence}
		}
		q.ID = id
		q.Peptide = "" // queries are unknowns to the search engine
		ds.Queries = append(ds.Queries, q)
		ds.Truth[id] = truth
	}
	return ds, nil
}

// randomMod picks a PTM from the catalogue and localizes it at a
// random internal residue.
func (cfg Config) randomMod(rng *rand.Rand, p peptide.Peptide) peptide.Modification {
	m := peptide.CommonModifications[rng.Intn(len(peptide.CommonModifications))]
	if p.Len() > 2 {
		m.Position = rng.Intn(p.Len() - 1) // avoid C-terminal residue
	} else {
		m.Position = 0
	}
	return m
}

func chargeFor(rng *rand.Rand, p peptide.Peptide) int {
	// Longer peptides tend to carry more charges; 2+ dominates.
	switch {
	case p.Len() > 18 && rng.Float64() < 0.5:
		return 3
	case rng.Float64() < 0.15:
		return 3
	default:
		return 2
	}
}

// TheoreticalSpectrum renders the peptide's b/y fragment ions as a
// clean library spectrum. Intensities follow a deterministic profile
// peaking mid-series (y ions stronger than b, mirroring HCD spectra).
func TheoreticalSpectrum(p peptide.Peptide, charge, maxFragCharge int) *spectrum.Spectrum {
	frags := p.Fragments(maxFragCharge)
	s := &spectrum.Spectrum{
		PrecursorMZ: p.MZ(charge),
		Charge:      charge,
		Peptide:     p.Sequence,
	}
	n := p.Len()
	for _, f := range frags {
		// Bell-shaped intensity over the series index, y > b,
		// higher fragment charges weaker.
		x := float64(f.Index) / float64(n)
		base := math.Exp(-4 * (x - 0.5) * (x - 0.5))
		if f.Kind == peptide.YIon {
			base *= 1.6
		}
		base /= float64(f.Charge)
		s.Peaks = append(s.Peaks, spectrum.Peak{MZ: f.MZ, Intensity: 100 * base})
	}
	s.SortPeaks()
	return s
}

// noisyQuery renders a peptide (possibly modified) as an observed
// query spectrum: fragment peaks are jittered in m/z, scaled by
// log-normal intensity noise, randomly dropped, and random noise
// peaks are added.
func noisyQuery(rng *rand.Rand, cfg Config, p peptide.Peptide) *spectrum.Spectrum {
	charge := chargeFor(rng, p)
	clean := TheoreticalSpectrum(p, charge, cfg.MaxFragmentCharge)
	q := &spectrum.Spectrum{PrecursorMZ: clean.PrecursorMZ, Charge: charge}
	for _, pk := range clean.Peaks {
		if rng.Float64() < cfg.DropPeakProb {
			continue
		}
		mz := pk.MZ + rng.NormFloat64()*cfg.PeakJitterDa
		in := pk.Intensity * math.Exp(rng.NormFloat64()*cfg.IntensityJitter)
		q.Peaks = append(q.Peaks, spectrum.Peak{MZ: mz, Intensity: in})
	}
	base := q.BasePeak().Intensity
	if base == 0 {
		base = 100
	}
	for i := 0; i < cfg.NoisePeaks; i++ {
		q.Peaks = append(q.Peaks, spectrum.Peak{
			MZ:        120 + rng.Float64()*1300,
			Intensity: base * (0.01 + rng.Float64()*0.08),
		})
	}
	q.SortPeaks()
	return q
}

// Stats summarizes a dataset for reporting (Table 1).
type Stats struct {
	Name               string
	NumQueries         int
	NumTargets         int
	NumDecoys          int
	ModifiedQueries    int
	ForeignQueries     int
	MeanLibraryPeaks   float64
	MeanQueryPeaks     float64
	PrecursorMassRange [2]float64
}

// Summarize computes dataset statistics.
func (ds *Dataset) Summarize() Stats {
	st := Stats{Name: ds.Name, NumQueries: len(ds.Queries), NumTargets: ds.NumTargets}
	st.NumDecoys = len(ds.Library) - ds.NumTargets
	var libPeaks, qPeaks int
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, s := range ds.Library {
		libPeaks += len(s.Peaks)
		m := s.PrecursorMass()
		if m < lo {
			lo = m
		}
		if m > hi {
			hi = m
		}
	}
	for _, q := range ds.Queries {
		qPeaks += len(q.Peaks)
		gt := ds.Truth[q.ID]
		if gt.Modified {
			st.ModifiedQueries++
		}
		if gt.Peptide == "" {
			st.ForeignQueries++
		}
	}
	if len(ds.Library) > 0 {
		st.MeanLibraryPeaks = float64(libPeaks) / float64(len(ds.Library))
	}
	if len(ds.Queries) > 0 {
		st.MeanQueryPeaks = float64(qPeaks) / float64(len(ds.Queries))
	}
	st.PrecursorMassRange = [2]float64{lo, hi}
	return st
}
