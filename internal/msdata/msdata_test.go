package msdata

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/peptide"
)

func smallConfig() Config {
	cfg := IPRG2012(0.001) // clamped to minimums: 200 refs, 20 queries
	return cfg
}

func TestGenerateSizes(t *testing.T) {
	cfg := smallConfig()
	ds, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ds.NumTargets != cfg.NumReferences {
		t.Errorf("targets = %d, want %d", ds.NumTargets, cfg.NumReferences)
	}
	wantLib := cfg.NumReferences + int(cfg.DecoyFraction*float64(cfg.NumReferences))
	if len(ds.Library) != wantLib {
		t.Errorf("library = %d, want %d", len(ds.Library), wantLib)
	}
	if len(ds.Queries) != cfg.NumQueries {
		t.Errorf("queries = %d, want %d", len(ds.Queries), cfg.NumQueries)
	}
	if len(ds.Truth) != cfg.NumQueries {
		t.Errorf("truth entries = %d", len(ds.Truth))
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Library {
		if a.Library[i].Peptide != b.Library[i].Peptide {
			t.Fatalf("library not deterministic at %d", i)
		}
	}
	for i := range a.Queries {
		if len(a.Queries[i].Peaks) != len(b.Queries[i].Peaks) {
			t.Fatalf("queries not deterministic at %d", i)
		}
	}
}

func TestGenerateInvalidConfig(t *testing.T) {
	if _, err := Generate(Config{}); err == nil {
		t.Error("empty config should fail")
	}
	if _, err := Generate(Config{NumReferences: 10}); err == nil {
		t.Error("zero queries should fail")
	}
}

func TestDecoysMarkedAndDistinct(t *testing.T) {
	ds, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, s := range ds.Library[:ds.NumTargets] {
		if s.IsDecoy {
			t.Fatal("target marked as decoy")
		}
		targets[s.Peptide] = true
	}
	decoys := ds.Library[ds.NumTargets:]
	if len(decoys) == 0 {
		t.Fatal("no decoys generated")
	}
	collisions := 0
	for _, d := range decoys {
		if !d.IsDecoy {
			t.Fatal("decoy not marked")
		}
		if targets[d.Peptide] {
			collisions++
		}
	}
	if collisions > len(decoys)/50 {
		t.Errorf("too many decoy/target collisions: %d", collisions)
	}
}

func TestTruthConsistency(t *testing.T) {
	ds, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, s := range ds.Library[:ds.NumTargets] {
		targets[s.Peptide] = true
	}
	var modified, foreign int
	for _, q := range ds.Queries {
		gt, ok := ds.Truth[q.ID]
		if !ok {
			t.Fatalf("missing truth for %s", q.ID)
		}
		if q.Peptide != "" {
			t.Error("query leaks peptide identity")
		}
		if gt.Peptide != "" && !targets[gt.Peptide] {
			t.Errorf("truth peptide %q not in library", gt.Peptide)
		}
		if gt.Modified {
			modified++
			if gt.MassShift == 0 || gt.ModName == "" {
				t.Errorf("modified truth lacks shift: %+v", gt)
			}
		}
		if gt.Peptide == "" {
			foreign++
		}
	}
	if modified == 0 {
		t.Error("no modified queries generated")
	}
	if foreign == 0 {
		t.Error("no foreign queries generated")
	}
}

func TestModifiedQueryPrecursorShift(t *testing.T) {
	ds, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	libByPeptide := map[string]float64{}
	for _, s := range ds.Library[:ds.NumTargets] {
		libByPeptide[s.Peptide] = s.PrecursorMass()
	}
	checked := 0
	for _, q := range ds.Queries {
		gt := ds.Truth[q.ID]
		if !gt.Modified || gt.Peptide == "" {
			continue
		}
		refMass := libByPeptide[gt.Peptide]
		obs := q.PrecursorMass()
		// Library charge may differ from the query's, but neutral
		// masses must differ by exactly the mod shift.
		if math.Abs(obs-refMass-gt.MassShift) > 0.01 {
			t.Errorf("query %s: mass shift %v, want %v",
				q.ID, obs-refMass, gt.MassShift)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no modified queries checked")
	}
}

func TestTheoreticalSpectrumShape(t *testing.T) {
	p := peptide.Peptide{Sequence: "PEPTIDEK"}
	s := TheoreticalSpectrum(p, 2, 2)
	if s.Peptide != "PEPTIDEK" || s.Charge != 2 {
		t.Errorf("header: %+v", s)
	}
	if len(s.Peaks) != 2*(p.Len()-1)*2 {
		t.Errorf("peaks = %d", len(s.Peaks))
	}
	if err := s.Validate(); err != nil {
		t.Error(err)
	}
	if math.Abs(s.PrecursorMZ-p.MZ(2)) > 1e-9 {
		t.Error("precursor mismatch")
	}
}

func TestQueriesValid(t *testing.T) {
	ds, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range ds.Queries {
		if err := q.Validate(); err != nil {
			t.Fatal(err)
		}
		if len(q.Peaks) < 5 {
			t.Errorf("query %s too sparse: %d peaks", q.ID, len(q.Peaks))
		}
	}
}

func TestSummarize(t *testing.T) {
	ds, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	st := ds.Summarize()
	if st.NumQueries != len(ds.Queries) || st.NumTargets != ds.NumTargets {
		t.Errorf("stats sizes: %+v", st)
	}
	if st.NumDecoys != len(ds.Library)-ds.NumTargets {
		t.Errorf("decoys = %d", st.NumDecoys)
	}
	if st.MeanLibraryPeaks <= 0 || st.MeanQueryPeaks <= 0 {
		t.Errorf("mean peaks: %+v", st)
	}
	if st.PrecursorMassRange[0] >= st.PrecursorMassRange[1] {
		t.Errorf("mass range: %+v", st.PrecursorMassRange)
	}
	if st.ModifiedQueries == 0 || st.ForeignQueries == 0 {
		t.Errorf("query mix: %+v", st)
	}
}

func TestPresetsMatchTable1AtScale1(t *testing.T) {
	ip := IPRG2012(1)
	if ip.NumQueries != 16000 || ip.NumReferences != 1000000 {
		t.Errorf("iPRG2012 preset: %+v", ip)
	}
	hek := HEK293(1)
	if hek.NumQueries != 47000 || hek.NumReferences != 3000000 {
		t.Errorf("HEK293 preset: %+v", hek)
	}
}

func TestPresetClamping(t *testing.T) {
	c := IPRG2012(1e-9)
	if c.NumQueries < 20 || c.NumReferences < 200 {
		t.Errorf("clamped preset too small: %+v", c)
	}
}

// TestOpenSearchWindowCoversCatalogue checks that the open search's
// precursor window admits every modification the generator applies:
// a modified query's mass exceeds its reference's by the shift.
func TestOpenSearchWindowCoversCatalogue(t *testing.T) {
	w := core.DefaultParams().Window
	covers := func(shift float64) bool { return shift >= w.Lower && shift <= w.Upper }
	for _, m := range peptide.CommonModifications {
		if !covers(m.DeltaMass) {
			t.Errorf("window %v does not cover %s (%v Da)", w, m.Name, m.DeltaMass)
		}
	}
	if covers(-200) || covers(600) {
		t.Error("window too wide")
	}
}
