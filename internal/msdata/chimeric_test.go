package msdata

import (
	"testing"
)

// contaminated counts the queries whose peak lists Contaminate grew.
func contaminated(orig, out *Dataset) int {
	n := 0
	for i := range orig.Queries {
		if len(orig.Queries[i].Peaks) != len(out.Queries[i].Peaks) {
			n++
		}
	}
	return n
}

func TestContaminateValidation(t *testing.T) {
	ds, err := Generate(IPRG2012(0.001))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Contaminate(ds, ChimericConfig{Fraction: -0.1}); err == nil {
		t.Error("negative fraction accepted")
	}
	if _, err := Contaminate(ds, ChimericConfig{Fraction: 1.5}); err == nil {
		t.Error("fraction > 1 accepted")
	}
}

func TestContaminateAddsPeaks(t *testing.T) {
	ds, err := Generate(IPRG2012(0.001))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultChimericConfig()
	out, err := Contaminate(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Queries) != len(ds.Queries) {
		t.Fatalf("query count changed")
	}
	n := contaminated(ds, out)
	if n == 0 {
		t.Fatal("no queries contaminated")
	}
	// Roughly the configured fraction (binomial, loose bounds).
	if n < len(ds.Queries)/10 || n > len(ds.Queries)*2/3 {
		t.Errorf("contaminated %d of %d queries at fraction %v", n, len(ds.Queries), cfg.Fraction)
	}
	// Host precursor and ground truth unchanged.
	for i := range ds.Queries {
		if out.Queries[i].PrecursorMZ != ds.Queries[i].PrecursorMZ {
			t.Fatal("precursor changed by contamination")
		}
		if out.Truth[ds.Queries[i].ID].Peptide != ds.Truth[ds.Queries[i].ID].Peptide {
			t.Fatal("truth changed by contamination")
		}
	}
}

func TestContaminateZeroFractionIsIdentity(t *testing.T) {
	ds, err := Generate(IPRG2012(0.001))
	if err != nil {
		t.Fatal(err)
	}
	out, err := Contaminate(ds, ChimericConfig{Fraction: 0, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if contaminated(ds, out) != 0 {
		t.Error("zero fraction contaminated queries")
	}
}

func TestContaminateDeterministic(t *testing.T) {
	ds, err := Generate(IPRG2012(0.001))
	if err != nil {
		t.Fatal(err)
	}
	a, err := Contaminate(ds, DefaultChimericConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Contaminate(ds, DefaultChimericConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Queries {
		if len(a.Queries[i].Peaks) != len(b.Queries[i].Peaks) {
			t.Fatal("contamination not deterministic")
		}
	}
}

func TestChimericQueriesStillSearchable(t *testing.T) {
	// Chimeric spectra must remain valid spectra.
	ds, err := Generate(IPRG2012(0.001))
	if err != nil {
		t.Fatal(err)
	}
	out, err := Contaminate(ds, DefaultChimericConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range out.Queries {
		if err := q.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}
