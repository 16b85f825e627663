package hyperoms

import (
	"testing"

	"repro/internal/msdata"
)

func testDataset(t *testing.T) *msdata.Dataset {
	t.Helper()
	ds, err := msdata.Generate(msdata.IPRG2012(0.001))
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func testParams() Params {
	p := DefaultParams()
	p.D = 2048 // keep tests fast
	p.Preprocess.MinPeaks = 3
	return p
}

func TestNewEngineValidation(t *testing.T) {
	p := testParams()
	p.D = 0
	if _, err := NewEngine(p, nil); err == nil {
		t.Error("zero dimension accepted")
	}
	if _, err := NewEngine(testParams(), nil); err == nil {
		t.Error("empty library accepted")
	}
}

func TestEndToEndIdentifications(t *testing.T) {
	ds := testDataset(t)
	eng, err := NewEngine(testParams(), ds.Library)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(ds.Queries)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Accepted) == 0 {
		t.Fatal("HyperOMS found nothing on easy synthetic data")
	}
	correct, wrong := 0, 0
	for _, psm := range res.Accepted {
		if ds.Truth[psm.QueryID].Peptide == psm.Peptide {
			correct++
		} else {
			wrong++
		}
	}
	if correct < wrong*3 {
		t.Errorf("mostly wrong: %d/%d", correct, wrong)
	}
}

func TestFindsModifiedPeptides(t *testing.T) {
	ds := testDataset(t)
	eng, err := NewEngine(testParams(), ds.Library)
	if err != nil {
		t.Fatal(err)
	}
	psms, err := eng.SearchAll(ds.Queries)
	if err != nil {
		t.Fatal(err)
	}
	mod := 0
	for _, psm := range psms {
		gt := ds.Truth[psm.QueryID]
		if gt.Modified && gt.Peptide == psm.Peptide {
			mod++
		}
	}
	if mod == 0 {
		t.Error("no modified peptides matched")
	}
}

func TestLibraryAccessible(t *testing.T) {
	ds := testDataset(t)
	eng, err := NewEngine(testParams(), ds.Library)
	if err != nil {
		t.Fatal(err)
	}
	if eng.Library().Len() == 0 {
		t.Error("empty library exposed")
	}
}
