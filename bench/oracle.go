//go:build linux

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"

	"repro/internal/accel"
	"repro/internal/core"
	"repro/internal/fdr"
	"repro/internal/hdc"
	"repro/internal/spectrum"
)

// oracle computes expected results by the slow simple path: a
// single-tier, natural-layout, single-store engine encoded in-process
// from the library spectra, searched one query at a time with
// Engine.SearchOne. It shares no index file, partition routing,
// batching, cascade ladder or bit permutation with the paths under
// test.
type oracle struct {
	params core.Params
	// full is the engine over the whole library file; its library is
	// the mass-ordered encoding every prefix engine is cut from, so
	// each reference is encoded once per run.
	full  *core.Engine
	nproc int
}

// oracleParams mirrors omsbuild's flag handling at -d 2048
// -precision 3 and the default seed.
func oracleParams(open bool) core.Params {
	p := core.DefaultParams()
	p.Accel.D = hdDim
	p.Accel.NumChunks = max(hdDim/32, 32)
	p.Accel.IDPrecision = idPrecision
	p.Accel.Seed = 1
	p.Open = open
	return p
}

// newOracle encodes the whole library once: core.BuildLibrary over
// one contiguous chunk of the file per CPU, each with an encoder of
// its own, put back into file order and mass-sorted as one library —
// what BuildLibrary over the whole file yields, in a fraction of the
// time.
func newOracle(library []*spectrum.Spectrum, open bool, nproc int) (*oracle, error) {
	p := oracleParams(open)
	entries := make([]core.LibraryEntry, len(library))
	hvs := make([]hdc.BinaryHV, len(library))
	nproc = max(nproc, 1)
	chunks := min(nproc, len(library))
	errs := make([]error, chunks)
	var wg sync.WaitGroup
	for c := 0; c < chunks; c++ {
		lo, hi := len(library)*c/chunks, len(library)*(c+1)/chunks
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[c] = func() error {
				ids, levels, err := accel.NewEncoderComponents(p.Accel)
				if err != nil {
					return err
				}
				enc, err := hdc.NewEncoder(ids, levels)
				if err != nil {
					return err
				}
				lib, err := core.BuildLibrary(library[lo:hi], p, enc)
				if err != nil {
					return err
				}
				if lib.Skipped != 0 {
					// Prefix engines index references by library-file position.
					return fmt.Errorf("%d library spectra rejected by preprocessing; the generator must emit none", lib.Skipped)
				}
				for i := range lib.Entries {
					entries[lo+lib.SourcePos(i)], hvs[lo+lib.SourcePos(i)] = lib.Entries[i], lib.HVs[i]
				}
				return nil
			}()
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("oracle: %w", err)
		}
	}
	lib := &core.Library{Entries: entries, HVs: hvs}
	lib.SortByMass()
	full, _, err := core.NewExactEngineFromLibrary(p, lib)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	return &oracle{params: p, full: full, nproc: nproc}, nil
}

// engine returns the oracle engine over the first n spectra of the
// library file, in the order a from-scratch build of that prefix
// would store them.
func (o *oracle) engine(n int) (*core.Engine, error) {
	lib := o.full.Library()
	if n == lib.Len() {
		return o.full, nil
	}
	entries := make([]core.LibraryEntry, 0, n)
	hvs := lib.HVs[:0:0]
	srcPos := make([]int, 0, n)
	for i := range lib.Entries {
		if pos := lib.SourcePos(i); pos < n {
			entries = append(entries, lib.Entries[i])
			hvs = append(hvs, lib.HVs[i])
			srcPos = append(srcPos, pos)
		}
	}
	sub, err := core.RestoreLibrary(entries, hvs, srcPos, 0)
	if err != nil {
		return nil, fmt.Errorf("oracle: prefix %d: %w", n, err)
	}
	e, _, err := core.NewExactEngineFromLibrary(o.params, sub)
	if err != nil {
		return nil, fmt.Errorf("oracle: prefix %d: %w", n, err)
	}
	return e, nil
}

// expected is the oracle's answer for one query.
type expected struct {
	id      string
	matched bool
	psm     fdr.PSM
}

// expect searches every query against the first n library spectra,
// one SearchOne call at a time on each CPU.
func (o *oracle) expect(n int, queries []*spectrum.Spectrum) ([]expected, error) {
	e, err := o.engine(n)
	if err != nil {
		return nil, err
	}
	out := make([]expected, len(queries))
	errs := make([]error, o.nproc)
	var wg sync.WaitGroup
	for w := 0; w < o.nproc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(queries) && errs[w] == nil; i += o.nproc {
				q := queries[i]
				psm, ok, err := e.SearchOne(q)
				if err != nil {
					errs[w] = fmt.Errorf("oracle: query %s: %w", q.ID, err)
				}
				out[i] = expected{id: q.ID, matched: ok, psm: psm}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// servedResult is one entry of omsd's JSON /search response.
type servedResult struct {
	QueryID   string  `json:"query_id"`
	Matched   bool    `json:"matched"`
	Peptide   string  `json:"peptide"`
	Score     float64 `json:"score"`
	MassShift float64 `json:"mass_shift"`
	Decoy     bool    `json:"decoy"`
	Error     string  `json:"error"`
}

// matches reports whether a served result is the oracle's answer,
// field for field (JSON float encoding round-trips exactly).
func (e expected) matches(r servedResult) bool {
	if r.Error != "" || r.QueryID != e.id || r.Matched != e.matched {
		return false
	}
	if !e.matched {
		return true
	}
	return r.Peptide == e.psm.Peptide && r.Score == e.psm.Score &&
		r.MassShift == e.psm.MassShift && r.Decoy == e.psm.IsDecoy
}

// countMismatches decodes a JSON /search response for the given
// queries and counts the results that differ from every acceptable
// expectation set (serve-churn passes one set per generation that
// may have served the request; the others pass one). A response of
// the wrong shape fails every member.
func countMismatches(respBody []byte, members []int, accept [][]expected) int {
	var resp struct {
		Results []servedResult `json:"results"`
	}
	if err := json.Unmarshal(respBody, &resp); err != nil || len(resp.Results) != len(members) {
		return len(members)
	}
	bad := 0
	for k, m := range members {
		ok := false
		for _, exp := range accept {
			if exp[m].matches(resp.Results[k]) {
				ok = true
				break
			}
		}
		if !ok {
			bad++
		}
	}
	return bad
}

// servedTSV renders expectations as omsd's ?format=tsv response.
func servedTSV(exp []expected) []byte {
	var b bytes.Buffer
	b.WriteString("query_id\tmatched\tpeptide\tscore\tmass_shift\n")
	for _, e := range exp {
		fmt.Fprintf(&b, "%s\t%t\t%s\t%.4f\t%+.4f\n",
			e.id, e.matched, e.psm.Peptide, e.psm.Score, e.psm.MassShift)
	}
	return b.Bytes()
}

// batchTSV renders the oracle's FDR-filtered identifications as
// omsearch's stdout, and returns the accepted count.
func batchTSV(exp []expected, alpha float64) ([]byte, int, error) {
	var psms []fdr.PSM
	for _, e := range exp {
		if e.matched {
			psms = append(psms, e.psm)
		}
	}
	res, err := fdr.Filter(psms, alpha)
	if err != nil {
		return nil, 0, err
	}
	var b bytes.Buffer
	b.WriteString("query_id\tpeptide\tscore\tmass_shift\n")
	for _, psm := range res.Accepted {
		fmt.Fprintf(&b, "%s\t%s\t%.4f\t%+.4f\n", psm.QueryID, psm.Peptide, psm.Score, psm.MassShift)
	}
	return b.Bytes(), len(res.Accepted), nil
}
