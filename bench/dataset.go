//go:build linux

package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/msdata"
	"repro/internal/spectrum"
)

// sizing fixes the input shape shared by all workloads. The defaults
// are the benchmark's; the self-test shrinks them.
type sizing struct {
	// targets is the number of target library spectra; an equal number
	// of decoys is added.
	targets int
	// queries is the number of query spectra. Load phases cycle
	// through them.
	queries int
	// churnQueries is how many of the queries serve-churn reads: its
	// oracle is computed once per published generation.
	churnQueries int
	// body is the spectra per POST in the closed-loop throughput phase.
	body int
	// latencyRate and churnRate are the open-loop arrival rates in
	// requests per second.
	latencyRate, churnRate float64
	// retract is how many base spectra serve-churn retracts and then
	// re-adds with its first slice.
	retract int
	// replayQueries is how many of the queries the traced replay pushes
	// through the modules, probeQueries how many of those its probes
	// repeat, and probe how long each kernel probe repeats its sweep.
	replayQueries, probeQueries int
	probe                       time.Duration
}

// hdDim and idPrecision are the omsbuild operating point of every
// index the benchmark builds (-d 2048 -precision 3).
const (
	hdDim       = 2048
	idPrecision = 3
)

// churnSlices is the number of appended slices in serve-churn; each is
// 2 % of the library and the base manifest holds the first 90 %.
const churnSlices = 5

// defaultSizing is the benchmark's: 40 000 references at the preset's
// natural peptide lengths — a 10 MB packed store, five times a core's
// L2, of which the open window (−150/+500 Da) covers about a quarter
// per query. It is the largest library whose generation, oracle
// encoding and serial omsbuild fit the time one run may take; see
// README.md, "Inputs".
var defaultSizing = sizing{
	targets:       20000,
	queries:       2048,
	churnQueries:  512,
	body:          64,
	latencyRate:   200,
	churnRate:     100,
	retract:       200,
	replayQueries: 1024,
	probeQueries:  512,
	probe:         200 * time.Millisecond,
}

// dataset is one seed's inputs: the files handed to the programs
// under test and, parsed back from the same bytes, the spectra the
// oracle and the replay work from — so both sides see byte-for-byte
// what the programs see.
type dataset struct {
	library []*spectrum.Spectrum
	queries []*spectrum.Spectrum

	libraryPath string
	queriesPath string

	// libraryText[i] is library spectrum i as MGF text: the library
	// file, and every file serve-churn cuts from it, is a run of these.
	libraryText [][]byte
	// bodies[i] is query i as a one-spectrum MGF request body; a
	// multi-spectrum body is the concatenation of its members.
	bodies [][]byte
}

// generate derives every input from the seed: an iPRG2012-shaped
// synthetic library and query set (msdata's preset peptide lengths,
// noise model and query mix), the library shuffled so that any prefix
// or slice of the file is a uniform sample of targets and decoys.
func generate(dir string, seed int64, sz sizing, nproc int) (*dataset, error) {
	cfg := msdata.IPRG2012(1)
	cfg.NumReferences = sz.targets
	cfg.NumQueries = sz.queries
	cfg.Seed += seed
	gen, err := msdata.Generate(cfg)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(gen.Library), func(i, j int) {
		gen.Library[i], gen.Library[j] = gen.Library[j], gen.Library[i]
	})

	ds := &dataset{
		libraryPath: filepath.Join(dir, "library.mgf"),
		queriesPath: filepath.Join(dir, "queries.mgf"),
	}
	if ds.libraryText, ds.library, err = render(gen.Library, nproc); err != nil {
		return nil, err
	}
	if ds.bodies, ds.queries, err = render(gen.Queries, nproc); err != nil {
		return nil, err
	}
	if err := writeTexts(ds.libraryPath, ds.libraryText); err != nil {
		return nil, err
	}
	if err := writeTexts(ds.queriesPath, ds.bodies); err != nil {
		return nil, err
	}
	return ds, nil
}

// render formats every spectrum as MGF text and parses the text back,
// one contiguous share of the spectra per CPU.
func render(spectra []*spectrum.Spectrum, nproc int) (texts [][]byte, parsed []*spectrum.Spectrum, err error) {
	texts = make([][]byte, len(spectra))
	parsed = make([]*spectrum.Spectrum, len(spectra))
	shares := min(max(nproc, 1), len(spectra))
	errs := make([]error, shares)
	var wg sync.WaitGroup
	for w := 0; w < shares; w++ {
		lo, hi := len(spectra)*w/shares, len(spectra)*(w+1)/shares
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[w] = func() error {
				var buf bytes.Buffer
				ends := make([]int, 0, hi-lo)
				for _, s := range spectra[lo:hi] {
					if err := spectrum.WriteMGF(&buf, []*spectrum.Spectrum{s}); err != nil {
						return err
					}
					ends = append(ends, buf.Len())
				}
				text := buf.Bytes()
				from := 0
				for k, to := range ends {
					texts[lo+k] = text[from:to:to]
					from = to
				}
				back, err := spectrum.ReadMGF(bytes.NewReader(text))
				if err != nil {
					return err
				}
				if len(back) != hi-lo {
					return fmt.Errorf("%d spectra written, %d read back", hi-lo, len(back))
				}
				copy(parsed[lo:hi], back)
				return nil
			}()
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, nil, fmt.Errorf("rendering spectra as MGF: %w", err)
		}
	}
	return texts, parsed, nil
}

// writeTexts writes MGF texts to path one after another.
func writeTexts(path string, texts [][]byte) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	for _, t := range texts {
		w.Write(t) // the first error sticks and Flush returns it
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

// body returns the request body holding n queries starting at query
// lo, wrapping around the first of queries, and which queries they
// are.
func (ds *dataset) body(lo, n, of int) (body []byte, members []int) {
	members = make([]int, n)
	for k := range members {
		members[k] = (lo + k) % of
		body = append(body, ds.bodies[members[k]]...)
	}
	return body, members
}

// churnPlan is serve-churn's write schedule over the library file:
// the base manifest is built from the first prefix[0] spectra, the
// last few of those are retracted and come back at the head of the
// first slice, and slicePaths[k] extends the visible set to
// prefix[k+1] spectra.
// Because the retracted spectra sit at the end of the base file, the
// visible set after every publish is a prefix of the library file in
// file order — exactly the order a from-scratch build of the visible
// set would see, which is what the oracle builds.
type churnPlan struct {
	basePath   string
	slicePaths []string
	retractIDs []string
	// prefix[s] is the number of library-file spectra visible at
	// stage s: stage 0 is the base manifest, stage k the state after
	// slicePaths[k−1] was published and reloaded.
	prefix []int
}

// planChurn writes the base and slice files.
func planChurn(dir string, ds *dataset, sz sizing) (*churnPlan, error) {
	n := len(ds.library)
	base := n * 9 / 10
	retract := min(sz.retract, base/2)
	plan := &churnPlan{
		basePath: filepath.Join(dir, "base.mgf"),
		prefix:   []int{base},
	}
	if err := writeTexts(plan.basePath, ds.libraryText[:base]); err != nil {
		return nil, err
	}
	for _, s := range ds.library[base-retract : base] {
		plan.retractIDs = append(plan.retractIDs, s.ID)
	}
	lo := base - retract
	for k := 1; k <= churnSlices; k++ {
		hi := base + (n-base)*k/churnSlices
		path := filepath.Join(dir, fmt.Sprintf("slice%d.mgf", k))
		if err := writeTexts(path, ds.libraryText[lo:hi]); err != nil {
			return nil, err
		}
		plan.slicePaths = append(plan.slicePaths, path)
		plan.prefix = append(plan.prefix, hi)
		lo = hi
	}
	return plan, nil
}
