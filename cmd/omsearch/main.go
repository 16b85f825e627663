// Command omsearch runs an open modification search of an MGF query
// file against an MGF spectral library using the HD engine:
//
//	omsearch -library lib.mgf -queries q.mgf [-backend ideal|rram] \
//	         [-d 8192] [-precision 3] [-seed 1] [-rescore 0] \
//	         [-fdr 0.01] [-standard] [-shardsize 2048]
//	omsearch -index lib.omsidx -queries q.mgf \
//	         [-fdr 0.01] [-standard] [-shardsize 2048]
//
// With -library the encoded library is built from scratch; with
// -index (built by omsbuild) the encoded, mass-ordered library and
// its engine parameters are loaded from the persistent index in
// milliseconds — the encoder-identity flags (-d, -precision, -seed)
// come from the index and are ignored. -index accepts a partition
// manifest written by omsbuild -partitions or a bare index file, a
// one-partition generation; either is opened memory-mapped where
// supported (the packed words become zero-copy searcher rows and fault
// in lazily), each query's precursor window is routed to the
// overlapping mass-fenced partitions, and their top-k lists merge
// exactly — output is bit-identical over any partitioning, and to a
// -library build at the same D/precision/seed. One stderr line per
// partition follows the summary. Either way the queries are prepared
// on every CPU (in input order on one, for the rram backend's seeded
// query flips) and
// the whole query set is scored by one block-major batch sweep of the
// packed store, each query's precursor window a contiguous row range
// streamed through the sharded engine's blocked XOR+popcount kernel.
// -parallel is still accepted and has no effect. The query file is
// parsed while the index opens (or the library is read and encoded)
// and the engine, item memory included, is built; an unreadable query
// file is still the error reported first. Results are written to
// stdout as a TSV of accepted PSMs.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/fdr"
	"repro/internal/hdc"
	"repro/internal/libindex"
	"repro/internal/spectrum"
)

func main() {
	libPath := flag.String("library", "", "library MGF path (build the encoded library from spectra)")
	indexPath := flag.String("index", "", "persistent library index path (load instead of encoding; see omsbuild)")
	qPath := flag.String("queries", "", "query MGF path (required)")
	backend := flag.String("backend", "ideal", "search backend: ideal or rram")
	d := flag.Int("d", 8192, "HD dimension")
	precision := flag.Int("precision", 3, "ID hypervector precision in bits (1-3)")
	alpha := flag.Float64("fdr", 0.01, "FDR acceptance level")
	standard := flag.Bool("standard", false, "narrow-window standard search instead of open search")
	flag.Bool("parallel", false, "no effect: every search prepares on all CPUs and scores the query set in one sweep")
	shardSize := flag.Int("shardsize", 0, "reference rows per search shard (0 = default)")
	rescore := flag.Float64("rescore", 0, "blend factor for shifted-dot rescoring of the HD top-k candidates (0 = off, 1 = pure shifted-dot)")
	seed := flag.Int64("seed", 1, "random seed")
	flag.Parse()

	if (*libPath == "") == (*indexPath == "") || *qPath == "" {
		fmt.Fprintln(os.Stderr, "omsearch: exactly one of -library and -index is required, plus -queries")
		flag.Usage()
		os.Exit(2)
	}
	// The queries are parsed while the library arrives. A failure of
	// either is reported only once the query file is read, and the
	// query file's own error first, as if it were read before.
	var (
		queries []*spectrum.Spectrum
		qerr    error
	)
	parsed := make(chan struct{})
	go func() {
		defer close(parsed)
		queries, qerr = spectrum.ReadSpectraFile(*qPath)
	}()
	check := func(err error) {
		if err != nil {
			<-parsed
			fatalIf(qerr)
			fatalIf(err)
		}
	}
	var err error

	// Query-time settings come from flags whichever way the library
	// arrives; over an index the encoder identity stays as built.
	queryTime := func(p core.Params) core.Params {
		p.FDRAlpha = *alpha
		p.Open = !*standard
		if *shardSize > 0 {
			p.ShardSize = *shardSize
		}
		return p
	}
	var (
		engine  *core.Engine
		library []*spectrum.Spectrum
	)
	if *indexPath != "" {
		if *backend != "ideal" {
			check(fmt.Errorf("backend %q requires -library (the index stores the exact encoded library)", *backend))
		}
		if *rescore > 0 {
			check(fmt.Errorf("-rescore needs the original library spectra: use -library"))
		}
		// The index mappings stay open for the process lifetime; the
		// searcher rows are views over them.
		ix, oerr := libindex.Open(*indexPath)
		check(oerr)
		engine, _, err = core.NewPartitionedEngine(queryTime(ix.Params), ix.PartitionSet())
		check(err)
	} else {
		library, err = spectrum.ReadSpectraFile(*libPath)
		check(err)
		p := core.DefaultParams()
		p.Accel.D = *d
		p.Accel.NumChunks = core.NumChunksFor(*d)
		p.Accel.IDPrecision = *precision
		p.Accel.Seed = *seed
		p = queryTime(p)

		switch *backend {
		case "ideal":
			engine, _, err = core.BuildExact(p, library)
		case "rram":
			engine, err = core.BuildNoisy(p, library, core.NoiseSpec{
				EncodeBER:     0.04,
				RefStorageBER: 0.02,
				SearchSigma:   0.004 * float64(*d),
				Seed:          *seed + 1,
			})
		default:
			err = fmt.Errorf("unknown backend %q", *backend)
		}
		check(err)
	}
	<-parsed
	fatalIf(qerr)

	var res fdr.Result
	if *rescore > 0 {
		rs, rerr := core.NewRescorer(engine, library, *rescore)
		fatalIf(rerr)
		res, err = rs.Run(queries)
	} else {
		res, err = engine.Run(queries)
	}
	fatalIf(err)

	fatalIf(writePSMs(os.Stdout, res))
	fmt.Fprintf(os.Stderr,
		"omsearch: %d queries, %d library spectra (%d skipped), %d identifications at FDR %.2g, sweep kernel %s\n",
		len(queries), engine.NumRefs(), engine.Skipped(), len(res.Accepted), *alpha, hdc.KernelName())
	for i, st := range engine.PartitionStats() {
		fmt.Fprintf(os.Stderr, "omsearch: partition %d: rows [%d,%d) masses [%.2f,%.2f]\n",
			i, st.StartRow, st.StartRow+st.Refs, st.MinMass, st.MaxMass)
	}
}

// writePSMs writes the accepted PSMs as TSV through one buffered
// writer, propagating the first write error instead of silently
// dropping output.
func writePSMs(w io.Writer, res fdr.Result) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "query_id\tpeptide\tscore\tmass_shift"); err != nil {
		return err
	}
	for _, psm := range res.Accepted {
		if _, err := fmt.Fprintf(bw, "%s\t%s\t%.4f\t%+.4f\n",
			psm.QueryID, psm.Peptide, psm.Score, psm.MassShift); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "omsearch: %v\n", err)
		os.Exit(1)
	}
}
