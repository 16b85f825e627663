// Command omsbuild compiles an MGF/MSP spectral library into a
// persistent OMS library index — the one-time expensive write (full
// preprocessing + HD encoding of every reference spectrum) that the
// resident search daemon (omsd) and omsearch -index then amortize
// across arbitrarily many queries by loading the encoded library in
// milliseconds:
//
//	omsbuild -library lib.mgf -out lib.omsidx \
//	         [-d 8192] [-precision 3] [-seed 1] [-partitions N]
//
// The index records the full engine parameters (encoder seeds, binner,
// preprocessing) alongside the packed mass-ordered hypervectors, the
// precursor masses, the sort permutation and the entry metadata, under
// a CRC-32C checksum. Every index has one row layout: whole rows in
// the encoder's dimension order, swept in full. -tiers and -bit-layout
// are accepted and ignored.
//
// With -partitions N the library is instead split into N
// mass-contiguous partition index files (<out>.part000 …) plus a
// generation-log manifest at <out> recording the global mass fences,
// row offsets and per-partition checksums. omsearch -index and omsd
// -index accept the manifest wherever they accept a single index;
// partitions are opened memory-mapped, so a partitioned library larger
// than RAM serves queries with only the touched pages resident.
//
// A partitioned library is incrementally updatable:
//
//	omsbuild -append  -library new.mgf -out lib.manifest [-max-part-refs N]
//	omsbuild -retract id1,id2,... -out lib.manifest
//
// -append encodes the new spectra with the manifest's stored params
// (the structural flags above are rejected) and publishes them as
// delta partitions under one new generation; -retract publishes
// tombstones hiding the listed source ids. A -partitions build over an
// existing manifest is a rebuild: it publishes the whole library as one
// new generation, whose stderr line names it, and replaces every
// earlier partition and tombstone. Each appends one fsynced record to
// the manifest log under its writer lock. omsd only reads: it serves
// the new generation after a SIGHUP, omscompact folds the deltas back
// into the base tier, and omscompact -gc removes the files a rebuild
// or compaction retired once every reader has reloaded.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/libindex"
	"repro/internal/spectrum"
)

func main() {
	libPath := flag.String("library", "", "library MGF/MSP path (required unless -retract)")
	out := flag.String("out", "", "output index path (default: library path + .omsidx); with -append/-retract: the existing manifest")
	d := flag.Int("d", 8192, "HD dimension")
	precision := flag.Int("precision", 3, "ID hypervector precision in bits (1-3)")
	seed := flag.Int64("seed", 1, "random seed")
	// -tiers and -bit-layout selected the removed K-tier ladder and
	// entropy bit layout. They stay accepted only because the frozen
	// benchmark's batch-offline build passes them; ROADMAP item 1
	// deletes both.
	flag.String("tiers", "", "no effect (the K-tier ladder is gone); accepted for old command lines")
	flag.String("bit-layout", "", "no effect (the entropy bit layout is gone); accepted for old command lines")
	partitions := flag.Int("partitions", 0, "split the index into N mass-contiguous partitions plus a manifest (0 = single file); over an existing manifest, publish the rebuild as its next generation")
	appendMode := flag.Bool("append", false, "append -library as delta partitions to the existing partitioned index at -out (new manifest generation)")
	retractIDs := flag.String("retract", "", "publish tombstones for these comma-separated source ids to the partitioned index at -out")
	maxPartRefs := flag.Int("max-part-refs", 0, "with -append: max references per delta partition (0 = one partition per append)")
	flag.Parse()

	// -append/-retract take the manifest's stored identity, never the
	// structural flags, so a delta batch cannot diverge from its base.
	switch incremental := *appendMode || *retractIDs != ""; {
	case incremental && *out == "":
		fatalIf(fmt.Errorf("-append/-retract require -out pointing at the existing manifest"))
	case *appendMode && *retractIDs != "":
		fatalIf(fmt.Errorf("-append and -retract are separate publishes; run them one at a time"))
	case incremental && (*d != 8192 || *precision != 3 || *seed != 1 || *partitions != 0):
		fatalIf(fmt.Errorf("-append/-retract use the library's stored params; -d/-precision/-seed/-partitions must not be set"))
	case *retractIDs != "":
		retract(*out, *retractIDs)
		return
	case *appendMode && *libPath == "":
		fatalIf(fmt.Errorf("-append requires -library"))
	case *libPath == "":
		flag.Usage()
		os.Exit(2)
	case *out == "":
		*out = *libPath + ".omsidx"
	}

	spectra, err := spectrum.ReadSpectraFile(*libPath)
	fatalIf(err)
	p := core.DefaultParams()
	p.Accel.D = *d
	p.Accel.NumChunks = core.NumChunksFor(*d)
	p.Accel.IDPrecision = *precision
	p.Accel.Seed = *seed
	var st *libindex.ManifestState
	if *appendMode {
		st, err = libindex.LoadManifestLog(*out)
		fatalIf(err)
		p, err = st.DecodeParams()
		fatalIf(err)
	}
	lib, err := libindex.BuildLibrary(spectra, p)
	fatalIf(err)

	if *appendMode {
		if lib.Len() == 0 {
			fatalIf(fmt.Errorf("every spectrum in %s was rejected by preprocessing; nothing to append", *libPath))
		}
		gen, err := libindex.AppendDelta(*out, st, lib, *maxPartRefs)
		fatalIf(err)
		fmt.Fprintf(os.Stderr,
			"omsbuild: %s: generation %d appends %d references (%d skipped); %d delta partitions live\n",
			*out, gen, lib.Len(), lib.Skipped, len(st.Deltas))
		return
	}
	if *partitions > 0 {
		fatalIf(libindex.SavePartitioned(*out, p, lib, *partitions))
	} else {
		fatalIf(libindex.SaveFile(*out, p, lib))
	}
	// One report after either save: a log at -out (a -partitions build,
	// or a plain one over a manifest, which rebuilds it) names its
	// generation and sums its partition files; a bare file is its size.
	name, layout, size := *out, "", int64(0)
	if st, err := libindex.LoadManifestLog(*out); err == nil {
		for _, ps := range st.Partitions() {
			size += ps.Bytes
		}
		name = fmt.Sprintf("%s: generation %d", *out, st.Generation)
		layout = fmt.Sprintf(", %d partitions", len(st.Partitions()))
	} else {
		info, err := os.Stat(*out)
		fatalIf(err)
		size = info.Size()
	}
	fmt.Fprintf(os.Stderr, "omsbuild: %s: %d references encoded (%d skipped), D=%d%s, %.1f MiB\n",
		name, lib.Len(), lib.Skipped, *d, layout, float64(size)/(1<<20))
}

// retract publishes tombstones for the comma-separated ids against the
// manifest's live ids.
func retract(out, retractIDs string) {
	var ids []string
	for _, id := range strings.Split(retractIDs, ",") {
		if id = strings.TrimSpace(id); id != "" {
			ids = append(ids, id)
		}
	}
	ix, err := libindex.Open(out)
	fatalIf(err)
	known := ix.LiveIDs()
	st := ix.State
	fatalIf(ix.Close())
	gen, err := libindex.AppendRetract(out, st, ids, known)
	fatalIf(err)
	fmt.Fprintf(os.Stderr, "omsbuild: %s: generation %d retracts %d ids (%d tombstones outstanding)\n",
		out, gen, len(ids), len(st.Tombstones))
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "omsbuild: %v\n", err)
		os.Exit(1)
	}
}
