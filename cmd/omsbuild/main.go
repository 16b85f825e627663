// Command omsbuild compiles an MGF/MSP spectral library into a
// persistent OMS library index — the one-time expensive write (full
// preprocessing + HD encoding of every reference spectrum) that the
// resident search daemon (omsd) and omsearch -index then amortize
// across arbitrarily many queries by loading the encoded library in
// milliseconds:
//
//	omsbuild -library lib.mgf -out lib.omsidx \
//	         [-d 8192] [-precision 3] [-shardsize 2048] [-seed 1] \
//	         [-partitions N]
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
//	omsbuild -retract -ids id1,id2,... -out lib.manifest
//
// -append encodes the new spectra with the library's stored params
// (encoder identity, binner — the structural flags above are
// rejected) and publishes them as small delta partitions under
// one new manifest generation; -retract publishes tombstones hiding
// the listed source ids. Both publish by appending one fsynced record
// to the manifest log — a running omsd picks the new generation up on
// SIGHUP, and omscompact folds accumulated deltas back into the base
// tier.
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
	shardSize := flag.Int("shardsize", 0, "reference rows per search shard (0 = default)")
	seed := flag.Int64("seed", 1, "random seed")
	// -tiers and -bit-layout selected the removed K-tier ladder and
	// entropy bit layout. They stay accepted only because the frozen
	// benchmark's batch-offline build passes them; ROADMAP item 1
	// deletes both.
	flag.String("tiers", "", "no effect (the K-tier ladder is gone); accepted for old command lines")
	flag.String("bit-layout", "", "no effect (the entropy bit layout is gone); accepted for old command lines")
	partitions := flag.Int("partitions", 0, "split the index into N mass-contiguous partitions plus a manifest (0 = single file)")
	appendMode := flag.Bool("append", false, "append -library as delta partitions to the existing partitioned index at -out (new manifest generation)")
	retractIDs := flag.String("retract", "", "publish tombstones for these comma-separated source ids to the partitioned index at -out")
	maxPartRefs := flag.Int("max-part-refs", 0, "with -append: max references per delta partition (0 = one partition per append)")
	flag.Parse()

	if *appendMode || *retractIDs != "" {
		incremental(*out, *libPath, *appendMode, *retractIDs, *maxPartRefs,
			*d != 8192 || *precision != 3 || *shardSize != 0 || *seed != 1 || *partitions != 0)
		return
	}

	if *libPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	if *out == "" {
		*out = *libPath + ".omsidx"
	}
	library, err := spectrum.ReadSpectraFile(*libPath)
	fatalIf(err)

	p := core.DefaultParams()
	p.Accel.D = *d
	p.Accel.NumChunks = core.NumChunksFor(*d)
	p.Accel.IDPrecision = *precision
	p.Accel.Seed = *seed
	p.ShardSize = *shardSize

	lib, err := libindex.BuildLibrary(library, p)
	fatalIf(err)
	if *partitions > 0 {
		fatalIf(libindex.SavePartitioned(*out, p, lib, *partitions))
		st, err := libindex.LoadManifestLog(*out)
		fatalIf(err)
		var total int64
		parts := st.Partitions()
		for _, part := range parts {
			total += part.Bytes
		}
		fmt.Fprintf(os.Stderr,
			"omsbuild: %s: %d references encoded (%d skipped), D=%d, %d partitions, %.1f MiB\n",
			*out, lib.Len(), lib.Skipped, *d, len(parts), float64(total)/(1<<20))
		return
	}
	fatalIf(libindex.SaveFile(*out, p, lib))

	info, err := os.Stat(*out)
	fatalIf(err)
	fmt.Fprintf(os.Stderr,
		"omsbuild: %s: %d references encoded (%d skipped), D=%d, %.1f MiB\n",
		*out, lib.Len(), lib.Skipped, *d, float64(info.Size())/(1<<20))
}

// incremental handles -append and -retract: both load the manifest's
// stored identity instead of taking structural flags, so a delta batch
// can never silently diverge from the base build.
func incremental(out, libPath string, appendMode bool, retractIDs string, maxPartRefs int, structuralFlags bool) {
	if out == "" {
		fatalIf(fmt.Errorf("-append/-retract require -out pointing at the existing manifest"))
	}
	if appendMode && retractIDs != "" {
		fatalIf(fmt.Errorf("-append and -retract are separate publishes; run them one at a time"))
	}
	if structuralFlags {
		fatalIf(fmt.Errorf("-append/-retract use the library's stored params; -d/-precision/-shardsize/-seed/-partitions must not be set"))
	}
	if !appendMode {
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
		return
	}

	if libPath == "" {
		fatalIf(fmt.Errorf("-append requires -library"))
	}
	spectra, err := spectrum.ReadSpectraFile(libPath)
	fatalIf(err)
	st, err := libindex.LoadManifestLog(out)
	fatalIf(err)
	p, err := st.DecodeParams()
	fatalIf(err)
	lib, err := libindex.BuildLibrary(spectra, p)
	fatalIf(err)
	if lib.Len() == 0 {
		fatalIf(fmt.Errorf("every spectrum in %s was rejected by preprocessing; nothing to append", libPath))
	}
	gen, err := libindex.AppendDelta(out, st, lib, maxPartRefs)
	fatalIf(err)
	fmt.Fprintf(os.Stderr,
		"omsbuild: %s: generation %d appends %d references (%d skipped); %d delta partitions live\n",
		out, gen, lib.Len(), lib.Skipped, len(st.Deltas))
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "omsbuild: %v\n", err)
		os.Exit(1)
	}
}
