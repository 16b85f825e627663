// Command omscompact folds a partitioned library's delta tier back
// into its base tier: every delta partition omsbuild -append
// published, every partition holding rows shadowed by tombstones or
// newer re-additions, and every base partition whose mass fences touch
// one of those is merged, re-tiled into mass-contiguous base
// partitions, and published as one new manifest generation. It is the
// only compactor; omsd only reads, so run it beside a live daemon and
// send the daemon a SIGHUP after it:
//
//	omscompact -index lib.manifest [-max-part-refs N] [-sweep] [-gc] && kill -HUP <omsd>
//
// Retired partition files leave the manifest but stay on disk, since
// an omsd that has not reloaded may still serve from them. -sweep
// removes orphaned files no manifest record ever referenced (what a
// writer that crashed before publishing left behind). -gc also removes
// files only earlier generations referenced; run it only once every
// reader has reloaded past the compaction.
//
// omscompact takes the manifest's writer lock: while another writer
// (omsbuild -append/-retract or omscompact) holds it, it fails instead
// of racing it.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/libindex"
)

func main() {
	indexPath := flag.String("index", "", "partitioned index manifest path (required)")
	maxPartRefs := flag.Int("max-part-refs", 0, "max references per compacted partition (0 = one partition per mass gap)")
	sweep := flag.Bool("sweep", false, "after compacting, remove orphaned partition files no manifest record ever referenced (crash leftovers)")
	gc := flag.Bool("gc", false, "after compacting, also remove retired partition files dropped by earlier generations (UNSAFE while readers of older generations are live)")
	flag.Parse()

	if *indexPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	stats, err := libindex.Compact(*indexPath, *maxPartRefs)
	fatalIf(err)
	if stats.Noop {
		fmt.Fprintf(os.Stderr, "omscompact: %s: nothing to compact (no deltas, no tombstones, no shadowed rows)\n", *indexPath)
	} else {
		fmt.Fprintf(os.Stderr,
			"omscompact: %s: generation %d: %d partitions -> %d (%d refs merged, %d shadowed refs dropped, %d tombstones cleared)\n",
			*indexPath, stats.Generation, stats.DroppedPartitions, stats.NewPartitions,
			stats.MergedRefs, stats.RemovedRefs, stats.ClearedTombstones)
	}

	if *sweep || *gc {
		st, err := libindex.LoadManifestLog(*indexPath)
		fatalIf(err)
		removed, err := libindex.SweepOrphans(*indexPath, st)
		fatalIf(err)
		if *gc {
			retired, err := libindex.SweepRetired(*indexPath, st)
			fatalIf(err)
			removed = append(removed, retired...)
		}
		if len(removed) > 0 {
			fmt.Fprintf(os.Stderr, "omscompact: removed %d unreferenced partition files\n", len(removed))
		}
	}
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "omscompact: %v\n", err)
		os.Exit(1)
	}
}
