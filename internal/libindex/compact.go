package libindex

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"

	"repro/internal/core"
)

// CompactStats summarizes one compaction.
type CompactStats struct {
	// Generation is the published compact generation (0 when Noop).
	Generation uint64
	// Noop reports that nothing needed compacting (no deltas, no
	// tombstones, no hidden rows) and no record was written.
	Noop bool
	// DroppedPartitions and NewPartitions count the retired and
	// replacement partition files; MergedRefs the visible rows carried
	// into the replacements and RemovedRefs the shadowed rows
	// physically dropped.
	DroppedPartitions, NewPartitions int
	MergedRefs, RemovedRefs          int
	// ClearedTombstones counts the tombstones the compaction consumed.
	ClearedTombstones int
}

// Compact folds the delta tier into the base tier and publishes the
// result as one compact generation: every delta partition, every
// partition holding shadowed rows, and — transitively — every base
// partition whose mass fences touch an affected partition's is merged;
// the visible survivors are re-tiled into mass-contiguous base
// partitions of at most maxPartRefs rows (0 = one partition per gap)
// and the old files are logically dropped (physical removal is
// deferred: live readers may still map them — see SweepRetired). All
// outstanding tombstones are consumed.
//
// Two planner rules keep the dedup merge bit-identical to a
// from-scratch build afterwards: the affected set is closed under
// inclusive fence intersection, and no output partition boundary
// splits an equal-mass run. Together they guarantee that two rows of
// equal mass never end up in live partitions of different generations,
// so the merge comparator's (generation, generation-row) tie-break
// always equals append order (see DESIGN.md §11).
//
// Like every writer, Compact publishes under the manifest's writer
// lock: a concurrent writer fails it instead of racing it, and one that
// published while it planned makes it fail as stale. It is safe
// against concurrent readers, which keep serving the previous
// generation until they reload.
func Compact(manifestPath string, maxPartRefs int) (CompactStats, error) {
	pi, err := OpenManifest(manifestPath)
	if err != nil {
		return CompactStats{}, err
	}
	defer pi.Close()

	st := pi.State
	set := pi.PartitionSet()
	hidden := core.HiddenRows(set.Specs, set.Tombstones)
	hiddenTotal := 0
	for _, h := range hidden {
		hiddenTotal += len(h)
	}
	if len(st.Deltas) == 0 && hiddenTotal == 0 && len(st.Tombstones) == 0 {
		return CompactStats{Noop: true}, nil
	}

	// Affected set: deltas and anything with shadowed rows, closed
	// under inclusive fence intersection (a kept partition must be
	// strictly mass-disjoint from everything being merged).
	states := st.Partitions()
	affected := make([]bool, len(states))
	for i := range states {
		affected[i] = states[i].Delta || len(hidden[i]) > 0
	}
	for changed := true; changed; {
		changed = false
		for i := range states {
			if affected[i] {
				continue
			}
			for j := range states {
				if affected[j] &&
					states[i].MinMass <= states[j].MaxMass &&
					states[j].MinMass <= states[i].MaxMass {
					affected[i] = true
					changed = true
					break
				}
			}
		}
	}

	// Merge the affected partitions' visible rows: gathered in append
	// order (generation, then row within it) and mass-sorted stably, as
	// a from-scratch build sorts them — so each row's source position is
	// its append-order rank.
	rec := LogRecord{Type: recordCompact}
	var affectedIdx []int
	var kept []PartitionState
	for i, ps := range states {
		if affected[i] {
			rec.Drop = append(rec.Drop, ps.File)
			affectedIdx = append(affectedIdx, i)
		} else {
			kept = append(kept, ps)
		}
	}
	sort.Slice(affectedIdx, func(a, b int) bool {
		sa, sb := states[affectedIdx[a]], states[affectedIdx[b]]
		return sa.Gen < sb.Gen || sa.Gen == sb.Gen && sa.GenRow < sb.GenRow
	})
	merged := &core.Library{}
	for _, i := range affectedIdx {
		lib := pi.Parts[i].Lib
		shadowed := hidden[i] // ascending: consumed from the front as r passes
		for r := range lib.Entries {
			if len(shadowed) > 0 && shadowed[0] == r {
				shadowed = shadowed[1:]
				continue
			}
			merged.Entries = append(merged.Entries, lib.Entries[r])
			merged.HVs = append(merged.HVs, lib.HVs[r])
		}
	}
	merged.SortByMass()
	n := merged.Len()
	if n == 0 && len(kept) == 0 {
		return CompactStats{}, fmt.Errorf("libindex: compaction would leave no live partitions (every reference is retracted); refusing — rebuild instead")
	}

	// One pass over the merged rows cuts them at every gap between kept
	// partitions — closure guarantees every merged mass lies strictly
	// outside every kept fence interval, so no new partition straddles a
	// kept one — and after maxPartRefs rows, but never inside an
	// equal-mass run (the exactness invariant above).
	var ends []int
	for i, k, lo := 0, 0, 0; i < n; i++ {
		m, gap := merged.Entries[i].Mass, k
		for k < len(kept) && kept[k].MaxMass < m {
			k++
		}
		if k < len(kept) && kept[k].MinMass <= m {
			return CompactStats{}, fmt.Errorf("libindex: internal: merged row mass %g falls inside kept partition %s [%g, %g]",
				m, kept[k].File, kept[k].MinMass, kept[k].MaxMass)
		}
		if i > lo && (k != gap || maxPartRefs > 0 && i-lo >= maxPartRefs && m != merged.Entries[i-1].Mass) {
			ends = append(ends, i)
			lo = i
		}
	}
	if n > 0 {
		ends = append(ends, n)
	}
	chunks, err := cutLibrary(merged, ends)
	if err != nil {
		return CompactStats{}, err
	}
	for id := range st.Tombstones {
		rec.Clear = append(rec.Clear, id)
	}
	sort.Strings(rec.Clear)
	gen, err := publish(manifestPath, st, pi.Params, rec, chunks)
	if err != nil {
		return CompactStats{}, err
	}
	return CompactStats{Generation: gen, DroppedPartitions: len(rec.Drop), NewPartitions: len(chunks),
		MergedRefs: n, RemovedRefs: hiddenTotal, ClearedTombstones: len(rec.Clear)}, nil
}

// partitionFileRE matches the partition files belonging to a manifest
// base name — base-build names ("<base>.partNNN"), generation names
// ("<base>.gNNNNNN.partNNN") and their atomic-write temporaries.
func partitionFileRE(manifestBase string) *regexp.Regexp {
	return regexp.MustCompile(`^` + regexp.QuoteMeta(manifestBase) + `(\.g\d{6})?\.part\d{3}(\.tmp)?$`)
}

// SweepOrphans removes partition files in the manifest's directory
// that NO log record — live or dropped — has ever referenced, plus
// stale atomic-write temporaries: the leftovers of a writer that
// crashed between writing its partition files and appending its
// record. Removing them is always safe for readers (nothing can map a
// never-published file); it takes the writer lock, so it fails rather
// than sweep while another writer is mid-publish, and it refuses an st
// older than the log. The removed file names are returned.
func SweepOrphans(manifestPath string, st *ManifestState) ([]string, error) {
	return sweep(manifestPath, st, func(name string, tmp bool) bool {
		return tmp || !st.everFiles[name]
	})
}

// SweepRetired removes partition files that earlier generations
// referenced but the current generation no longer does — the files a
// compaction logically dropped. Unlike SweepOrphans this is NOT safe
// while readers of older generations are live (their mappings keep
// the data readable on unix, but the names disappear); run it only
// when every reader has reloaded past the drop, e.g. from omscompact
// -gc during maintenance.
func SweepRetired(manifestPath string, st *ManifestState) ([]string, error) {
	live := make(map[string]bool, len(st.Base)+len(st.Deltas))
	for _, p := range st.Partitions() {
		live[p.File] = true
	}
	return sweep(manifestPath, st, func(name string, tmp bool) bool {
		return !tmp && st.everFiles[name] && !live[name]
	})
}

// sweep removes the manifest's partition-named directory entries
// selected by rm(name, isTmp) and returns their names. It holds the
// writer lock, so no publish is in flight, and refuses a stale st, or
// it would take a newer generation's files for orphans.
func sweep(manifestPath string, st *ManifestState, rm func(name string, tmp bool) bool) ([]string, error) {
	unlock, err := lockWriter(manifestPath, st)
	if err != nil {
		return nil, err
	}
	defer unlock()
	dir := filepath.Dir(manifestPath)
	re := partitionFileRE(filepath.Base(manifestPath))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var removed []string
	for _, ent := range entries {
		name := ent.Name()
		if ent.IsDir() || !re.MatchString(name) {
			continue
		}
		if !rm(name, filepath.Ext(name) == ".tmp") {
			continue
		}
		if err := fsys.Remove(filepath.Join(dir, name)); err != nil {
			return removed, err
		}
		removed = append(removed, name)
	}
	if len(removed) > 0 {
		if err := fsys.SyncDir(dir); err != nil {
			return removed, err
		}
	}
	return removed, nil
}
