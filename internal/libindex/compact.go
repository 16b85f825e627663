package libindex

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"

	"repro/internal/core"
	"repro/internal/hdc"
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
// Like every writer, Compact assumes it is the only writer; it is safe
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

	// Merge the affected partitions' visible rows in canonical order:
	// ascending mass, ties by append order (generation, then the row's
	// offset within its generation).
	type mrow struct {
		entry core.LibraryEntry
		hv    hdc.BinaryHV
		gen   uint64
		seq   int
	}
	var rows []mrow
	stats := CompactStats{ClearedTombstones: len(st.Tombstones)}
	var drop []string
	for i := range states {
		if !affected[i] {
			continue
		}
		drop = append(drop, states[i].File)
		stats.DroppedPartitions++
		lib := pi.Parts[i].Lib
		shadowed := hidden[i] // ascending: consumed from the front as r passes
		for r := range lib.Entries {
			if len(shadowed) > 0 && shadowed[0] == r {
				shadowed = shadowed[1:]
				stats.RemovedRefs++
				continue
			}
			rows = append(rows, mrow{lib.Entries[r], lib.HVs[r], states[i].Gen, states[i].GenRow + r})
		}
	}
	sort.SliceStable(rows, func(a, b int) bool {
		if rows[a].entry.Mass != rows[b].entry.Mass {
			return rows[a].entry.Mass < rows[b].entry.Mass
		}
		if rows[a].gen != rows[b].gen {
			return rows[a].gen < rows[b].gen
		}
		return rows[a].seq < rows[b].seq
	})
	stats.MergedRefs = len(rows)

	var kept []PartitionState
	for i := range states {
		if !affected[i] {
			kept = append(kept, states[i])
		}
	}
	if len(rows) == 0 && len(kept) == 0 {
		return CompactStats{}, fmt.Errorf("libindex: compaction would leave no live partitions (every reference is retracted); refusing — rebuild instead")
	}

	// Partition the merged rows into the gaps between kept partitions:
	// closure guarantees every merged mass lies strictly outside every
	// kept fence interval, so each row maps to exactly one gap and the
	// new partitions cannot straddle a kept one.
	groups := make(map[int][]mrow)
	var gapOrder []int
	for _, r := range rows {
		g := sort.Search(len(kept), func(k int) bool { return kept[k].MaxMass >= r.entry.Mass })
		if g < len(kept) && kept[g].MinMass <= r.entry.Mass {
			return CompactStats{}, fmt.Errorf("libindex: internal: merged row mass %g falls inside kept partition %s [%g, %g]",
				r.entry.Mass, kept[g].File, kept[g].MinMass, kept[g].MaxMass)
		}
		if _, ok := groups[g]; !ok {
			gapOrder = append(gapOrder, g)
		}
		groups[g] = append(groups[g], r)
	}
	sort.Ints(gapOrder)

	newGen := st.Generation + 1
	rec := LogRecord{Type: recordCompact, Generation: newGen, Drop: drop}
	for id := range st.Tombstones {
		rec.Clear = append(rec.Clear, id)
	}
	sort.Strings(rec.Clear)

	startRow, fileIdx := 0, 0
	for _, g := range gapOrder {
		group := groups[g]
		for lo := 0; lo < len(group); {
			hi := len(group)
			if maxPartRefs > 0 && lo+maxPartRefs < hi {
				hi = lo + maxPartRefs
				// Never split an equal-mass run across output partitions —
				// the exactness invariant above.
				for hi < len(group) && group[hi].entry.Mass == group[hi-1].entry.Mass {
					hi++
				}
			}
			chunk := group[lo:hi]
			entries := make([]core.LibraryEntry, len(chunk))
			hvs := make([]hdc.BinaryHV, len(chunk))
			ord := make([]int, len(chunk))
			for i, r := range chunk {
				entries[i] = r.entry
				hvs[i] = r.hv
				ord[i] = i
			}
			// srcPos: each row's rank in append order — what a from-scratch
			// build's stable mass sort would have recorded.
			sort.SliceStable(ord, func(a, b int) bool {
				if chunk[ord[a]].gen != chunk[ord[b]].gen {
					return chunk[ord[a]].gen < chunk[ord[b]].gen
				}
				return chunk[ord[a]].seq < chunk[ord[b]].seq
			})
			srcPos := make([]int, len(chunk))
			for rank, i := range ord {
				srcPos[i] = rank
			}
			sub, err := core.RestoreLibrary(entries, hvs, srcPos, 0)
			if err != nil {
				return CompactStats{}, fmt.Errorf("libindex: assembling compacted partition %d: %w", fileIdx, err)
			}
			if err := sub.SetDimPerm(st.DimPerm); err != nil {
				return CompactStats{}, fmt.Errorf("libindex: assembling compacted partition %d: %w", fileIdx, err)
			}
			path := GenPartitionFileName(manifestPath, newGen, fileIdx)
			crc, size, err := savePartitionFile(path, pi.Params, sub)
			if err != nil {
				return CompactStats{}, fmt.Errorf("libindex: writing compacted partition %d: %w", fileIdx, err)
			}
			rec.Partitions = append(rec.Partitions, PartitionInfo{
				File:     filepath.Base(path),
				Refs:     len(chunk),
				StartRow: startRow,
				MinMass:  chunk[0].entry.Mass,
				MaxMass:  chunk[len(chunk)-1].entry.Mass,
				Bytes:    size,
				CRC32C:   crc,
			})
			startRow += len(chunk)
			fileIdx++
			lo = hi
		}
	}
	stats.NewPartitions = fileIdx

	if err := appendLogRecord(manifestPath, st, rec); err != nil {
		return CompactStats{}, err
	}
	if err := st.apply(rec, false); err != nil {
		return CompactStats{}, fmt.Errorf("libindex: folding just-published compact record: %w", err)
	}
	stats.Generation = newGen
	return stats, nil
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
// never-published file), but assumes no writer is mid-publish. The
// removed file names are returned.
func SweepOrphans(manifestPath string, st *ManifestState) ([]string, error) {
	return sweep(manifestPath, func(name string, tmp bool) bool {
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
	return sweep(manifestPath, func(name string, tmp bool) bool {
		return !tmp && st.everFiles[name] && !live[name]
	})
}

// sweep removes the manifest's partition-named directory entries
// selected by rm(name, isTmp) and returns their names.
func sweep(manifestPath string, rm func(name string, tmp bool) bool) ([]string, error) {
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
		if err := os.Remove(filepath.Join(dir, name)); err != nil {
			return removed, err
		}
		removed = append(removed, name)
	}
	if len(removed) > 0 {
		syncDir(dir)
	}
	return removed, nil
}
