package core

import "repro/internal/hdc"

// PartitionSpec describes one live partition of an incrementally
// updated library: its library (and optionally the contiguous packed
// word block its hypervectors are views over), plus the generation
// coordinates the dedup merge orders rows by.
type PartitionSpec struct {
	// Lib is the partition's mass-sorted library slice.
	Lib *Library
	// Block, when non-nil, is the partition's packed word block
	// (libindex.Index.Words) aliased into the searcher without copying;
	// nil packs from Lib's hypervectors.
	Block []uint64
	// Gen is the manifest generation that introduced the partition's
	// rows; GenRow is the partition's row offset within that
	// generation, so (Gen, GenRow+localRow) totally orders every row
	// ever appended.
	Gen    uint64
	GenRow int
	// Delta marks a delta-tier partition: its mass fences may overlap
	// the base tiling, so candidate ranges are resolved per query from
	// the precursor window instead of clipping the base tier's
	// contiguous global range.
	Delta bool
}

// PartitionSet is the full input of NewPartitionedEngine: the live
// partitions in engine order (base tier ascending by mass, then
// deltas), the outstanding tombstones (source id → retract
// generation), the manifest generation, and the authoritative
// preprocessing-skip count (partition files of later generations do
// not carry the dropped partitions' counts, so the engine cannot sum
// them from the libraries).
type PartitionSet struct {
	Specs      []PartitionSpec
	Tombstones map[string]uint64
	Generation uint64
	Skipped    int
	// Encoder, when non-nil, is an earlier engine's encoder for the same
	// Params.Accel, shared instead of drawn again (it is immutable).
	Encoder *hdc.Encoder
}

// HiddenRows computes, per partition spec, the ascending list of local
// rows the visible set excludes under newest-generation-wins dedup and
// tombstones: a row is hidden when a strictly newer generation
// re-added its source id, or when a tombstone from a strictly newer
// generation retracted it. Rows sharing an id within one generation
// all stay visible (exactly as a from-scratch build of that input
// would keep them). The result slice is aligned with specs; entries
// are nil when the partition hides nothing.
func HiddenRows(specs []PartitionSpec, tombstones map[string]uint64) [][]int {
	hidden := make([][]int, len(specs))
	minGen, maxGen := ^uint64(0), uint64(0)
	for _, s := range specs {
		minGen = min(minGen, s.Gen)
		maxGen = max(maxGen, s.Gen)
	}
	if len(tombstones) == 0 && minGen == maxGen {
		return hidden // single generation, nothing to shadow
	}
	// newestAdd is consulted for every row, but only ids appearing in a
	// non-oldest generation can shadow anything — the candidate set is
	// proportional to the delta tier, not the library.
	newestAdd := make(map[string]uint64)
	for _, s := range specs {
		if s.Gen == minGen {
			continue
		}
		for _, e := range s.Lib.Entries {
			if g, ok := newestAdd[e.ID]; !ok || s.Gen > g {
				newestAdd[e.ID] = s.Gen
			}
		}
	}
	for i, s := range specs {
		for r, e := range s.Lib.Entries {
			if newestAdd[e.ID] > s.Gen || tombstones[e.ID] > s.Gen {
				hidden[i] = append(hidden[i], r)
			}
		}
	}
	return hidden
}
