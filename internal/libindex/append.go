package libindex

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"sort"

	"repro/internal/accel"
	"repro/internal/core"
	"repro/internal/hdc"
	"repro/internal/spectrum"
)

// The writers in this file (and Compact in compact.go) assume a single
// writer at a time: each one loads the log's validated prefix, writes
// its partition files, then publishes by appending one fsynced record
// at the prefix end. Two concurrent writers would race on that offset.
// Readers are unaffected — they only ever see a prefix of the log.
//
// Crash-safety ordering: partition files are written, fsynced and
// renamed into place BEFORE the record referencing them is appended. A
// crash between the two leaves orphaned partition files and an
// unchanged (or torn-tailed) manifest — the last good generation keeps
// opening, and SweepOrphans reclaims the files.

// BuildDeltaLibrary encodes a batch of spectra for appending to an
// existing library with the library's stored params, so its packed
// rows are directly comparable with every existing partition's.
func BuildDeltaLibrary(spectra []*spectrum.Spectrum, p core.Params) (*core.Library, error) {
	ids, levels, err := accel.NewEncoderComponents(p.Accel)
	if err != nil {
		return nil, err
	}
	enc, err := hdc.NewEncoder(ids, levels)
	if err != nil {
		return nil, err
	}
	return core.BuildLibrary(spectra, p, enc)
}

// AppendDelta publishes a built delta batch as generation
// st.Generation+1: the batch is split into mass-contiguous delta
// partition files of at most maxPartRefs rows (0 = one partition),
// each written and fsynced, and then one delta record is appended to
// the manifest log. On success st is advanced to the new generation.
// The delta partitions' fences may overlap the base tier — no
// re-tiling happens here; that is the compactor's job.
func AppendDelta(manifestPath string, st *ManifestState, lib *core.Library, maxPartRefs int) (uint64, error) {
	if lib == nil || lib.Len() == 0 {
		return 0, fmt.Errorf("libindex: refusing to append an empty delta batch")
	}
	if d := lib.HVs[0].D; d != st.D {
		return 0, fmt.Errorf("libindex: delta batch has dimension D=%d, library has D=%d", d, st.D)
	}
	var p core.Params
	if err := json.Unmarshal(st.Params, &p); err != nil {
		return 0, fmt.Errorf("libindex: decoding manifest params: %w", err)
	}
	n := lib.Len()
	parts := 1
	if maxPartRefs > 0 {
		parts = (n + maxPartRefs - 1) / maxPartRefs
	}
	gen := st.Generation + 1
	srcPos := lib.SourcePositions()
	rec := LogRecord{Type: recordDelta, Generation: gen, Skipped: lib.Skipped}
	for i := 0; i < parts; i++ {
		lo, hi := i*n/parts, (i+1)*n/parts
		sub, err := core.RestoreLibrary(
			lib.Entries[lo:hi:hi],
			lib.HVs[lo:hi:hi],
			localizePositions(srcPos[lo:hi]),
			0,
		)
		if err != nil {
			return 0, fmt.Errorf("libindex: assembling delta partition %d: %w", i, err)
		}
		path := GenPartitionFileName(manifestPath, gen, i)
		crc, size, err := savePartitionFile(path, p, sub)
		if err != nil {
			return 0, fmt.Errorf("libindex: writing delta partition %d: %w", i, err)
		}
		rec.Partitions = append(rec.Partitions, PartitionInfo{
			File:     filepath.Base(path),
			Refs:     hi - lo,
			StartRow: lo,
			MinMass:  lib.Entries[lo].Mass,
			MaxMass:  lib.Entries[hi-1].Mass,
			Bytes:    size,
			CRC32C:   crc,
		})
	}
	if err := appendLogRecord(manifestPath, st, rec); err != nil {
		return 0, err
	}
	if err := st.apply(rec, false); err != nil {
		return 0, fmt.Errorf("libindex: folding just-published delta record: %w", err)
	}
	return gen, nil
}

// AppendRetract publishes tombstones for the listed source ids as
// generation st.Generation+1. known must hold every source id the
// live partitions carry (e.g. collected from an OpenManifest handle):
// a tombstone for an id no generation carries would hide nothing and
// make the log unopenable (OpenManifest rejects it), so it is refused
// here, at the writer. On success st is advanced.
func AppendRetract(manifestPath string, st *ManifestState, ids []string, known map[string]bool) (uint64, error) {
	if len(ids) == 0 {
		return 0, fmt.Errorf("libindex: refusing to publish an empty retract record")
	}
	seen := make(map[string]bool, len(ids))
	sorted := make([]string, 0, len(ids))
	for _, id := range ids {
		if id == "" {
			return 0, fmt.Errorf("libindex: refusing to retract an empty id")
		}
		if !known[id] {
			return 0, fmt.Errorf("libindex: refusing to retract unknown id %q (no live generation carries it)", id)
		}
		if seen[id] {
			continue // collapse caller duplicates; the record must list each id once
		}
		seen[id] = true
		sorted = append(sorted, id)
	}
	sort.Strings(sorted)
	gen := st.Generation + 1
	rec := LogRecord{Type: recordRetract, Generation: gen, Ids: sorted}
	if err := appendLogRecord(manifestPath, st, rec); err != nil {
		return 0, err
	}
	if err := st.apply(rec, false); err != nil {
		return 0, fmt.Errorf("libindex: folding just-published retract record: %w", err)
	}
	return gen, nil
}

// LiveIDs collects every source id the open index's partitions carry —
// the known set AppendRetract validates against.
func (pi *PartitionedIndex) LiveIDs() map[string]bool {
	ids := make(map[string]bool)
	for _, part := range pi.Parts {
		for _, e := range part.Lib.Entries {
			ids[e.ID] = true
		}
	}
	return ids
}
