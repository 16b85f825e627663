package libindex

import (
	"fmt"
	"path/filepath"
	"sort"

	"repro/internal/core"
	"repro/internal/hdc"
	"repro/internal/spectrum"
)

// publish is the one publish path of the manifest writers
// (SavePartitioned, AppendDelta, AppendRetract, Compact): each builds
// rec and the libraries its partition files hold, and publish, in order:
//
//   - when a log is loaded (st != nil), takes the manifest's writer
//     lock and refuses a stale writer (lockWriter): a second writer
//     fails instead of racing this one, and one whose loaded
//     generation is no longer the newest fails instead of overwriting
//     the newer generation's files. The lock is held through the log
//     append;
//   - writes one partition file per chunk, in record-row order, and
//     describes each in rec.Partitions;
//   - publishes rec: appended to the loaded log and folded into st,
//     or with no log written as generation 1 in place of the path. A
//     base record is the first record, or a rebuild.
//
// A crash before the record lands leaves orphaned files and the last
// good generation (SweepOrphans reclaims the files); an error means
// nothing was published. It returns the published generation.
func publish(manifestPath string, st *ManifestState, p core.Params, rec LogRecord, chunks []*core.Library) (uint64, error) {
	rec.Generation = 1
	if st != nil {
		unlock, err := lockWriter(manifestPath, st)
		if err != nil {
			return 0, err
		}
		defer unlock()
		rec.Generation = st.Generation + 1
	}
	row := 0
	for i, c := range chunks {
		path := PartitionFileName(manifestPath, i)
		if st != nil {
			path = GenPartitionFileName(manifestPath, rec.Generation, i)
		}
		crc, size, err := savePartitionFile(path, p, c)
		if err != nil {
			return 0, fmt.Errorf("libindex: writing %s partition %d: %w", rec.Type, i, err)
		}
		rec.Partitions = append(rec.Partitions, PartitionInfo{
			File:     filepath.Base(path),
			Refs:     c.Len(),
			StartRow: row,
			MinMass:  c.Entries[0].Mass,
			MaxMass:  c.Entries[c.Len()-1].Mass,
			Bytes:    size,
			CRC32C:   crc,
		})
		row += c.Len()
	}
	line, err := marshalRecord(rec)
	if err != nil {
		return 0, err
	}
	if st == nil {
		if err := writeAtomic(manifestPath, func(f file) error {
			_, err := f.Write(line)
			return err
		}); err != nil {
			return 0, err
		}
		return rec.Generation, nil
	}
	if err := appendLogRecord(manifestPath, st, line); err != nil {
		return 0, err
	}
	if err := st.apply(rec, false); err != nil {
		return 0, fmt.Errorf("libindex: folding just-published %s record: %w", rec.Type, err)
	}
	return rec.Generation, nil
}

// cutLibrary cuts a mass-sorted library into the row-contiguous
// libraries ending at the ascending row offsets ends (the last is
// lib.Len()), each over its span of lib's rows. Each keeps the relative
// build order of its own rows (localizePositions) — what a partition
// file stores.
func cutLibrary(lib *core.Library, ends []int) ([]*core.Library, error) {
	srcPos := lib.SourcePositions()
	if len(srcPos) != lib.Len() {
		return nil, fmt.Errorf("libindex: library has %d entries but %d source positions (SortByMass never ran?)", lib.Len(), len(srcPos))
	}
	d := lib.Row(0).D
	w := hdc.WordsPerHV(d)
	rows := lib.Rows()
	chunks := make([]*core.Library, len(ends))
	lo := 0
	for i, hi := range ends {
		var err error
		chunks[i], err = core.LibraryOver(lib.Entries[lo:hi:hi], rows[lo*w:hi*w:hi*w], d, localizePositions(srcPos[lo:hi]), 0)
		if err != nil {
			return nil, fmt.Errorf("libindex: assembling partition %d: %w", i, err)
		}
		lo = hi
	}
	return chunks, nil
}

// evenEnds returns the row ends of n rows split into parts
// near-equal ranges.
func evenEnds(n, parts int) []int {
	ends := make([]int, parts)
	for i := range ends {
		ends[i] = (i + 1) * n / parts
	}
	return ends
}

// localizePositions rank-compresses a slice of global build positions
// into a local permutation of [0, len): element i becomes the rank of
// global[i] within the slice, preserving relative build order.
func localizePositions(global []int) []int {
	idx := make([]int, len(global))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return global[idx[a]] < global[idx[b]] })
	local := make([]int, len(global))
	for rank, i := range idx {
		local[i] = rank
	}
	return local
}

// BuildLibrary encodes spectra into a mass-ordered library under p,
// without packing a searcher over it: omsbuild's base build, and each
// batch it appends with the library's stored params, so the appended
// rows are directly comparable with every existing partition's.
func BuildLibrary(spectra []*spectrum.Spectrum, p core.Params) (*core.Library, error) {
	enc, err := core.NewEncoder(p.Accel)
	if err != nil {
		return nil, err
	}
	return core.BuildLibrary(spectra, p, enc)
}

// AppendDelta publishes a built delta batch as generation
// st.Generation+1: the batch is split into mass-contiguous delta
// partition files of at most maxPartRefs rows (0 = one partition),
// then one delta record is appended to the manifest log. On success st
// is advanced to the new generation. The delta partitions' fences may
// overlap the base tier — no re-tiling happens here; that is the
// compactor's job.
func AppendDelta(manifestPath string, st *ManifestState, lib *core.Library, maxPartRefs int) (uint64, error) {
	if lib == nil || lib.Len() == 0 {
		return 0, fmt.Errorf("libindex: refusing to append an empty delta batch")
	}
	if d := lib.Row(0).D; d != st.D {
		return 0, fmt.Errorf("libindex: delta batch has dimension D=%d, library has D=%d", d, st.D)
	}
	p, err := st.DecodeParams()
	if err != nil {
		return 0, err
	}
	parts := 1
	if maxPartRefs > 0 {
		parts = (lib.Len() + maxPartRefs - 1) / maxPartRefs
	}
	chunks, err := cutLibrary(lib, evenEnds(lib.Len(), parts))
	if err != nil {
		return 0, err
	}
	return publish(manifestPath, st, p, LogRecord{Type: recordDelta, Skipped: lib.Skipped}, chunks)
}

// AppendRetract publishes tombstones for the listed source ids as
// generation st.Generation+1. known must hold every source id the
// live partitions carry (Index.LiveIDs of the opened manifest): a
// tombstone for an id no generation carries would hide nothing and
// make the log unopenable (Open rejects it), so it is refused
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
	return publish(manifestPath, st, core.Params{}, LogRecord{Type: recordRetract, Ids: sorted}, nil)
}
