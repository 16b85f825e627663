package libindex

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/core"
)

// ManifestFormat identifies a partition manifest document.
const ManifestFormat = "oms-library-manifest"

// ManifestVersion is the current manifest version. Version 4 turned
// the manifest into an append-able generation log (one CRC'd JSON
// record per line — base, delta, retract, compact; see log.go), so
// incremental library updates publish by appending one fsynced line
// instead of rewriting the document. Version 3 added the shared
// bit-layout permutation (dim_perm, no longer written and rejected on
// read); version 2 changed the meaning of
// PartitionInfo.CRC32C from a whole-file checksum to the content
// checksum (image minus the CRC trailer): a CRC over data that ends
// with its own CRC folds to the same residue constant for every
// well-formed file, so the version-1 record could never distinguish
// two internally consistent builds.
const ManifestVersion = 4

// PartitionInfo describes one partition file of a partitioned library
// index. Base-tier partitions tile the mass-sorted library:
// base partition i holds record rows [StartRow, StartRow+Refs) and its
// masses span [MinMass, MaxMass] — the mass fences a query's
// precursor window is routed by. Delta-tier partitions (published by
// omsbuild -append) carry the same fields but their fences may
// overlap the base tiling.
type PartitionInfo struct {
	// File is the partition index file name, relative to the manifest's
	// directory.
	File string `json:"file"`
	// Refs is the number of references in the partition.
	Refs int `json:"refs"`
	// StartRow is the partition's first row within its log record (for
	// the base record that equals the global mass rank of the initial
	// build).
	StartRow int `json:"start_row"`
	// MinMass and MaxMass are the partition's precursor-mass fences
	// (the first and last entry's mass; each partition is internally
	// mass-sorted).
	MinMass float64 `json:"min_mass"`
	MaxMass float64 `json:"max_mass"`
	// Bytes is the partition file's size and CRC32C the content
	// checksum recorded at build time — the CRC-32C of the file image
	// minus its own 4-byte trailer, i.e. the trailer value — both
	// cross-checked on every Open. Recording the content CRC (not a whole-file
	// CRC, which is a constant for any file ending in its own CRC) is
	// what lets the manifest distinguish an internally consistent file
	// from a different build generation.
	Bytes  int64  `json:"bytes"`
	CRC32C uint32 `json:"crc32c"`
}

// DecodeParams decodes the engine parameters the base record stored.
func (st *ManifestState) DecodeParams() (core.Params, error) {
	p, err := decodeParams(st.Params)
	if err != nil {
		return core.Params{}, fmt.Errorf("libindex: decoding manifest params: %w", err)
	}
	return p, nil
}

// decodeParams decodes stored engine parameters — the one place both
// the index file and the manifest read them. Fields of removed search
// modes an older build stored (the ladder's tiers and bit layout,
// PrefilterWords, ShortlistPerQuery) are unknown to core.Params and
// ignored: every index is searched with the one full-row sweep.
func decodeParams(raw []byte) (core.Params, error) {
	var p core.Params
	err := json.Unmarshal(raw, &p)
	return p, err
}

// PartitionFileName returns the partition file name of a log's first
// generation for a manifest path: "<base>.part%03d". Later generations
// name their files with GenPartitionFileName.
func PartitionFileName(manifestPath string, i int) string {
	return fmt.Sprintf("%s.part%03d", manifestPath, i)
}

// SavePartitioned splits a built library into parts mass-contiguous
// partition index files, each an ordinary single-file index over its
// slice of the mass-sorted library, and publishes them as one base
// record of the generation-log manifest at manifestPath: the global
// mass fences, row offsets and per-file checksums that let a
// partitioned engine route precursor windows and verify integrity.
// parts is clamped to the library size; parts <= 1 still produces a
// manifest with one partition. Over a log that loads, the build is a
// rebuild, published like every other writer as the next generation;
// the files it replaces stay until SweepRetired. When no log loads
// (the path is missing, holds a bare index file, or a log no reader
// can open), generation 1 replaces the path with PartitionFileName
// files.
//
// Each partition file stores the relative build order of its own rows,
// so the global build order is not recoverable from the partition
// files. The library-wide skipped count is carried by the record and,
// so the files' sum matches the single-file value, by partition 0.
func SavePartitioned(manifestPath string, p core.Params, lib *core.Library, parts int) error {
	if lib == nil || lib.Len() == 0 {
		return fmt.Errorf("libindex: refusing to save empty library")
	}
	if parts < 1 {
		return fmt.Errorf("libindex: partition count %d < 1", parts)
	}
	paramsJSON, err := json.Marshal(p)
	if err != nil {
		return fmt.Errorf("libindex: encoding params: %w", err)
	}
	chunks, err := cutLibrary(lib, evenEnds(lib.Len(), min(parts, lib.Len())))
	if err != nil {
		return err
	}
	chunks[0].Skipped = lib.Skipped
	st, _ := LoadManifestLog(manifestPath) // nil: no log loads, so generation 1 replaces the path
	_, err = publish(manifestPath, st, p, LogRecord{
		Type:    recordBase,
		Format:  ManifestFormat,
		Version: ManifestVersion,
		D:       lib.Row(0).D,
		Skipped: lib.Skipped,
		Params:  paramsJSON,
	}, chunks)
	return err
}

// savePartitionFile writes one partition index atomically, returning
// the content CRC-32C (the file's own trailer: the checksum of the
// image minus the trailer's 4 bytes) and size — the manifest's
// integrity record.
func savePartitionFile(path string, p core.Params, lib *core.Library) (crc uint32, size int64, err error) {
	err = writeAtomic(path, func(f file) error {
		if err := Save(f, p, lib); err != nil {
			return err
		}
		st, err := f.Stat()
		if err != nil {
			return err
		}
		var trailer [4]byte
		if _, err := f.ReadAt(trailer[:], st.Size()-4); err != nil {
			return err
		}
		crc, size = binary.LittleEndian.Uint32(trailer[:]), st.Size()
		return nil
	})
	return crc, size, err
}

// Index is an opened library index: a generation of partition files,
// memory-mapped where supported, so a library far bigger than RAM
// opens with one streamed checksum pass per file and only the pages a
// query load touches become resident. A manifest names the files in its log; a bare index file is
// generation 1 with one base partition, itself, so either layout opens,
// is checked and closes through the same per-partition code.
type Index struct {
	// State is the folded generation-log state the index was opened at
	// (for a bare index file, the fold of the base record a
	// one-partition manifest of it would hold).
	State *ManifestState
	// Params are the shared engine parameters from the base record.
	Params core.Params

	parts []*partition // aligned with State.Partitions()
}

// Open opens an index path, whichever layout it holds: a manifest (its
// first non-space byte is '{') has its generation log folded, and
// anything else is decoded as a bare index file. Every live partition
// file is checksummed as it opens (openPartition) and then
// cross-checked against its record (openParts).
func Open(path string) (*Index, error) {
	manifest, err := isManifest(path)
	if err != nil {
		return nil, err
	}
	ix := &Index{}
	if manifest {
		ix.State, err = LoadManifestLog(path)
	} else {
		// The file is opened first: its own contents are its record.
		var part *partition
		if part, err = openPartition(path); err == nil {
			ix.parts = []*partition{part}
			ix.State, err = bareState(filepath.Base(path), part)
		} else {
			err = partitionError(0, filepath.Base(path), err)
		}
	}
	if err == nil {
		err = ix.openParts(filepath.Dir(path))
	}
	if err != nil {
		ix.Close()
		return nil, err
	}
	return ix, nil
}

// isManifest sniffs whether path holds a manifest log rather than an
// index file.
func isManifest(path string) (bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return false, err
	}
	defer f.Close()
	var head [64]byte
	k, err := f.Read(head[:])
	if err != nil && err != io.EOF {
		return false, err
	}
	return strings.HasPrefix(strings.TrimLeft(string(head[:k]), " \t\r\n"), "{"), nil
}

// bareState is the fold of the base record SavePartitioned(…, 1)
// would write for the library in a bare index file: generation 1, one
// base partition spanning the file. Writers refuse it (there is no log
// to append to).
func bareState(name string, part *partition) (*ManifestState, error) {
	params, err := json.Marshal(part.Params)
	if err != nil {
		return nil, fmt.Errorf("libindex: re-encoding params: %w", err)
	}
	lib := part.Lib
	st := &ManifestState{Tombstones: map[string]uint64{}, everFiles: map[string]bool{}, bare: true}
	return st, st.apply(LogRecord{
		Type:       recordBase,
		Format:     ManifestFormat,
		Version:    ManifestVersion,
		Generation: 1,
		D:          part.Params.Accel.D,
		Skipped:    lib.Skipped,
		Params:     params,
		Partitions: []PartitionInfo{{
			File:    name,
			Refs:    lib.Len(),
			MinMass: lib.Entries[0].Mass,
			MaxMass: lib.Entries[lib.Len()-1].Mass,
			Bytes:   part.size,
			CRC32C:  part.crc,
		}},
	}, true)
}

// partitionError names partition i's file in err, an error from
// openPartition, keeping the package prefix once, at the front.
func partitionError(i int, file string, err error) error {
	return fmt.Errorf("libindex: partition %d (%s): %w", i, file, unprefixed{err})
}

// unprefixed is an error whose text drops a leading "libindex: ".
type unprefixed struct{ error }

func (e unprefixed) Error() string { return strings.TrimPrefix(e.error.Error(), "libindex: ") }

func (e unprefixed) Unwrap() error { return e.error }

// openParts opens every live partition not yet open, in engine order
// (base tier ascending by mass, then the delta tier in publish order),
// and cross-checks each against its record: size, the full params —
// encoder identity above all, or a partition file from a different
// build generation would open cleanly and silently mis-score every
// query against hypervectors its encoder never produced — row count,
// mass fences, and last the content CRC-32C, which a file that checks
// against its own trailer but is not the one the log recorded (a
// replaced file) fails. Every outstanding tombstone must name an id
// that some older-generation partition carries.
func (ix *Index) openParts(dir string) error {
	st := ix.State
	p, err := st.DecodeParams()
	if err != nil {
		return err
	}
	if p.Accel.D != st.D {
		return fmt.Errorf("libindex: manifest params dimension D=%d disagrees with manifest dimension %d", p.Accel.D, st.D)
	}
	ix.Params = p
	want, err := json.Marshal(p)
	if err != nil {
		return fmt.Errorf("libindex: re-encoding manifest params: %w", err)
	}
	for i, ps := range st.Partitions() {
		info := ps.PartitionInfo
		if i == len(ix.parts) {
			partPath := filepath.Join(dir, info.File)
			if fst, err := os.Stat(partPath); err != nil {
				return fmt.Errorf("libindex: partition %d (generation %d): %w", i, ps.Gen, err)
			} else if fst.Size() != info.Bytes {
				return fmt.Errorf("libindex: partition %d (%s) is %d bytes, manifest records %d", i, info.File, fst.Size(), info.Bytes)
			}
			part, err := openPartition(partPath)
			if err != nil {
				return partitionError(i, info.File, err)
			}
			ix.parts = append(ix.parts, part)
		}
		part := ix.parts[i]
		lib := part.Lib
		got, err := json.Marshal(part.Params)
		if err != nil {
			return fmt.Errorf("libindex: partition %d: re-encoding params: %w", i, err)
		}
		if string(got) != string(want) {
			return fmt.Errorf("libindex: partition %d (%s) was built with different params than the manifest (mixed build generations?)", i, info.File)
		}
		if lib.Len() != info.Refs {
			return fmt.Errorf("libindex: partition %d has %d refs, manifest records %d", i, lib.Len(), info.Refs)
		}
		if lo, hi := lib.Entries[0].Mass, lib.Entries[lib.Len()-1].Mass; lo != info.MinMass || hi != info.MaxMass {
			return fmt.Errorf("libindex: partition %d spans masses [%g, %g], manifest fences are [%g, %g]",
				i, lo, hi, info.MinMass, info.MaxMass)
		}
		if part.crc != info.CRC32C {
			return fmt.Errorf("libindex: partition %d (%s): file CRC %08x disagrees with manifest CRC %08x (file replaced since the manifest was written?)",
				i, info.File, part.crc, info.CRC32C)
		}
	}
	return ix.checkTombstones()
}

// checkTombstones verifies every outstanding tombstone retracts an id
// that exists in some strictly older generation — a tombstone for an
// unknown id hides nothing and signals a corrupt or mis-assembled
// log, so it is rejected rather than silently carried.
func (ix *Index) checkTombstones() error {
	tombs := ix.State.Tombstones
	if len(tombs) == 0 {
		return nil
	}
	known := make(map[string]bool, len(tombs))
	states := ix.State.Partitions()
	for i, part := range ix.parts {
		gen := states[i].Gen
		for _, e := range part.Lib.Entries {
			if tgen, ok := tombs[e.ID]; ok && gen < tgen {
				known[e.ID] = true
			}
		}
	}
	for id, gen := range tombs {
		if !known[id] {
			return fmt.Errorf("libindex: tombstone for unknown id %q (retracted at generation %d, but no older generation carries it)", id, gen)
		}
	}
	return nil
}

// PartitionSet assembles the core engine inputs: every live partition
// with its generation coordinates, the outstanding tombstones, and the
// generation — what core.NewPartitionedEngine needs to serve the
// visible set exactly. The libraries' rows alias the mappings: no
// engine built from the set outlives Close, after which PartitionSet
// panics descriptively rather than handing out views into unmapped
// memory.
func (ix *Index) PartitionSet() core.PartitionSet {
	states := ix.State.Partitions()
	set := core.PartitionSet{
		Specs:      make([]core.PartitionSpec, len(ix.parts)),
		Generation: ix.State.Generation,
		Skipped:    ix.State.Skipped,
	}
	for i, part := range ix.parts {
		part.mustOpen()
		set.Specs[i] = core.PartitionSpec{
			Lib:    part.Lib,
			Gen:    states[i].Gen,
			GenRow: states[i].GenRow,
			Delta:  states[i].Delta,
		}
	}
	if len(ix.State.Tombstones) > 0 {
		set.Tombstones = make(map[string]uint64, len(ix.State.Tombstones))
		for id, gen := range ix.State.Tombstones {
			set.Tombstones[id] = gen
		}
	}
	return set
}

// Mapped reports whether every partition file is memory-mapped (false:
// the copying fallback loader ran for at least one).
func (ix *Index) Mapped() bool {
	for _, part := range ix.parts {
		if part.mapped == nil {
			return false
		}
	}
	return true
}

// LiveIDs collects every source id the open index's partitions carry —
// the known set AppendRetract validates against.
func (ix *Index) LiveIDs() map[string]bool {
	ids := make(map[string]bool)
	for _, part := range ix.parts {
		for _, e := range part.Lib.Entries {
			ids[e.ID] = true
		}
	}
	return ids
}

// Close releases every partition mapping and poisons every partition:
// engines built over the index are invalid afterwards, and
// PartitionSet panics. Idempotent — each partition's Close is, so
// calling Close again returns nil.
func (ix *Index) Close() error {
	var first error
	for _, part := range ix.parts {
		if err := part.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
