package libindex

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
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
	// Bytes is the partition file's size, cross-checked cheaply on
	// every OpenManifest; CRC32C is the content checksum recorded at
	// build time — the CRC-32C of the file image minus its own 4-byte
	// trailer, i.e. the trailer value — cross-checked by the explicit
	// VerifyPartitions pass. Recording the content CRC (not a whole-file
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

// PartitionFileName returns the conventional base-build partition
// file name for a manifest path: "<base>.part%03d". Later generations
// name their files with GenPartitionFileName.
func PartitionFileName(manifestPath string, i int) string {
	return fmt.Sprintf("%s.part%03d", manifestPath, i)
}

// SavePartitioned splits a built library into parts mass-contiguous
// partition index files plus a generation-log manifest at
// manifestPath (generation 1, the base record). Partition i is
// written to PartitionFileName(manifestPath, i) as an ordinary
// single-file index over its slice of the mass-sorted library (each
// partition is loadable on its own), and the base record captures the
// global mass fences, row offsets and per-file checksums that let a
// partitioned engine route precursor windows and verify integrity.
// parts is clamped to the library size; parts <= 1 still produces a
// manifest (with one partition) so callers can exercise the
// partitioned path uniformly.
//
// Each partition file stores a rank-compressed local permutation (the
// relative build order of its own rows); the global build-order
// permutation is not recoverable from the partition files. The
// library-wide skipped count is carried by the manifest and, so the
// partition files' sum matches the single-file value, stored in
// partition 0's file.
func SavePartitioned(manifestPath string, p core.Params, lib *core.Library, parts int) error {
	if lib == nil || lib.Len() == 0 {
		return fmt.Errorf("libindex: refusing to save empty library")
	}
	n := lib.Len()
	if parts < 1 {
		return fmt.Errorf("libindex: partition count %d < 1", parts)
	}
	if parts > n {
		parts = n
	}
	paramsJSON, err := json.Marshal(p)
	if err != nil {
		return fmt.Errorf("libindex: encoding params: %w", err)
	}
	srcPos := lib.SourcePositions()
	if len(srcPos) != n {
		return fmt.Errorf("libindex: library has %d entries but %d source positions (SortByMass never ran?)", n, len(srcPos))
	}

	rec := LogRecord{
		Type:       recordBase,
		Format:     ManifestFormat,
		Version:    ManifestVersion,
		Generation: 1,
		D:          lib.HVs[0].D,
		Skipped:    lib.Skipped,
		Params:     paramsJSON,
	}
	for i := 0; i < parts; i++ {
		lo, hi := i*n/parts, (i+1)*n/parts
		skipped := 0
		if i == 0 {
			skipped = lib.Skipped
		}
		sub, err := core.RestoreLibrary(
			lib.Entries[lo:hi:hi],
			lib.HVs[lo:hi:hi],
			localizePositions(srcPos[lo:hi]),
			skipped,
		)
		if err != nil {
			return fmt.Errorf("libindex: assembling partition %d: %w", i, err)
		}
		path := PartitionFileName(manifestPath, i)
		crc, size, err := savePartitionFile(path, p, sub)
		if err != nil {
			return fmt.Errorf("libindex: writing partition %d: %w", i, err)
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
	line, err := marshalRecord(rec)
	if err != nil {
		return err
	}
	return writeAtomic(manifestPath, func(f *os.File) error {
		_, err := f.Write(line)
		return err
	})
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

// savePartitionFile writes one partition index atomically, returning
// the content CRC-32C (the file's own trailer: the checksum of the
// image minus the trailer's 4 bytes) and size — the manifest's
// integrity record.
func savePartitionFile(path string, p core.Params, lib *core.Library) (crc uint32, size int64, err error) {
	err = writeAtomic(path, func(f *os.File) error {
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

// PartitionedIndex is an opened partitioned library: the folded
// manifest state, the decoded shared params, and one Index handle per
// live partition in engine order (base tier ascending by mass, then
// the delta tier in publish order). Partitions are opened through
// OpenFile, so on unix each one is a lazy memory mapping — opening a
// library far bigger than RAM is metadata-bound, and only the
// partitions (indeed only the pages) a query load actually touches
// become resident.
type PartitionedIndex struct {
	// State is the folded generation-log state the index was opened at.
	State *ManifestState
	// Params are the shared engine parameters from the base record.
	Params core.Params
	// Parts are the opened partitions, aligned with State.Partitions().
	Parts []*Index

	path string
}

// PartitionSet assembles the core engine inputs: every live partition
// with its generation coordinates and packed block view, the
// outstanding tombstones, and the manifest generation — what
// core.NewPartitionedEngine needs to serve the visible set exactly. The
// blocks alias the mappings: no engine built from the set outlives
// Close.
func (pi *PartitionedIndex) PartitionSet() core.PartitionSet {
	states := pi.State.Partitions()
	set := core.PartitionSet{
		Specs:      make([]core.PartitionSpec, len(pi.Parts)),
		Generation: pi.State.Generation,
		Skipped:    pi.State.Skipped,
	}
	for i, part := range pi.Parts {
		set.Specs[i] = core.PartitionSpec{
			Lib:    part.Lib,
			Block:  part.Words(), //oms:allow(mmapwrite) zero-copy view; PartitionSet consumers live inside the index's refcounted generation
			Gen:    states[i].Gen,
			GenRow: states[i].GenRow,
			Delta:  states[i].Delta,
		}
	}
	if len(pi.State.Tombstones) > 0 {
		set.Tombstones = make(map[string]uint64, len(pi.State.Tombstones))
		for id, gen := range pi.State.Tombstones {
			set.Tombstones[id] = gen
		}
	}
	return set
}

// Close releases every partition mapping and poisons every partition:
// engines built over the index are invalid afterwards, and PartitionSet
// (via Index.Words) panics descriptively rather than handing out views
// into unmapped memory. Idempotent — each partition's Close is, so calling
// Close again returns nil.
func (pi *PartitionedIndex) Close() error {
	var first error
	for _, part := range pi.Parts {
		if err := part.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// VerifyPartitions checksums every partition file image against both
// its own CRC trailer (Index.Verify) and the content CRC-32C the
// manifest recorded at build time — the explicit integrity pass
// OpenManifest deliberately skips (it would fault in every page of
// every mapping). The manifest cross-check is computed over the image
// minus the trailer, which is what lets it catch a partition file that
// is internally consistent but from a different build than the
// manifest describes (a whole-file CRC would be the same residue
// constant for every self-consistent file).
func (pi *PartitionedIndex) VerifyPartitions() error {
	dir := filepath.Dir(pi.path)
	states := pi.State.Partitions()
	for i, part := range pi.Parts {
		info := states[i].PartitionInfo
		if err := part.Verify(); err != nil {
			return fmt.Errorf("libindex: partition %d (%s): %w", i, info.File, err)
		}
		var got uint32
		if part.mapped != nil {
			got = crc32.Checksum(part.mapped[:len(part.mapped)-4], castagnoli)
		} else {
			img, err := os.ReadFile(filepath.Join(dir, info.File))
			if err != nil {
				return fmt.Errorf("libindex: partition %d: %w", i, err)
			}
			if len(img) < 4 {
				return fmt.Errorf("libindex: partition %d (%s): truncated (%d bytes)", i, info.File, len(img))
			}
			got = crc32.Checksum(img[:len(img)-4], castagnoli)
		}
		if got != info.CRC32C {
			return fmt.Errorf("libindex: partition %d (%s): file CRC %08x disagrees with manifest CRC %08x (file replaced since the manifest was written?)",
				i, info.File, got, info.CRC32C)
		}
	}
	return nil
}

// OpenManifest opens a partitioned library index: the generation log
// is folded and validated, every live partition file is opened via
// OpenFile (mmap-backed where supported) and cross-checked against
// its record's fences, row counts and sizes, and every outstanding
// tombstone must name an id that some older-generation partition
// actually carries. Like OpenFile, the bulk word payloads are not
// checksummed here — call VerifyPartitions for the full integrity
// pass.
func OpenManifest(path string) (*PartitionedIndex, error) {
	st, err := LoadManifestLog(path)
	if err != nil {
		return nil, err
	}
	p, err := st.DecodeParams()
	if err != nil {
		return nil, err
	}
	if p.Accel.D != st.D {
		return nil, fmt.Errorf("libindex: manifest params dimension D=%d disagrees with manifest dimension %d", p.Accel.D, st.D)
	}
	// Canonical form of the manifest's params for the per-partition
	// build-generation check below.
	manifestParams, err := json.Marshal(p)
	if err != nil {
		return nil, fmt.Errorf("libindex: re-encoding manifest params: %w", err)
	}
	dir := filepath.Dir(path)
	pi := &PartitionedIndex{State: st, Params: p, path: path}
	for i, ps := range st.Partitions() {
		info := ps.PartitionInfo
		partPath := filepath.Join(dir, info.File)
		if fst, err := os.Stat(partPath); err != nil {
			pi.Close()
			return nil, fmt.Errorf("libindex: partition %d (generation %d): %w", i, ps.Gen, err)
		} else if fst.Size() != info.Bytes {
			pi.Close()
			return nil, fmt.Errorf("libindex: partition %d (%s) is %d bytes, manifest records %d", i, info.File, fst.Size(), info.Bytes)
		}
		part, err := OpenFile(partPath)
		if err != nil {
			pi.Close()
			return nil, fmt.Errorf("libindex: partition %d: %w", i, err)
		}
		pi.Parts = append(pi.Parts, part)
		lib := part.Lib
		if part.Params.Accel.D != st.D {
			pi.Close()
			return nil, fmt.Errorf("libindex: partition %d has D=%d, manifest says %d", i, part.Params.Accel.D, st.D)
		}
		// The full params — encoder identity above all (seed, precision,
		// chunks, binner, preprocessing) — must agree with the manifest,
		// or a partition file from a different build generation would
		// open cleanly and silently mis-score every query against
		// hypervectors its encoder never produced.
		partParams, err := json.Marshal(part.Params)
		if err != nil {
			pi.Close()
			return nil, fmt.Errorf("libindex: partition %d: re-encoding params: %w", i, err)
		}
		if string(partParams) != string(manifestParams) {
			pi.Close()
			return nil, fmt.Errorf("libindex: partition %d (%s) was built with different params than the manifest (mixed build generations?)", i, info.File)
		}
		if lib.Len() != info.Refs {
			pi.Close()
			return nil, fmt.Errorf("libindex: partition %d has %d refs, manifest records %d", i, lib.Len(), info.Refs)
		}
		if lo, hi := lib.Entries[0].Mass, lib.Entries[lib.Len()-1].Mass; lo != info.MinMass || hi != info.MaxMass {
			pi.Close()
			return nil, fmt.Errorf("libindex: partition %d spans masses [%g, %g], manifest fences are [%g, %g]",
				i, lo, hi, info.MinMass, info.MaxMass)
		}
	}
	if err := pi.checkTombstones(); err != nil {
		pi.Close()
		return nil, err
	}
	return pi, nil
}

// checkTombstones verifies every outstanding tombstone retracts an id
// that exists in some strictly older generation — a tombstone for an
// unknown id hides nothing and signals a corrupt or mis-assembled
// log, so it is rejected rather than silently carried.
func (pi *PartitionedIndex) checkTombstones() error {
	tombs := pi.State.Tombstones
	if len(tombs) == 0 {
		return nil
	}
	known := make(map[string]bool, len(tombs))
	states := pi.State.Partitions()
	for i, part := range pi.Parts {
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

// Kind distinguishes the two on-disk index layouts an -index flag can
// point at.
type Kind int

const (
	// KindIndex is a single binary index file ("OMSIDX" magic).
	KindIndex Kind = iota
	// KindManifest is a partitioned-index manifest (generation log).
	KindManifest
)

// DetectKind sniffs whether path is a single index file or a partition
// manifest, so CLIs can accept either behind one flag.
func DetectKind(path string) (Kind, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	var head [64]byte
	k, err := f.Read(head[:])
	if err != nil && err != io.EOF {
		return 0, err
	}
	if k >= len(magic) && [6]byte(head[:6]) == magic {
		return KindIndex, nil
	}
	if s := strings.TrimLeft(string(head[:k]), " \t\r\n"); strings.HasPrefix(s, "{") {
		return KindManifest, nil
	}
	return 0, fmt.Errorf("libindex: %s is neither an OMS index nor a partition manifest", path)
}

// Opened is an index path opened for searching: the stored engine
// parameters and the partition set core.NewPartitionedEngine serves,
// whichever layout the path holds.
type Opened struct {
	// Params are the engine parameters the index was built with.
	Params core.Params
	// Partitions is the manifest's live partition count; 0 means a
	// single index file.
	Partitions int
	// Mapped reports whether every file is memory-mapped (false: the
	// copying fallback loader ran).
	Mapped bool

	set   func() core.PartitionSet
	close func() error
}

// PartitionSet assembles the engine input; a single index file is a
// one-spec set over its mapped words. The blocks alias the index's
// mappings: no engine built from the set outlives Close, after which
// PartitionSet panics (via Index.Words).
func (o *Opened) PartitionSet() core.PartitionSet { return o.set() }

// Close releases the index's mappings. Idempotent.
func (o *Opened) Close() error { return o.close() }

// Open opens path as whichever index layout it holds — the one place
// that tells a single index file from a partition manifest on behalf of
// the search commands (OpenFile and OpenManifest do the work).
func Open(path string) (*Opened, error) {
	kind, err := DetectKind(path)
	if err != nil {
		return nil, err
	}
	if kind == KindManifest {
		pi, err := OpenManifest(path)
		if err != nil {
			return nil, err
		}
		o := &Opened{Params: pi.Params, Partitions: len(pi.Parts), Mapped: true, set: pi.PartitionSet, close: pi.Close}
		for _, part := range pi.Parts {
			o.Mapped = o.Mapped && part.Mapped()
		}
		return o, nil
	}
	ix, err := OpenFile(path)
	if err != nil {
		return nil, err
	}
	return &Opened{Params: ix.Params, Mapped: ix.Mapped(), set: ix.partitionSet, close: ix.Close}, nil
}
