package libindex

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// The manifest is a generation log: one JSON record per line, each
// carrying its own CRC-32C, appended strictly in generation order.
// Record types:
//
//	base    — first record, or a rebuild (SavePartitioned): library
//	          identity (d, params, skipped count) and the base-tier
//	          partition table, tiling the mass-sorted library with
//	          non-overlapping fences; it replaces every live
//	          partition and tombstone.
//	delta   — a small batch of newly encoded references published as
//	          one or more mass-contiguous delta partitions whose
//	          fences MAY overlap the base tier (and each other).
//	retract — tombstones: the listed source ids are hidden in every
//	          generation older than the record's.
//	compact — the compactor's atomic publish: drops a set of
//	          partition files, adds their merged replacements to the
//	          base tier, and clears the tombstones it consumed.
//
// A reader folds the records into a ManifestState. Publishing any
// change is appending one fsynced line, so a crash can only lose the
// tail: an unterminated final line that fails to validate is ignored
// (the last good generation keeps serving — never a partially
// applied one), while a newline-terminated record that fails to
// parse or checksum is corruption and rejected descriptively.
const (
	recordBase    = "base"
	recordDelta   = "delta"
	recordRetract = "retract"
	recordCompact = "compact"
)

// LogRecord is one line of the manifest generation log. Fields are
// populated per record type (see the package comment above); CRC32C
// is the CRC-32C (Castagnoli) of the record's canonical JSON encoding
// with CRC32C itself set to zero.
type LogRecord struct {
	Type string `json:"type"`
	// Format and Version identify the log; base records only.
	Format  string `json:"format,omitempty"`
	Version int    `json:"version,omitempty"`
	// Generation is the record's generation number: 1 for the first
	// record, exactly previous+1 for every later record.
	Generation uint64 `json:"generation"`
	// D is the hypervector dimension (base records only).
	D int `json:"d,omitempty"`
	// Skipped counts spectra rejected by preprocessing while building
	// this record's partitions (base and delta records).
	Skipped int `json:"skipped,omitempty"`
	// Params is the JSON-encoded core.Params of the build (base only);
	// every delta batch must be encoded with exactly these parameters.
	Params json.RawMessage `json:"params,omitempty"`
	// LegacyPerm is the bit-layout permutation older builds stored in the
	// base record. It is never written; a base record carrying one is
	// rejected (applyBase), and the field stays only so that record's
	// checksum still verifies and the rejection can say why.
	LegacyPerm []int `json:"dim_perm,omitempty"`
	// Partitions lists partition files introduced by this record (base,
	// delta and compact records). StartRow is the row offset within
	// this record — with the generation number it totally orders every
	// row the record introduced.
	Partitions []PartitionInfo `json:"partitions,omitempty"`
	// Ids lists the retracted source ids (retract records).
	Ids []string `json:"ids,omitempty"`
	// Drop lists the partition files this compaction retires and Clear
	// the tombstoned ids it consumed (compact records).
	Drop  []string `json:"drop,omitempty"`
	Clear []string `json:"clear,omitempty"`

	CRC32C uint32 `json:"crc32c"`
}

// recordCRC computes the record's checksum: CRC-32C over the
// canonical JSON encoding with the CRC32C field zeroed.
func recordCRC(rec LogRecord) (uint32, error) {
	rec.CRC32C = 0
	raw, err := json.Marshal(&rec)
	if err != nil {
		return 0, fmt.Errorf("libindex: encoding log record: %w", err)
	}
	return crc32.Checksum(raw, castagnoli), nil
}

// marshalRecord seals a record (computes and sets its CRC) and
// returns its log line including the trailing newline.
func marshalRecord(rec LogRecord) ([]byte, error) {
	crc, err := recordCRC(rec)
	if err != nil {
		return nil, err
	}
	rec.CRC32C = crc
	raw, err := json.Marshal(&rec)
	if err != nil {
		return nil, fmt.Errorf("libindex: encoding log record: %w", err)
	}
	return append(raw, '\n'), nil
}

// PartitionState is one live partition in the folded manifest state:
// its on-disk description plus the generation coordinates the dedup
// merge orders rows by.
type PartitionState struct {
	PartitionInfo
	// Gen is the generation whose record introduced the partition's
	// rows; GenRow is the partition's row offset within that record.
	Gen    uint64
	GenRow int
	// Delta marks a delta-tier partition: its mass fences may overlap
	// the base tiling, so a reader must range-search it per query
	// instead of clipping the base tier's contiguous candidate range.
	Delta bool
}

// ManifestState is the fold of a manifest generation log: the library
// identity, the live base-tier and delta-tier partitions, and the
// outstanding tombstones.
type ManifestState struct {
	// Generation is the newest applied generation number.
	Generation uint64
	// D is the hypervector dimension shared by every partition.
	D int
	// Skipped is the cumulative preprocessing-skip count (the last base
	// build plus every delta batch after it).
	Skipped int
	// Params is the JSON-encoded core.Params from the last base record.
	Params json.RawMessage
	// Base holds the base-tier partitions in ascending mass order
	// (non-overlapping fences up to boundary ties); Deltas holds the
	// delta-tier partitions in publish order.
	Base   []PartitionState
	Deltas []PartitionState
	// Tombstones maps a retracted source id to the generation of its
	// retract record: instances of the id in strictly older
	// generations are hidden.
	Tombstones map[string]uint64

	// goodLen is the byte length of the validated record prefix;
	// tornTail reports that a trailing unterminated fragment after it
	// was discarded (crash-interrupted append); unterminated reports
	// that the last accepted record lacks its trailing newline.
	goodLen      int64
	tornTail     bool
	unterminated bool
	// everFiles records every partition file any record ever
	// referenced, including dropped and rebuilt-over ones — the
	// sweeper's notion of "not an orphan".
	everFiles map[string]bool
	// bare marks the state Open synthesizes for a bare index file. No
	// log backs it: Compact refuses it up front, and every other writer
	// fails at lockWriter, which re-reads the file as a log.
	bare bool
}

// errSingleFile is every writer's refusal of a bare index file.
var errSingleFile = errors.New("a single-file index, not a partition manifest: rebuild it with omsbuild -partitions to append, retract or compact")

// Partitions returns the live partitions in engine order: the base
// tier in ascending mass order, then the delta tier in publish order.
func (st *ManifestState) Partitions() []PartitionState {
	out := make([]PartitionState, 0, len(st.Base)+len(st.Deltas))
	out = append(out, st.Base...)
	out = append(out, st.Deltas...)
	return out
}

// LoadManifestLog reads and folds a manifest generation log without
// opening any partition file.
func LoadManifestLog(path string) (*ManifestState, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	st, err := ParseManifestLog(data)
	if err != nil {
		return nil, fmt.Errorf("libindex: manifest %s: %w", path, err)
	}
	return st, nil
}

// ParseManifestLog folds manifest-log bytes into a ManifestState. Any
// newline-terminated record that fails to parse, checksum or apply is
// rejected descriptively; a final unterminated line is accepted when
// it validates completely and silently discarded otherwise (torn
// append — the state is the last good generation, never a partially
// applied one). A single-file index is refused with a rebuild hint.
func ParseManifestLog(data []byte) (*ManifestState, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("empty manifest")
	}
	if bytes.HasPrefix(data, magic[:]) {
		return nil, errSingleFile
	}
	st := &ManifestState{Tombstones: map[string]uint64{}, everFiles: map[string]bool{}}
	off := int64(0)
	first := true
	for len(data) > 0 {
		nl := bytes.IndexByte(data, '\n')
		line := data
		terminated := nl >= 0
		advance := int64(len(data))
		if terminated {
			line = data[:nl]
			advance = int64(nl) + 1
		}
		rec, err := decodeRecord(line)
		if err == nil {
			err = st.apply(rec, first)
		}
		if err != nil {
			if first && terminated {
				// Not a parsable log line at all? Distinguish a legacy
				// (version <= 3) whole-document manifest so the operator
				// learns to rebuild rather than chasing "corrupt log".
				if lerr := legacyManifestErr(data[:]); lerr != nil {
					return nil, lerr
				}
			}
			if !terminated {
				// Crash-truncated final append: ignore the fragment and
				// serve the validated prefix.
				st.tornTail = true
				break
			}
			// Generations count from 1, so st.Generation records applied.
			return nil, fmt.Errorf("record %d (generation %d expected): %w", st.Generation, st.Generation+1, err)
		}
		off += advance
		st.goodLen = off
		st.unterminated = !terminated
		first = false
		data = data[advance:]
	}
	if st.Generation == 0 {
		return nil, fmt.Errorf("no valid base record (truncated before the first generation?)")
	}
	return st, nil
}

// decodeRecord parses one log line and verifies its checksum.
func decodeRecord(line []byte) (LogRecord, error) {
	var rec LogRecord
	if err := json.Unmarshal(line, &rec); err != nil {
		return rec, fmt.Errorf("decoding log record: %v", err)
	}
	want, err := recordCRC(rec)
	if err != nil {
		return rec, err
	}
	if rec.CRC32C != want {
		return rec, fmt.Errorf("log record checksum %08x, computed %08x (corrupt or hand-edited line)", rec.CRC32C, want)
	}
	return rec, nil
}

// legacyManifestErr reports a descriptive rebuild error when data is
// a pre-v4 whole-document JSON manifest, nil otherwise.
func legacyManifestErr(data []byte) error {
	var doc struct {
		Format  string `json:"format"`
		Version int    `json:"version"`
	}
	if json.Unmarshal(data, &doc) != nil || doc.Format != ManifestFormat {
		return nil
	}
	return manifestVersionErr(doc.Version)
}

// manifestVersionErr is the operator-facing error for a manifest version this
// build does not read — rebuild an older one, upgrade for a newer one —
// and nil for the current version.
func manifestVersionErr(v int) error {
	if v < ManifestVersion {
		return fmt.Errorf("manifest version %d predates the generation log (this build reads version %d): rebuild the partitioned index with omsbuild", v, ManifestVersion)
	}
	if v > ManifestVersion {
		return fmt.Errorf("manifest version %d is newer than this build understands (version %d): upgrade the reader or rebuild the index", v, ManifestVersion)
	}
	return nil
}

// apply folds one validated record into the state.
func (st *ManifestState) apply(rec LogRecord, first bool) error {
	if first && rec.Type != recordBase {
		return fmt.Errorf("log starts with a %q record, want %q", rec.Type, recordBase)
	}
	if want := st.Generation + 1; rec.Generation != want {
		if rec.Generation <= st.Generation {
			return fmt.Errorf("duplicate or regressing generation %d after generation %d", rec.Generation, st.Generation)
		}
		return fmt.Errorf("generation %d skips ahead of %d (missing record)", rec.Generation, want)
	}
	switch rec.Type {
	case recordBase:
		return st.applyBase(rec)
	case recordDelta:
		return st.applyDelta(rec)
	case recordRetract:
		return st.applyRetract(rec)
	case recordCompact:
		return st.applyCompact(rec)
	default:
		return fmt.Errorf("unknown record type %q (log written by a newer build?)", rec.Type)
	}
}

func (st *ManifestState) applyBase(rec LogRecord) error {
	if rec.Format != ManifestFormat {
		return fmt.Errorf("not a library manifest (format %q)", rec.Format)
	}
	if err := manifestVersionErr(rec.Version); err != nil {
		return err
	}
	if rec.D <= 0 {
		return fmt.Errorf("base record dimension d=%d", rec.D)
	}
	if len(rec.Params) == 0 {
		return fmt.Errorf("base record carries no params")
	}
	if len(rec.LegacyPerm) != 0 {
		return fmt.Errorf("base record stores a %d-entry bit-layout permutation (dim_perm, the removed entropy layout), which this build does not read: rebuild the partitioned index with omsbuild", len(rec.LegacyPerm))
	}
	parts, err := st.takePartitions(rec, false)
	if err != nil {
		return err
	}
	st.Generation = rec.Generation
	st.D = rec.D
	st.Skipped = rec.Skipped
	st.Params = rec.Params
	st.Base, st.Deltas = parts, nil
	clear(st.Tombstones)
	return st.checkBaseOrder()
}

func (st *ManifestState) applyDelta(rec LogRecord) error {
	parts, err := st.takePartitions(rec, true)
	if err != nil {
		return err
	}
	st.Generation = rec.Generation
	st.Skipped += rec.Skipped
	st.Deltas = append(st.Deltas, parts...)
	return nil
}

func (st *ManifestState) applyRetract(rec LogRecord) error {
	if len(rec.Ids) == 0 {
		return fmt.Errorf("retract record lists no ids")
	}
	seen := make(map[string]bool, len(rec.Ids))
	for _, id := range rec.Ids {
		if id == "" {
			return fmt.Errorf("retract record lists an empty id")
		}
		if seen[id] {
			return fmt.Errorf("retract record lists id %q twice", id)
		}
		seen[id] = true
	}
	st.Generation = rec.Generation
	for _, id := range rec.Ids {
		// Re-retract after a re-add: the newer generation wins, exactly
		// as with additions.
		st.Tombstones[id] = rec.Generation
	}
	return nil
}

func (st *ManifestState) applyCompact(rec LogRecord) error {
	if len(rec.Drop) == 0 {
		return fmt.Errorf("compact record drops no partitions")
	}
	live := make(map[string]bool, len(st.Base)+len(st.Deltas))
	for _, p := range st.Base {
		live[p.File] = true
	}
	for _, p := range st.Deltas {
		live[p.File] = true
	}
	dropped := make(map[string]bool, len(rec.Drop))
	for _, f := range rec.Drop {
		if !live[f] {
			return fmt.Errorf("compact record drops %q, which is not a live partition file", f)
		}
		if dropped[f] {
			return fmt.Errorf("compact record drops %q twice", f)
		}
		dropped[f] = true
	}
	for _, id := range rec.Clear {
		if _, ok := st.Tombstones[id]; !ok {
			return fmt.Errorf("compact record clears tombstone %q, which is not outstanding", id)
		}
	}
	var parts []PartitionState
	if len(rec.Partitions) > 0 {
		var err error
		if parts, err = st.takePartitions(rec, false); err != nil {
			return err
		}
	}
	keep := func(in []PartitionState) []PartitionState {
		out := in[:0]
		for _, p := range in {
			if !dropped[p.File] {
				out = append(out, p)
			}
		}
		return out
	}
	st.Generation = rec.Generation
	st.Base = append(keep(st.Base), parts...)
	sort.SliceStable(st.Base, func(a, b int) bool {
		if st.Base[a].MinMass != st.Base[b].MinMass {
			return st.Base[a].MinMass < st.Base[b].MinMass
		}
		return st.Base[a].MaxMass < st.Base[b].MaxMass
	})
	st.Deltas = keep(st.Deltas)
	for _, id := range rec.Clear {
		delete(st.Tombstones, id)
	}
	if len(st.Base)+len(st.Deltas) == 0 {
		return fmt.Errorf("compact record leaves no live partitions")
	}
	return st.checkBaseOrder()
}

// takePartitions validates a record's partition list and tags it with
// the record's generation coordinates. Deltas may be empty-fenced
// relative to each other; within one record StartRow must tile the
// record's rows so (Generation, GenRow) orders them totally.
func (st *ManifestState) takePartitions(rec LogRecord, delta bool) ([]PartitionState, error) {
	if len(rec.Partitions) == 0 {
		return nil, fmt.Errorf("%s record lists no partitions", rec.Type)
	}
	out := make([]PartitionState, 0, len(rec.Partitions))
	row := 0
	for i, info := range rec.Partitions {
		if info.File == "" || info.File != filepath.Base(info.File) {
			return nil, fmt.Errorf("partition %d file %q is not a bare file name", i, info.File)
		}
		if st.everFiles[info.File] {
			return nil, fmt.Errorf("partition %d reuses file name %q from an earlier generation", i, info.File)
		}
		if info.Refs <= 0 {
			return nil, fmt.Errorf("partition %d has %d refs", i, info.Refs)
		}
		if info.StartRow != row {
			return nil, fmt.Errorf("partition %d starts at record row %d, want %d (a record's partitions must tile its rows)", i, info.StartRow, row)
		}
		if info.MinMass > info.MaxMass {
			return nil, fmt.Errorf("partition %d has inverted mass fences [%g, %g]", i, info.MinMass, info.MaxMass)
		}
		if i > 0 && info.MinMass < rec.Partitions[i-1].MaxMass {
			return nil, fmt.Errorf("partition %d fence %g below partition %d fence %g (a record's partitions must ascend in mass)",
				i, info.MinMass, i-1, rec.Partitions[i-1].MaxMass)
		}
		st.everFiles[info.File] = true
		out = append(out, PartitionState{PartitionInfo: info, Gen: rec.Generation, GenRow: info.StartRow, Delta: delta})
		row += info.Refs
	}
	return out, nil
}

// checkBaseOrder verifies the base tier stays a tiling: ascending,
// non-overlapping mass fences (boundary ties allowed).
func (st *ManifestState) checkBaseOrder() error {
	for i := 1; i < len(st.Base); i++ {
		if st.Base[i].MinMass < st.Base[i-1].MaxMass {
			return fmt.Errorf("base partition %s fence %g overlaps %s fence %g after compaction",
				st.Base[i].File, st.Base[i].MinMass, st.Base[i-1].File, st.Base[i-1].MaxMass)
		}
	}
	return nil
}

// appendLogRecord appends a sealed record line to the log at path with
// the durability the publish contract requires: the line (after a
// repairing newline, when the previous append lost its terminator) is
// written at the validated prefix length — truncating any torn
// fragment a crashed writer left — then the file is fsynced before the
// append is reported published. The log's directory entry is not
// touched, so no directory sync is needed. If the write, the fsync or
// the close fails, the log is cut back to the validated prefix, so an
// error means the record is not published.
func appendLogRecord(path string, st *ManifestState, line []byte) error {
	if st.unterminated {
		line = append([]byte{'\n'}, line...)
	}
	f, err := fsys.OpenRW(path)
	if err != nil {
		return err
	}
	info, err := f.Stat()
	if err == nil && info.Size() < st.goodLen {
		err = fmt.Errorf("libindex: manifest %s shrank to %d bytes below the loaded state's %d (concurrent rewrite?)", path, info.Size(), st.goodLen)
	}
	if err != nil {
		f.Close() // error path: the error above is the one reported
		return err
	}
	if err = f.Truncate(st.goodLen); err != nil {
		err = fmt.Errorf("libindex: truncating torn manifest tail: %w", err)
	} else if _, err = f.WriteAt(line, st.goodLen); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return truncateLog(path, st.goodLen, err)
	}
	st.goodLen += int64(len(line))
	st.unterminated = false
	st.tornTail = false
	return nil
}

// truncateLog rolls a failed append back: it cuts the log at path to
// size and fsyncs it, then returns cause — wrapped with the rollback's
// own error if that failed too, when the record may still be visible.
func truncateLog(path string, size int64, cause error) error {
	f, err := fsys.OpenRW(path)
	if err == nil {
		if err = f.Truncate(size); err == nil {
			err = f.Sync()
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return fmt.Errorf("%w; cutting the manifest back to %d bytes also failed, so the record may be published: %v", cause, size, err)
	}
	return cause
}

// writeAtomic is every index and manifest publish: write fills a
// temporary sibling, which is fsynced, closed and renamed over path;
// then the directory is fsynced so the rename itself is durable. The
// data blocks are flushed before the rename is journaled, or a crash
// could leave path naming an unwritten file. On a failure before the
// rename the temporary is removed and path is untouched; if the
// directory sync fails, path is removed again — its entry may not
// survive a crash — so an error always means nothing was published.
func writeAtomic(path string, write func(file) error) error {
	tmp := path + ".tmp"
	f, err := fsys.Create(tmp)
	if err != nil {
		return err
	}
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fsys.Rename(tmp, path)
	}
	if err != nil {
		_ = fsys.Remove(tmp) // err is the failure to report; a leftover temporary is swept
		return err
	}
	if err := fsys.SyncDir(filepath.Dir(path)); err != nil {
		_ = fsys.Remove(path) // err is the failure to report; a leftover is swept
		return err
	}
	return nil
}

// fsys is the filesystem under the write path: writeAtomic,
// appendLogRecord and sweep make every create, open, write, sync,
// close, rename, remove and directory sync through it, one call per
// system call. It is a variable so that a test can substitute a
// filesystem that fails any one of them.
var fsys fileSystem = osFS{}

// fileSystem is the part of package os the write path uses.
type fileSystem interface {
	Create(name string) (file, error)
	OpenRW(name string) (file, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	SyncDir(dir string) error
}

// file is the part of *os.File the write path uses.
type file interface {
	io.Writer
	io.WriterAt
	io.ReaderAt
	Stat() (os.FileInfo, error)
	Truncate(size int64) error
	Sync() error
	Close() error
}

// osFS is the production fileSystem.
type osFS struct{}

func (osFS) Create(name string) (file, error)     { return os.Create(name) }
func (osFS) OpenRW(name string) (file, error)     { return os.OpenFile(name, os.O_RDWR, 0) }
func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error             { return os.Remove(name) }
func (osFS) SyncDir(dir string) error             { return syncDir(dir) }

// lockWriter takes the manifest's writer lock — a non-blocking
// exclusive flock on the log, which the kernel drops when its holder
// exits, so there is no lock file to clean up — and then refuses a
// writer whose loaded state is stale: the log must still be at st's
// generation, or this writer would overwrite a newer generation's
// files and truncate its record away. Readers never lock. The returned
// function releases the lock.
func lockWriter(manifestPath string, st *ManifestState) (unlock func(), err error) {
	f, err := os.Open(manifestPath)
	if err != nil {
		return nil, err
	}
	// Closing the read-only descriptor releases the lock; it has
	// nothing to flush, so its error carries no news.
	unlock = func() { f.Close() }
	if err := lockExclusive(f); err != nil {
		unlock()
		return nil, fmt.Errorf("libindex: locking manifest %s for writing: %w", manifestPath, err)
	}
	cur, err := LoadManifestLog(manifestPath)
	if err == nil && cur.Generation != st.Generation {
		err = fmt.Errorf("libindex: manifest %s is at generation %d, this writer loaded %d: another writer published in between; reload and retry",
			manifestPath, cur.Generation, st.Generation)
	}
	if err != nil {
		unlock()
		return nil, err
	}
	return unlock, nil
}

// GenPartitionFileName returns the partition file name for generation
// gen's i-th partition: "<base>.gNNNNNN.partNNN". Files of a log's
// first generation keep the PartitionFileName shape; every later
// generation (deltas, compactions and rebuilds) uses this one, so file
// names never collide across generations.
func GenPartitionFileName(manifestPath string, gen uint64, i int) string {
	return fmt.Sprintf("%s.g%06d.part%03d", manifestPath, gen, i)
}
