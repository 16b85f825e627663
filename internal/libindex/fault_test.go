package libindex

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"repro/internal/core"
	"repro/internal/hdc"
)

// The fault matrix drives every manifest writer against an emulated
// filesystem that can be put into every failure state: for each
// operation k the writer makes through fsys, and each fault kind, the
// writer runs again on a fresh fixture with operation k failed. After
// each fault the manifest must open at the previous generation (or, for
// a crash, possibly the new one), search exactly like a from-scratch
// build of that generation's visible rows, sweep clean, and take the
// next writer's publish.

// faultKind is what an injected fault does.
type faultKind int

const (
	faultError  faultKind = iota // the operation fails with no effect
	faultENOSPC                  // the same, as a full disk reports it
	faultShort                   // a write stores all but its last byte
	faultCrash                   // the operation and every later one fail with no effect
)

func (k faultKind) String() string { return [...]string{"error", "enospc", "short", "crash"}[k] }

var (
	errInjected = errors.New("injected fault")
	errCrashed  = errors.New("injected crash")
)

// faultFS is a fileSystem over os that names every operation in ops
// and fails the ones fail picks by index.
type faultFS struct {
	ops     []string
	fail    map[int]faultKind
	crashed bool
}

// useFS makes fs the write path's filesystem until the test ends.
func useFS(t *testing.T, fs fileSystem) {
	t.Helper()
	prev := fsys
	fsys = fs
	t.Cleanup(func() { fsys = prev })
}

// restart clears every fault: the process that crashed is gone, and
// the next one runs on the real filesystem.
func (fs *faultFS) restart() { fs.fail, fs.crashed = nil, false }

// inject names operation op on path and returns the fault to fail it
// with, if any.
func (fs *faultFS) inject(op, path string) (faultKind, bool) {
	i := len(fs.ops)
	if path != "" {
		op += " " + filepath.Base(path)
	}
	fs.ops = append(fs.ops, op)
	if fs.crashed {
		return faultCrash, true
	}
	kind, ok := fs.fail[i]
	fs.crashed = ok && kind == faultCrash
	return kind, ok
}

// faultErr is the error an operation failed with kind returns.
func faultErr(kind faultKind, op, path string) error {
	switch kind {
	case faultCrash:
		return errCrashed
	case faultENOSPC:
		return &os.PathError{Op: op, Path: path, Err: syscall.ENOSPC}
	}
	return errInjected
}

func (fs *faultFS) do(op, path string, real func() error) error {
	if kind, ok := fs.inject(op, path); ok {
		return faultErr(kind, op, path)
	}
	return real()
}

func (fs *faultFS) open(op, name string, real func() (*os.File, error)) (file, error) {
	if kind, ok := fs.inject(op, name); ok {
		return nil, faultErr(kind, op, name)
	}
	f, err := real()
	if err != nil {
		return nil, err
	}
	return &faultFile{f: f, fs: fs, path: name}, nil
}

func (fs *faultFS) Create(name string) (file, error) {
	return fs.open("create", name, func() (*os.File, error) { return os.Create(name) })
}

func (fs *faultFS) OpenRW(name string) (file, error) {
	return fs.open("open", name, func() (*os.File, error) { return os.OpenFile(name, os.O_RDWR, 0) })
}

func (fs *faultFS) Rename(oldpath, newpath string) error {
	return fs.do("rename", oldpath, func() error { return os.Rename(oldpath, newpath) })
}

func (fs *faultFS) Remove(name string) error {
	return fs.do("remove", name, func() error { return os.Remove(name) })
}

// SyncDir names no directory: a test's temporary directory name is
// not the same from one fixture to the next.
func (fs *faultFS) SyncDir(dir string) error {
	return fs.do("syncdir", "", func() error { return syncDir(dir) })
}

// faultFile is a file whose every operation goes through its faultFS.
type faultFile struct {
	f    *os.File
	fs   *faultFS
	path string
}

func (f *faultFile) write(op string, p []byte, real func([]byte) (int, error)) (int, error) {
	kind, ok := f.fs.inject(op, f.path)
	if !ok {
		return real(p)
	}
	if kind != faultShort {
		return 0, faultErr(kind, op, f.path)
	}
	n, err := real(p[:max(len(p)-1, 0)])
	if err == nil {
		err = io.ErrShortWrite
	}
	return n, err
}

func (f *faultFile) Write(p []byte) (int, error) { return f.write("write", p, f.f.Write) }

func (f *faultFile) WriteAt(p []byte, off int64) (int, error) {
	return f.write("writeat", p, func(p []byte) (int, error) { return f.f.WriteAt(p, off) })
}

func (f *faultFile) ReadAt(p []byte, off int64) (n int, err error) {
	err = f.fs.do("readat", f.path, func() error { n, err = f.f.ReadAt(p, off); return err })
	return n, err
}

func (f *faultFile) Stat() (info os.FileInfo, err error) {
	err = f.fs.do("stat", f.path, func() error { info, err = f.f.Stat(); return err })
	return info, err
}

func (f *faultFile) Truncate(size int64) error {
	return f.fs.do("truncate", f.path, func() error { return f.f.Truncate(size) })
}

func (f *faultFile) Sync() error  { return f.fs.do("sync", f.path, f.f.Sync) }
func (f *faultFile) Close() error { return f.fs.do("close", f.path, f.f.Close) }

// libRow is one reference row of a model library.
type libRow struct {
	entry core.LibraryEntry
	hv    hdc.BinaryHV
}

// buildOrder returns lib's rows in the order they were built — the
// append order a from-scratch build of them keeps among equal masses.
func buildOrder(lib *core.Library) []libRow {
	rows := make([]libRow, lib.Len())
	for i := range rows {
		rows[lib.SourcePos(i)] = libRow{lib.Entries[i], lib.HVs[i]}
	}
	return rows
}

// withRows is the visible set after appending add: a re-added id
// shadows its older copy.
func withRows(visible, add []libRow) []libRow {
	readd := map[string]bool{}
	for _, r := range add {
		readd[r.entry.ID] = true
	}
	var out []libRow
	for _, r := range visible {
		if !readd[r.entry.ID] {
			out = append(out, r)
		}
	}
	return append(out, add...)
}

// withoutIDs is the visible set after retracting ids.
func withoutIDs(visible []libRow, ids ...string) []libRow {
	gone := map[string]bool{}
	for _, id := range ids {
		gone[id] = true
	}
	var out []libRow
	for _, r := range visible {
		if !gone[r.entry.ID] {
			out = append(out, r)
		}
	}
	return out
}

// match is a search result resolved to what the row is: row indexes
// differ between a manifest engine and a from-scratch one.
type match struct {
	ID         string
	Mass       float64
	Similarity int
}

// faultQueries are the matrix's queries: every row sits inside their
// open window, so each ranks the whole visible set.
func faultQueries() []hdc.BinaryHV {
	rng := rand.New(rand.NewSource(35))
	qs := make([]hdc.BinaryHV, 6)
	for i := range qs {
		qs[i] = hdc.RandomBinaryHV(128, rng)
	}
	return qs
}

// searchEngine returns every query's top-k from e, each searched
// alone.
func searchEngine(e *core.Engine) [][]match {
	var out [][]match
	for i, hv := range faultQueries() {
		pq, ok := e.ResolvePrepared(fmt.Sprint("q", i), hv, 500+float64(i))
		res, err := e.Search(context.Background(), []core.PreparedQuery{pq}, nil)
		if err != nil {
			panic(err)
		}
		var ms []match
		for _, m := range res[0].Top {
			if ok {
				ent := e.EntryAt(m.Index)
				ms = append(ms, match{ent.ID, ent.Mass, m.Similarity})
			}
		}
		out = append(out, ms)
	}
	return out
}

// scratchResults is the oracle: the results of a from-scratch build
// over exactly the visible rows, in append order.
func scratchResults(t *testing.T, visible []libRow) [][]match {
	t.Helper()
	lib := &core.Library{}
	for _, r := range visible {
		lib.Entries = append(lib.Entries, r.entry)
		lib.HVs = append(lib.HVs, r.hv)
	}
	lib.SortByMass()
	e, _, err := core.NewExactEngineFromLibrary(testParams(128, 0, 3), lib)
	if err != nil {
		t.Fatal(err)
	}
	return searchEngine(e)
}

// manifestGeneration returns the generation the manifest opens at, 0
// when there is none, and its search results.
func manifestGeneration(t *testing.T, manifest string) (uint64, [][]match) {
	t.Helper()
	if _, err := os.Stat(manifest); os.IsNotExist(err) {
		return 0, nil
	}
	pi, err := Open(manifest)
	if err != nil {
		t.Fatalf("manifest does not open: %v", err)
	}
	defer pi.Close()
	if err := pi.Verify(); err != nil {
		t.Fatal(err)
	}
	set := pi.PartitionSet()
	set.Encoder = faultEncoder
	e, enc, err := core.NewPartitionedEngine(pi.Params, set)
	if err != nil {
		t.Fatal(err)
	}
	faultEncoder = enc
	return pi.State.Generation, searchEngine(e)
}

// faultEncoder is the encoder of the first manifest engine, shared by
// the later ones: every fixture is built with the same params, and
// drawing the item memory again per engine would dominate the matrix.
var faultEncoder *hdc.Encoder

// assertSwept runs SweepOrphans and then requires a directory holding
// no temporary and no partition file the log never referenced.
func assertSwept(t *testing.T, manifest string) {
	t.Helper()
	st, err := LoadManifestLog(manifest)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SweepOrphans(manifest, st); err != nil {
		t.Fatalf("SweepOrphans: %v", err)
	}
	assertNoLeftovers(t, manifest, st)
}

// assertNoLeftovers fails on a temporary in the manifest's directory
// and, unless st is nil, on a partition file st never referenced.
func assertNoLeftovers(t *testing.T, manifest string, st *ManifestState) {
	t.Helper()
	entries, err := os.ReadDir(filepath.Dir(manifest))
	if err != nil {
		t.Fatal(err)
	}
	re := partitionFileRE(filepath.Base(manifest))
	for _, ent := range entries {
		name := ent.Name()
		if strings.HasSuffix(name, ".tmp") {
			t.Errorf("%s left behind", name)
		} else if st != nil && re.MatchString(name) && !st.everFiles[name] {
			t.Errorf("orphan %s left behind", name)
		}
	}
}

// faultWriter is one row of the matrix's writer axis.
type faultWriter struct {
	name string
	// setup builds the fixture the writer runs on and returns the
	// manifest path and the visible rows at its generation (none for
	// the base build, which starts from an empty directory).
	setup func(t *testing.T) (string, []libRow)
	// write runs the writer, loading what it needs itself.
	write func(t *testing.T, manifest string) error
	// after is the visible set once the writer has published.
	after func(t *testing.T, visible []libRow) []libRow
}

var faultWriters = []faultWriter{
	{
		name:  "base",
		setup: func(t *testing.T) (string, []libRow) { return filepath.Join(t.TempDir(), "lib.manifest"), nil },
		write: func(t *testing.T, manifest string) error {
			p, lib := syntheticLibrary(t, 10, 128)
			return SavePartitioned(manifest, p, lib, 2)
		},
		after: func(t *testing.T, _ []libRow) []libRow {
			_, lib := syntheticLibrary(t, 10, 128)
			return buildOrder(lib)
		},
	},
	{
		name:  "append",
		setup: faultFixture,
		write: func(t *testing.T, manifest string) error {
			st, err := LoadManifestLog(manifest)
			if err != nil {
				t.Fatal(err)
			}
			_, err = AppendDelta(manifest, st, syntheticDelta(t, "d2", 3), 2)
			return err
		},
		after: func(t *testing.T, visible []libRow) []libRow {
			return withRows(visible, buildOrder(syntheticDelta(t, "d2", 3)))
		},
	},
	{
		name:  "retract",
		setup: faultFixture,
		write: func(t *testing.T, manifest string) error {
			st, err := LoadManifestLog(manifest)
			if err != nil {
				t.Fatal(err)
			}
			pi, err := Open(manifest)
			if err != nil {
				t.Fatal(err)
			}
			known := pi.LiveIDs()
			if err := pi.Close(); err != nil {
				t.Fatal(err)
			}
			_, err = AppendRetract(manifest, st, []string{"ref-3", "d1-1"}, known)
			return err
		},
		after: func(t *testing.T, visible []libRow) []libRow { return withoutIDs(visible, "ref-3", "d1-1") },
	},
	{
		name:  "compact",
		setup: faultFixture,
		write: func(t *testing.T, manifest string) error {
			_, err := Compact(manifest, 4)
			return err
		},
		after: func(t *testing.T, visible []libRow) []libRow { return visible },
	},
}

// faultFixture is recoveryFixture with its visible rows.
func faultFixture(t *testing.T) (string, []libRow) {
	_, lib := syntheticLibrary(t, 10, 128)
	return recoveryFixture(t), withRows(buildOrder(lib), buildOrder(syntheticDelta(t, "d1", 4)))
}

// faultRun is one writer's matrix: the operations a fault-free run
// makes, and the oracle results of the states a fault may leave.
type faultRun struct {
	w faultWriter
	// template holds the fixture each run copies.
	template string
	ops      []string
	// prevGen is the fixture's generation (0: no manifest). want[i] are
	// the oracle results at prevGen+i; next[i] those after the next
	// writer publishes over generation prevGen+i.
	prevGen    uint64
	want, next [2][][]match
}

// newFaultRun records w's fault-free operations and the oracle.
func newFaultRun(t *testing.T, w faultWriter) *faultRun {
	t.Helper()
	manifest, prev := w.setup(t)
	r := &faultRun{w: w, template: filepath.Dir(manifest)}
	r.prevGen, _ = manifestGeneration(t, manifest)
	fs := &faultFS{}
	useFS(t, fs)
	if err := w.write(t, r.fixture(t)); err != nil {
		t.Fatalf("fault-free %s: %v", w.name, err)
	}
	r.ops = fs.ops
	for i, visible := range [][]libRow{prev, w.after(t, prev)} {
		if r.prevGen+uint64(i) > 0 {
			r.want[i] = scratchResults(t, visible)
		}
		r.next[i] = scratchResults(t, nextVisible(t, visible))
	}
	return r
}

// fixture copies the writer's fixture into a fresh directory and
// returns the manifest path there.
func (r *faultRun) fixture(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	entries, err := os.ReadDir(r.template)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		data, err := os.ReadFile(filepath.Join(r.template, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, ent.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return filepath.Join(dir, "lib.manifest")
}

// nextVisible is the visible set after the next writer: a base build
// when there is no manifest yet, a delta batch otherwise.
func nextVisible(t *testing.T, visible []libRow) []libRow {
	if visible == nil {
		_, lib := syntheticLibrary(t, 10, 128)
		return buildOrder(lib)
	}
	return withRows(visible, buildOrder(syntheticDelta(t, "next", 2)))
}

// run runs the writer on a fresh fixture with the operations fail
// picks failed, checks every post-fault property, and returns the
// writer's error.
func (r *faultRun) run(t *testing.T, fail map[int]faultKind) error {
	t.Helper()
	manifest := r.fixture(t)
	fs := &faultFS{fail: fail}
	useFS(t, fs)
	werr := r.w.write(t, manifest)
	crashed := fs.crashed
	first := len(r.ops)
	for i := range fail {
		first = min(first, i)
	}
	if first >= len(fs.ops) || fs.ops[first] != r.ops[first] {
		t.Fatalf("operation %d is not %q in the faulted run: %q", first, r.ops[first], fs.ops)
	}
	fs.restart()
	if werr == nil {
		t.Fatalf("the writer reported success with %v failed", fail)
	}

	// The manifest opens at the previous generation; a writer that
	// crashed may have published the new one, one that returned an
	// error must not have.
	gen, got := manifestGeneration(t, manifest)
	if gen != r.prevGen && !(crashed && gen == r.prevGen+1) {
		t.Fatalf("after %v (writer error %v) the manifest is at generation %d, want %d", fail, werr, gen, r.prevGen)
	}
	if !crashed && len(fail) == 1 {
		// The writer's own cleanup ran, on a healthy filesystem.
		assertNoLeftovers(t, manifest, nil)
	}
	step := gen - r.prevGen
	if gen > 0 {
		assertResults(t, "after the fault", got, r.want[step])
		assertSwept(t, manifest)
	}

	// The next writer reloads and publishes cleanly.
	if gen == 0 {
		p, lib := syntheticLibrary(t, 10, 128)
		if err := SavePartitioned(manifest, p, lib, 2); err != nil {
			t.Fatalf("next base build: %v", err)
		}
	} else {
		st, err := LoadManifestLog(manifest)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := AppendDelta(manifest, st, syntheticDelta(t, "next", 2), 0); err != nil {
			t.Fatalf("next append: %v", err)
		}
	}
	ngen, got := manifestGeneration(t, manifest)
	if ngen != gen+1 {
		t.Fatalf("the next writer published generation %d, want %d", ngen, gen+1)
	}
	assertResults(t, "after the next writer", got, r.next[step])
	assertSwept(t, manifest)
	return werr
}

func assertResults(t *testing.T, when string, got, want [][]match) {
	t.Helper()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%s: search differs from a from-scratch build of the visible set:\ngot  %v\nwant %v", when, got, want)
	}
}

// TestFaultMatrix fails every operation each writer makes through the
// filesystem seam, once per fault kind (a short write only where the
// operation is a write), and checks each outcome (faultRun.run).
func TestFaultMatrix(t *testing.T) {
	for _, w := range faultWriters {
		t.Run(w.name, func(t *testing.T) {
			r := newFaultRun(t, w)
			for k, op := range r.ops {
				kinds := []faultKind{faultError, faultENOSPC, faultCrash}
				if strings.HasPrefix(op, "write") {
					kinds = append(kinds, faultShort)
				}
				for _, kind := range kinds {
					t.Run(fmt.Sprintf("%02d_%s/%s", k, strings.ReplaceAll(op, " ", "_"), kind), func(t *testing.T) {
						err := r.run(t, map[int]faultKind{k: kind})
						if kind == faultENOSPC && !errors.Is(err, syscall.ENOSPC) {
							t.Errorf("writer error %v does not carry ENOSPC", err)
						}
					})
				}
			}
		})
	}
}

// opIndex returns the index of the n-th (from 0) operation named op in
// r's fault-free run.
func (r *faultRun) opIndex(t *testing.T, op string, n int) int {
	t.Helper()
	for i, name := range r.ops {
		if name == op {
			if n == 0 {
				return i
			}
			n--
		}
	}
	t.Fatalf("%s makes no operation %q #%d: %q", r.w.name, op, n, r.ops)
	return -1
}

// TestTeardownErrorsFailThePublish is one row per teardown error the
// write path checks: failing that Close, Sync or directory sync must
// fail the writer with that very error and leave the previous
// generation serving, so dropping the error fails the row. The last
// row is the error-path negative: when the temporary's removal fails
// after a failed write, the write's error is the one reported.
func TestTeardownErrorsFailThePublish(t *testing.T) {
	rows := []struct {
		name, writer, op string
		n                int // fail the op's n-th occurrence (from 0)
	}{
		{"writeAtomic_close_partition", "append", "close lib.manifest.g000003.part000.tmp", 0},
		{"writeAtomic_sync_partition", "append", "sync lib.manifest.g000003.part000.tmp", 0},
		{"writeAtomic_syncdir_partition", "compact", "syncdir", 0},
		{"writeAtomic_close_base_manifest", "base", "close lib.manifest.tmp", 0},
		{"writeAtomic_sync_base_manifest", "base", "sync lib.manifest.tmp", 0},
		{"writeAtomic_syncdir_base_manifest", "base", "syncdir", 2},
		{"appendLogRecord_close", "retract", "close lib.manifest", 0},
		{"appendLogRecord_sync", "append", "sync lib.manifest", 0},
	}
	runs := map[string]*faultRun{}
	for _, w := range faultWriters {
		runs[w.name] = newFaultRun(t, w)
	}
	check := func(t *testing.T, err error) {
		t.Helper()
		if !errors.Is(err, errInjected) || errors.Is(err, syscall.ENOSPC) {
			t.Fatalf("writer returned %v, want the injected fault alone", err)
		}
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			r := runs[row.writer]
			check(t, r.run(t, map[int]faultKind{r.opIndex(t, row.op, row.n): faultError}))
		})
	}
	t.Run("error_path_remove_tmp", func(t *testing.T) {
		r := runs["append"]
		w := r.opIndex(t, "write lib.manifest.g000003.part001.tmp", 0)
		// A failed write is followed by the close, then the removal.
		check(t, r.run(t, map[int]faultKind{w: faultError, w + 2: faultENOSPC}))
	})
}

// TestSweepErrorsReported fails each of a sweep's removal and directory
// sync: the sweep must return the error, and a retry must finish the
// job.
func TestSweepErrorsReported(t *testing.T) {
	for _, op := range []string{"remove", "syncdir"} {
		t.Run(op, func(t *testing.T) {
			manifest := recoveryFixture(t)
			orphan := GenPartitionFileName(manifest, 9, 0)
			if err := os.WriteFile(orphan+".tmp", []byte("x"), 0o644); err != nil {
				t.Fatal(err)
			}
			st, err := LoadManifestLog(manifest)
			if err != nil {
				t.Fatal(err)
			}
			fs := &faultFS{fail: map[int]faultKind{0: faultError}}
			if op == "syncdir" {
				fs.fail = map[int]faultKind{1: faultError}
			}
			useFS(t, fs)
			if _, err := SweepOrphans(manifest, st); !errors.Is(err, errInjected) {
				t.Fatalf("SweepOrphans with %s failed returned %v, want the injected fault", op, err)
			}
			if got := strings.Fields(fs.ops[len(fs.ops)-1])[0]; got != op {
				t.Fatalf("last sweep operation %q, want %q failed", fs.ops, op)
			}
			fs.restart()
			assertSwept(t, manifest)
		})
	}
}
