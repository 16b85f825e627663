package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/hdc"
	"repro/internal/libindex"
	"repro/internal/serve"
)

// servingConfig is everything needed to (re)build the serving state
// from the index path — captured once from the flags so a SIGHUP
// reload constructs the new engine with the same query-time settings.
type servingConfig struct {
	indexPath string
	maxBatch  int
	maxQueue  int
	standard  bool
	// slowQuery is the -slow-query latency threshold (0 = no threshold;
	// the slow ring still keeps the worst traces).
	slowQuery time.Duration
}

// serving is one generation of the daemon's serving state: an opened
// index, the engine over it, and the micro-batcher. Generations are
// reference-counted: the current pointer holds one reference and every
// in-flight search holds one more, so after a hot swap the old
// generation drains naturally — its batcher closes and its index
// unmaps only when the last search using it has returned. A search
// therefore always completes against exactly the generation it was
// admitted to: never a mix of old and new index, and never a mapping
// unmapped under a live scan.
type serving struct {
	srv    *serve.Server
	engine *core.Engine
	// enc is the engine's encoder, op what it was drawn for (buildNext).
	enc        *hdc.Encoder
	op         core.OperatingPoint
	closeIndex func() error
	desc       string
	loaded     time.Time

	refs atomic.Int64
}

// release drops one reference, tearing the generation down when the
// last holder lets go. Teardown has no caller left to return an error
// to — the last searcher is already gone — so an unmap failure is
// reported to the operator log rather than silently dropped.
func (sv *serving) release() {
	if sv.refs.Add(-1) == 0 {
		sv.srv.Close()
		if sv.closeIndex != nil {
			if err := sv.closeIndex(); err != nil {
				logger.Printf("closing retired index generation (%s): %v", sv.desc, err)
			}
		}
	}
}

// buildNext opens the index path (libindex.Open: a bare index file is
// a one-partition generation), wires the engine and starts a
// micro-batcher over it. prev is a reference, released here, to the
// generation being replaced (nil on the first load): an encoder is
// immutable and a pure function of the operating point, so while that
// is unchanged the new engine shares prev's instead of drawing the item
// memory again — most of a reload's cost; desc, which is logged, says so.
func buildNext(cfg servingConfig, prev *serving) (*serving, error) {
	if prev != nil {
		defer prev.release()
	}
	ix, err := libindex.Open(cfg.indexPath)
	if err != nil {
		return nil, err
	}
	p := ix.Params
	p.Open = !cfg.standard
	set := ix.PartitionSet()
	encoder := "drawn"
	if prev != nil && prev.op == p.Accel {
		set.Encoder, encoder = prev.enc, "kept"
	}
	engine, enc, err := core.NewPartitionedEngine(p, set)
	if err != nil {
		ix.Close()
		return nil, err
	}
	ov := engine.OverlayStats()
	sv := &serving{
		engine:     engine,
		enc:        enc,
		op:         p.Accel,
		closeIndex: ix.Close,
		desc: fmt.Sprintf("%s: manifest generation %d, %d references in %d partitions (%d deltas, %d tombstones), D=%d, mmap=%t, encoder %s",
			cfg.indexPath, ov.Generation, engine.NumRefs(), len(set.Specs),
			ov.DeltaPartitions, ov.Tombstones, p.Accel.D, ix.Mapped(), encoder),
		loaded: time.Now(),
	}
	sv.srv, err = serve.New(engine, serve.Config{
		MaxBatch:           cfg.maxBatch,
		MaxQueue:           cfg.maxQueue,
		SlowQueryThreshold: cfg.slowQuery,
		OnSlowQuery:        logSlowQuery,
	})
	if err != nil {
		ix.Close()
		return nil, err
	}
	return sv, nil
}

// daemon holds the swappable serving state behind the HTTP handlers.
type daemon struct {
	mu      sync.RWMutex
	cur     *serving
	build   func() (*serving, error)
	started time.Time

	// generation counts successful index loads (1 after the initial
	// load); reloadFailures counts failed reload attempts. Both feed
	// /metrics.
	generation     atomic.Uint64
	reloadFailures atomic.Uint64
}

// newDaemon wires a daemon around a serving builder; call reload once
// to load the initial generation.
func newDaemon(build func() (*serving, error)) *daemon {
	return &daemon{build: build, started: time.Now()}
}

// acquire returns the current serving generation with a reference
// held, or nil after shutdown. Callers must release exactly once.
func (d *daemon) acquire() *serving {
	d.mu.RLock()
	sv := d.cur
	if sv != nil {
		sv.refs.Add(1)
	}
	d.mu.RUnlock()
	return sv
}

// reload builds a fresh serving generation from the index path and
// swaps it in atomically; on error the current generation keeps
// serving untouched. Safe under live traffic: in-flight searches
// finish against whichever generation admitted them.
func (d *daemon) reload() (*serving, error) {
	nsv, err := d.build()
	if err != nil {
		d.reloadFailures.Add(1)
		return nil, err
	}
	nsv.refs.Store(1) // the daemon's own reference
	d.mu.Lock()
	old := d.cur
	d.cur = nsv
	d.mu.Unlock()
	d.generation.Add(1)
	if old != nil {
		old.release()
	}
	return nsv, nil
}

// shutdown retires the current generation; once in-flight searches
// drain, its batcher closes and its index unmaps.
func (d *daemon) shutdown() {
	d.mu.Lock()
	old := d.cur
	d.cur = nil
	d.mu.Unlock()
	if old != nil {
		old.release()
	}
}
