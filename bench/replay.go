//go:build linux

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/fdr"
	"repro/internal/hdc"
	"repro/internal/libindex"
	"repro/internal/obsv"
	"repro/internal/serve"
	"repro/internal/spectrum"
)

// This file is the traced replay: after a workload's untraced
// subprocess phases it opens the same index in-process, pushes the
// same seeded bodies through each module's public functions with a
// span around every call, and times the kernel probes. The program
// under test is not edited by the change that defines the benchmark,
// so every per-layer time is taken here, from outside.

// span is one timed call: Parent is the span that caused it (0 for
// the root) and Request groups the spans of one request body.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Request int    `json:"request"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the replay ends. It serves a
// single goroutine; a nil recorder records nothing, which is how the
// replay measures its own tracing overhead.
type recorder struct {
	t0    time.Time
	spans []span
	stack []int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span under the innermost open one and returns the
// function that closes it.
func (rec *recorder) begin(name string, request int) (end func()) {
	if rec == nil {
		return func() {}
	}
	id := len(rec.spans) + 1
	parent := 0
	if n := len(rec.stack); n > 0 {
		parent = rec.stack[n-1]
	}
	rec.spans = append(rec.spans, span{ID: id, Parent: parent, Name: name, Request: request,
		Start: int64(time.Since(rec.t0))})
	rec.stack = append(rec.stack, id)
	return func() {
		rec.spans[id-1].End = int64(time.Since(rec.t0))
		rec.stack = rec.stack[:len(rec.stack)-1]
	}
}

// selfTimes sums, per span name, each span's duration minus the part
// its child spans cover.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int]int64, len(spans))
	for _, s := range spans {
		children[s.Parent] += s.End - s.Start
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += time.Duration(s.End - s.Start - children[s.ID])
	}
	return out
}

// traceFile is bench/out/trace-<workload>.json.
type traceFile struct {
	Workload string           `json:"workload"`
	Seed     int64            `json:"seed"`
	WallNS   int64            `json:"replay_wall_ns"`
	SelfNS   map[string]int64 `json:"self_time_ns"`
	Spans    []span           `json:"spans"`
}

// openedIndex is an index opened the way omsd and omsearch open it.
type openedIndex struct {
	engine core.TracedSearchEngine
	params core.Params
	enc    *hdc.Encoder
	// store is a heap copy of the packed base-tier rows in mass order:
	// the kernel probes' reference store.
	store []uint64
	close func() error
}

// openIndex sniffs the index kind and wires the matching engine.
func openIndex(path string, open bool) (*openedIndex, time.Duration, error) {
	kind, err := libindex.DetectKind(path)
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if kind == libindex.KindManifest {
		pi, err := libindex.OpenManifest(path)
		if err != nil {
			return nil, 0, err
		}
		opened := time.Since(start)
		p := pi.Params
		p.Open = open
		engine, enc, err := core.NewPartitionedEngine(p, pi.PartitionSet())
		if err != nil {
			pi.Close()
			return nil, 0, err
		}
		ix := &openedIndex{engine: engine, params: p, enc: enc, close: pi.Close}
		for i, st := range pi.State.Partitions() {
			if !st.Delta {
				ix.store = append(ix.store, pi.Parts[i].Words()...)
			}
		}
		return ix, opened, nil
	}
	file, err := libindex.OpenFile(path)
	if err != nil {
		return nil, 0, err
	}
	opened := time.Since(start)
	p := file.Params
	p.Open = open
	engine, enc, err := core.NewExactEngineFromPacked(p, file.Lib, file.Words())
	if err != nil {
		file.Close()
		return nil, 0, err
	}
	return &openedIndex{engine: engine, params: p, enc: enc,
		store: append([]uint64(nil), file.Words()...), close: file.Close}, opened, nil
}

// prepared is the replay's per-query state between passes.
type prepared struct {
	pq core.PreparedQuery
	ok bool
}

// passResult is what one replay pass produced: the prepared queries,
// the batch merge time the engine traced, the PSMs found, and how many
// results differed from the oracle.
type passResult struct {
	preps   []prepared
	mergeNS int64
	psms    []fdr.PSM
	bad     int
}

// replayPass pushes the first nq queries through parse → prepare →
// (the pieces of prepare, called directly) → batched search, one body
// of sz.body spectra at a time, recording spans when rec is non-nil.
func (r *run) replayPass(ix *openedIndex, rec *recorder, nq int, exp []expected) (passResult, error) {
	res := passResult{preps: make([]prepared, nq)}
	for lo := 0; lo < nq; lo += r.sz.body {
		n := min(r.sz.body, nq-lo)
		req := lo / r.sz.body
		body, members := r.ds.body(lo, n, nq)
		endReq := rec.begin("request", req)

		end := rec.begin("spectrum.parse", req)
		spectra, err := spectrum.ReadMGF(bytes.NewReader(body))
		end()
		if err != nil || len(spectra) != n {
			return res, fmt.Errorf("replay: parsing body %d: %d spectra, %v", req, len(spectra), err)
		}

		batch := make([]core.PreparedQuery, 0, n)
		slot := make([]int, 0, n)
		for k, q := range spectra {
			end := rec.begin("core.prepare", req)
			pq, ok, err := ix.engine.Prepare(q)
			end()
			if err != nil {
				return res, fmt.Errorf("replay: %w", err)
			}
			res.preps[members[k]] = prepared{pq: pq, ok: ok}
			if ok {
				batch = append(batch, pq)
				slot = append(slot, members[k])
			}
		}
		// The same three calls Prepare makes, made directly so each
		// gets its own span; core.route_us is Prepare minus these.
		for _, q := range spectra {
			end := rec.begin("spectrum.preprocess", req)
			pre, err := ix.params.Preprocess.Preprocess(q)
			end()
			if err != nil {
				continue
			}
			end = rec.begin("spectrum.vectorize", req)
			vec := ix.params.Binner.Vectorize(pre)
			end()
			end = rec.begin("hdc.encode", req)
			_, err = ix.enc.EncodeVector(vec)
			end()
			if err != nil {
				return res, fmt.Errorf("replay: encoding %s: %w", q.ID, err)
			}
		}

		var tr obsv.Trace
		end = rec.begin("core.search", req)
		got, oks := ix.engine.SearchPreparedTraced(batch, &tr)
		end()
		res.mergeNS += tr.StageNanos(obsv.StageMerge)
		matched := make(map[int]fdr.PSM, len(batch))
		for j, ok := range oks {
			if ok {
				matched[slot[j]] = got[j]
				res.psms = append(res.psms, got[j])
			}
		}
		for _, m := range members {
			psm, ok := matched[m]
			if ok != exp[m].matched || psm != exp[m].psm {
				res.bad++
			}
		}
		endReq()
	}
	return res, nil
}

// perSpectrumUS converts a total duration to microseconds per item.
func perSpectrumUS(d time.Duration, n int) float64 {
	return float64(d) / float64(time.Microsecond) / float64(max(n, 1))
}

// replayInput is what a finished workload hands to the replay.
type replayInput struct {
	index string
	open  bool
	exp   []expected
}

// replay runs the traced replay for one workload and fills the
// replay-sourced per-layer values.
func (r *run) replay() error {
	index, open, exp := r.toReplay.index, r.toReplay.open, r.toReplay.exp
	rec := newRecorder()
	r.spans = rec
	endRoot := rec.begin("replay", -1)

	end := rec.begin("libindex.open", -1)
	ix, opened, err := openIndex(index, open)
	end()
	if err != nil {
		return err
	}
	defer ix.close()
	r.perLayer["libindex.open_ms"] = ms(opened)

	nq := min(r.sz.replayQueries, len(r.ds.queries))
	// Untraced first: it warms the engine, and its rate is the
	// denominator of the tracing overhead.
	end = rec.begin("replay.untraced", -1)
	t0 := time.Now()
	_, err = r.replayPass(ix, nil, nq, exp)
	untraced := time.Since(t0)
	end()
	if err != nil {
		return err
	}
	t0 = time.Now()
	pass, err := r.replayPass(ix, rec, nq, exp)
	if err != nil {
		return err
	}
	traced := time.Since(t0)
	if pass.bad > 0 {
		r.problemf("replay: %d in-process results differ from the oracle", pass.bad)
	}
	r.perLayer["trace.overhead_ratio"] = traced.Seconds() / untraced.Seconds()

	var batch []core.PreparedQuery
	var rows int
	for _, p := range pass.preps {
		if p.ok {
			batch = append(batch, p.pq)
			rows += p.pq.Hi - p.pq.Lo
		}
	}
	r.perLayer["spectrum.skipped_ratio"] = float64(nq-len(batch)) / float64(nq)
	r.perLayer["hdc.rows_per_query"] = float64(rows) / float64(max(len(batch), 1))
	r.perLayer["core.merge_us"] = perSpectrumUS(time.Duration(pass.mergeNS), len(batch))
	if cs, ok := ix.engine.CascadeStats(); ok {
		r.perLayer["hdc.tier0_prune_rate"] = cs.PruneRate()
	}

	end = rec.begin("fdr.filter", -1)
	t0 = time.Now()
	_, err = fdr.Filter(pass.psms, 0.01)
	r.perLayer["fdr.filter_us_per_psm"] = perSpectrumUS(time.Since(t0), len(pass.psms))
	end()
	if err != nil {
		return err
	}

	// The probes repeat their calls; a share of the queries is sample
	// enough.
	batch = batch[:min(len(batch), r.sz.probeQueries)]
	if len(batch) > 0 {
		end = rec.begin("probe.core.batch", -1)
		r.probeBatches(ix, batch)
		end()
		end = rec.begin("probe.hdc.sweep", -1)
		err = r.probeSweep(ix, batch)
		end()
		if err != nil {
			return err
		}
		end = rec.begin("probe.serve.inproc", -1)
		err = r.probeServe(ix, r.ds.queries[:min(r.sz.probeQueries, nq)])
		end()
		if err != nil {
			return err
		}
	}
	endRoot()

	self := selfTimes(rec.spans)
	r.perLayer["spectrum.parse_us"] = perSpectrumUS(self["spectrum.parse"], nq)
	r.perLayer["spectrum.preprocess_us"] = perSpectrumUS(self["spectrum.preprocess"], nq)
	r.perLayer["spectrum.vectorize_us"] = perSpectrumUS(self["spectrum.vectorize"], nq)
	r.perLayer["hdc.encode_us"] = perSpectrumUS(self["hdc.encode"], nq)
	r.perLayer["core.route_us"] = perSpectrumUS(
		self["core.prepare"]-self["spectrum.preprocess"]-self["spectrum.vectorize"]-self["hdc.encode"], nq)
	return nil
}

// probeBatches times SearchPrepared one query at a time and 64 at a
// time; the ratio of the two is what coalescing buys.
func (r *run) probeBatches(ix *openedIndex, batch []core.PreparedQuery) {
	single := batch[:min(len(batch), 4*r.sz.body)]
	t0 := time.Now()
	for i := range single {
		ix.engine.SearchPrepared(single[i : i+1])
	}
	r.perLayer["core.batch1_us"] = perSpectrumUS(time.Since(t0), len(single))
	t0 = time.Now()
	for lo := 0; lo < len(batch); lo += r.sz.body {
		ix.engine.SearchPrepared(batch[lo:min(lo+r.sz.body, len(batch))])
	}
	r.perLayer["core.batch64_us"] = perSpectrumUS(time.Since(t0), len(batch))
}

// probeSweep holds the kernel against the machine: the block-major
// range sweep over the packed store at batch 64 — ns per XOR+popcount
// word on one core, computed bytes per second on all cores — beside
// what a plain copy of the same store achieves.
func (r *run) probeSweep(ix *openedIndex, batch []core.PreparedQuery) error {
	searcher, err := hdc.NewShardedSearcherFromPacked(ix.store, ix.params.Accel.D, ix.params.ShardSize, hdc.CascadeConfig{})
	if err != nil {
		return err
	}
	wordsPerRow := hdc.WordsPerHV(ix.params.Accel.D)
	sweepAll := func() (words int, mallocs uint64, batches int) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for lo := 0; lo < len(batch); lo += r.sz.body {
			qs := batch[lo:min(lo+r.sz.body, len(batch))]
			hvs := make([]hdc.BinaryHV, len(qs))
			ranges := make([]hdc.RowRange, len(qs))
			for i, pq := range qs {
				hvs[i] = pq.HV
				ranges[i] = hdc.RowRange{Lo: pq.Lo, Hi: pq.Hi}
				words += (pq.Hi - pq.Lo) * wordsPerRow
			}
			searcher.BatchTopKRange(hvs, ranges, ix.params.TopK)
			batches++
		}
		runtime.ReadMemStats(&after)
		return words, after.Mallocs - before.Mallocs, batches
	}
	// timed repeats sweepAll for at least sz.probe and returns seconds
	// per computed word.
	timed := func() float64 {
		var words int
		t0 := time.Now()
		for time.Since(t0) < r.sz.probe {
			w, _, _ := sweepAll()
			words += w
		}
		return time.Since(t0).Seconds() / float64(max(words, 1))
	}
	_, mallocs, batches := sweepAll()
	// Two slices per batch are this probe's own.
	r.perLayer["hdc.sweep_allocs_per_batch"] = float64(mallocs)/float64(batches) - 2

	prev := runtime.GOMAXPROCS(1)
	r.perLayer["hdc.sweep_ns_per_word"] = timed() * 1e9
	runtime.GOMAXPROCS(prev)
	r.perLayer["hdc.sweep_gb_per_s"] = 8 / timed() / 1e9

	dst := make([]uint64, len(ix.store))
	copies := 0
	t0 := time.Now()
	for time.Since(t0) < r.sz.probe/2 {
		copy(dst, ix.store)
		copies++
	}
	r.perLayer["hdc.memcpy_gb_per_s"] = float64(copies*len(dst)*8) / time.Since(t0).Seconds() / 1e9
	return nil
}

// probeServe drives the micro-batcher in-process, closed loop with
// one caller per CPU: what a single-spectrum search costs without the
// HTTP edge.
func (r *run) probeServe(ix *openedIndex, queries []*spectrum.Spectrum) error {
	srv, err := serve.New(ix.engine, serve.Config{})
	if err != nil {
		return err
	}
	defer srv.Close()
	var (
		mu   sync.Mutex
		lats []float64
		wg   sync.WaitGroup
	)
	for w := 0; w < r.env.nproc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []float64
			for i := w; i < len(queries); i += r.env.nproc {
				t0 := time.Now()
				if _, _, err := srv.Search(context.Background(), queries[i]); err != nil {
					continue
				}
				mine = append(mine, ms(time.Since(t0)))
			}
			mu.Lock()
			lats = append(lats, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	r.perLayer["serve.inproc_p50_ms"] = median(lats)
	return nil
}

// writeTrace writes the spans and their per-name self times.
func (r *run) writeTrace(dir, workload string) error {
	if r.spans == nil || len(r.spans.spans) == 0 {
		return nil
	}
	spans := r.spans.spans
	tf := traceFile{Workload: workload, Seed: r.seed, WallNS: spans[0].End - spans[0].Start,
		SelfNS: map[string]int64{}, Spans: spans}
	for name, d := range selfTimes(spans) {
		tf.SelfNS[name] = int64(d)
	}
	raw, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), raw, 0o644)
}
