package core

import (
	"runtime"
	"sync"

	"repro/internal/fdr"
	"repro/internal/spectrum"
)

// parallelFor runs fn(i) for i in [0, n) across CPU cores.
func parallelFor(n int, fn func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	next := make(chan int, n)
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// SearchAllParallel is SearchAll fanned out across CPU cores — the
// software analogue of the massive query-level parallelism HyperOMS
// exploits on GPUs and this work exploits across crossbar arrays.
// Results are returned in query order; queries rejected by
// preprocessing or with empty candidate sets are omitted, exactly as
// in SearchAll.
//
// The search runs in two stages: preparation (preprocessing, encoding,
// candidate-range selection) fans out per query, then one
// SearchPrepared sweep scores every searchable query — each
// cache-resident row block of each partition is swept by all queries
// whose precursor windows cover it, so the packed reference store
// streams from memory once per batch. Each stage mirrors SearchOne, so
// with the exact searcher the emitted PSMs are identical to
// SearchAll's.
func (e *Engine) SearchAllParallel(queries []*spectrum.Spectrum) ([]fdr.PSM, error) {
	type prep struct {
		pq  PreparedQuery
		ok  bool
		err error
	}
	preps := make([]prep, len(queries))
	parallelFor(len(queries), func(i int) {
		pq, ok, err := e.Prepare(queries[i])
		preps[i] = prep{pq: pq, ok: ok, err: err}
	})
	var batch []PreparedQuery
	for i := range preps {
		if preps[i].err != nil {
			return nil, preps[i].err
		}
		if preps[i].ok {
			batch = append(batch, preps[i].pq)
		}
	}
	if len(batch) == 0 {
		return []fdr.PSM{}, nil
	}
	batchPSMs, oks := e.SearchPrepared(batch)
	psms := make([]fdr.PSM, 0, len(batch))
	for j, ok := range oks {
		if ok {
			psms = append(psms, batchPSMs[j])
		}
	}
	return psms, nil
}

// RunParallel is Run using the parallel search path.
func (e *Engine) RunParallel(queries []*spectrum.Spectrum) (fdr.Result, error) {
	psms, err := e.SearchAllParallel(queries)
	if err != nil {
		return fdr.Result{}, err
	}
	return fdr.Filter(psms, e.params.FDRAlpha)
}
