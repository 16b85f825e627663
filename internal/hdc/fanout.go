package hdc

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ForEach runs fn(i) for every i in [0, n) — the one fan-out of the
// build, search and serving stack — and returns the first failing
// index's error in input order. min(GOMAXPROCS, n) workers, the caller
// among them, claim indexes one at a time in input order and stop
// claiming at the first failure; a claimed index always finishes, so
// every index before a failing one has run. With one worker (n <= 1,
// GOMAXPROCS 1, or serial: the noise model draws its seeded query flips
// in encode order) it is a plain ascending loop on the caller that
// allocates nothing; a parallel call allocates only the workers it
// spawns. Per-worker scratch is taken per index from a pool.
func ForEach(n int, serial bool, fn func(i int) error) error {
	workers := min(runtime.GOMAXPROCS(0), n)
	if serial || workers <= 1 {
		for i := range n {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	f := fanOutPool.Get().(*fanOut)
	*f = fanOut{fn: fn, n: n, first: n}
	f.wg.Add(workers)
	for range workers - 1 {
		go f.work()
	}
	f.work()
	f.wg.Wait()
	err := f.err
	*f = fanOut{}
	fanOutPool.Put(f)
	return err
}

// fanOut is one parallel ForEach call's claim state: the claim counter
// and the lowest failing index with its error.
type fanOut struct {
	fn    func(int) error
	n     int
	next  atomic.Int64
	wg    sync.WaitGroup
	mu    sync.Mutex
	first int
	err   error
}

var fanOutPool = sync.Pool{New: func() any { return new(fanOut) }}

func (f *fanOut) work() {
	defer f.wg.Done()
	for i := int(f.next.Add(1)) - 1; i < f.n; i = int(f.next.Add(1)) - 1 {
		if err := f.fn(i); err != nil {
			f.mu.Lock()
			if i < f.first {
				f.first, f.err = i, err
			}
			f.mu.Unlock()
			f.next.Store(int64(f.n)) // no further claims
			return
		}
	}
}
