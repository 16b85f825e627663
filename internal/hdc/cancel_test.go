package hdc

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
)

// pollCanceled is a context that another goroutine cancels when the
// sweep polls its Done channel for the nth time. The polling worker
// waits until the cancel has happened, so the sweep stops at a known
// row block, mid-range, however the workers are scheduled.
type pollCanceled struct {
	context.Context
	left     atomic.Int64
	trigger  chan struct{} // closed by the nth poll
	canceled chan struct{} // closed once the other goroutine has canceled
}

func newPollCanceled(t *testing.T, n int64) *pollCanceled {
	ctx, cancel := context.WithCancel(context.Background())
	c := &pollCanceled{Context: ctx, trigger: make(chan struct{}), canceled: make(chan struct{})}
	c.left.Store(n)
	go func() {
		select {
		case <-c.trigger:
		case <-t.Context().Done():
		}
		cancel()
		close(c.canceled)
	}()
	return c
}

func (c *pollCanceled) Done() <-chan struct{} {
	if c.left.Add(-1) == 0 {
		close(c.trigger)
		<-c.canceled
	}
	return c.Context.Done()
}

// cancelFixture is a store of 8 shards × 8 row blocks at D = 2048 (64
// rows per block) and 8 queries that each sweep all of it.
func cancelFixture() (*ShardedSearcher, []BinaryHV, []RowRange) {
	const d, n = 2048, 4096
	s, err := packedSearcher(randomRefs(d, n, 61), 512)
	if err != nil {
		panic(err)
	}
	rng := rand.New(rand.NewSource(62))
	queries := make([]BinaryHV, 8)
	ranges := make([]RowRange, len(queries))
	for i := range queries {
		queries[i] = RandomBinaryHV(d, rng)
		ranges[i] = RowRange{Lo: 0, Hi: n}
	}
	return s, queries, ranges
}

// TestCancelStopsSweep pins the sweep's cancellation contract on one
// or several workers: a context done before the call returns its
// error and sweeps nothing; one canceled by another goroutine during a
// full-range sweep returns its error with only part of the range
// swept; and the next uncancelled call on the same searcher — the
// pooled batch and scratch the stopped one left behind — is
// bit-identical to a fresh searcher's.
func TestCancelStopsSweep(t *testing.T) {
	fresh, queries, ranges := cancelFixture()
	want := sweepBatch(fresh, queries, ranges, 5, nil)
	total := uint64(len(queries) * fresh.Len())
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			s, _, _ := cancelFixture()

			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if out, err := s.Search(ctx, queries, ranges, 5, nil); !errors.Is(err, context.Canceled) || out != nil {
				t.Fatalf("pre-canceled: got %d lists, err %v; want none and context.Canceled", len(out), err)
			}
			if got := s.RowsSwept(); got != 0 {
				t.Fatalf("pre-canceled sweep counted %d rows, want 0", got)
			}

			pc := newPollCanceled(t, 20)
			out, err := s.Search(pc, queries, ranges, 5, nil)
			if !errors.Is(err, context.Canceled) || err != pc.Err() || out != nil {
				t.Fatalf("canceled mid-sweep: got %d lists, err %v; want none and ctx.Err() = %v", len(out), err, pc.Err())
			}
			if got := s.RowsSwept(); got == 0 || got >= total {
				t.Fatalf("canceled mid-sweep swept %d rows, want some but fewer than the %d requested", got, total)
			}

			for i := 0; i < 2; i++ {
				got := sweepBatch(s, queries, ranges, 5, nil)
				for qi := range want {
					if !matchesEqual(got[qi], want[qi]) {
						t.Fatalf("call %d after the cancel: query %d\ngot  %v\nwant %v", i, qi, got[qi], want[qi])
					}
				}
			}
		})
	}
}
