package hdc

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// floorFixture is a 600-row store of three 200-row shards with one
// query per admission-floor scenario, each planted at exact distances
// (atDistance) among random rows:
//
//   - late: five rows at distance 300 in shard 0 fill the first heap a
//     sweep meets, and the best rows (distance 100) sit in shard 2.
//   - ties: shard 1's heap is three rows at 250 and two at 300, so its
//     floor is the similarity of distance 300; rows at 300 also sit in
//     shard 0 (lower indexes than the heap that sets the floor, so two
//     of them are the query's 4th and 5th best) and in shard 2 (higher).
//   - short: its range starts three rows before shard 0 ends, on three
//     rows at 150: a heap that cannot fill, whose worst is above the
//     4th and 5th best rows (280, in shard 1).
//
// hidden hides one winner of each.
type floorFixture struct {
	s       *ShardedSearcher
	refs    []BinaryHV
	queries []BinaryHV // late, ties, short, and an unplanted one
	ranges  []RowRange
	hidden  []int
}

const floorD, floorN, floorShard = 2048, 600, 200

func newFloorFixture(t *testing.T) floorFixture {
	t.Helper()
	rng := rand.New(rand.NewSource(21))
	f := floorFixture{refs: randomRefs(floorD, floorN, 22)}
	for range 4 {
		f.queries = append(f.queries, RandomBinaryHV(floorD, rng))
	}
	late, ties, short := f.queries[0], f.queries[1], f.queries[2]
	plant := func(q BinaryHV, dist int, rows ...int) {
		for _, r := range rows {
			f.refs[r] = atDistance(q, dist)
		}
	}
	plant(late, 300, 10, 11, 12, 13, 14)
	plant(late, 100, 420, 421, 422, 423, 424)
	plant(ties, 300, 40, 41)
	plant(ties, 250, 230, 231, 232)
	plant(ties, 300, 240, 241)
	plant(ties, 300, 440, 441)
	plant(short, 150, 197, 198, 199)
	plant(short, 280, 300, 301)
	f.ranges = []RowRange{{Lo: 0, Hi: floorN}, {Lo: 0, Hi: floorN}, {Lo: 197, Hi: 400}, {Lo: 400, Hi: floorN}}
	f.hidden = []int{422, 231, 41, 198}
	s, err := packedSearcher(f.refs, floorShard)
	if err != nil {
		t.Fatal(err)
	}
	f.s = s
	return f
}

// check holds one query's result to the flat-scan oracle over the
// visible rows of its range.
func (f floorFixture) check(t *testing.T, path string, q BinaryHV, r RowRange, k int, hidden []int, got []Match) {
	t.Helper()
	want := naiveTopK(f.refs, floorD, q, visibleCands(r.Lo, r.Hi, floorN, hidden), k)
	if got == nil || !matchesEqual(got, want) {
		t.Fatalf("%s: range %+v k=%d\ngot  %v\nwant %v", path, r, k, got, want)
	}
}

// TestAdmissionFloorMatchesOracle holds the per-query admission floor
// the shards of a query share to the flat-scan oracle: a query whose
// best rows lie past its first full heap, rows tying a floor set in
// another shard at lower and at higher indexes, a heap too short to
// fill above the query's k-th best, hidden winners, k at and above a
// shard's row count, and a second Search on the pooled batch whose
// top-k lies below the first one's floor. It runs at GOMAXPROCS 1, 2
// and 8 on both kernels; the claim order is the runtime's there, so
// TestAdmissionFloorClaimOrder fixes it in-package.
func TestAdmissionFloorMatchesOracle(t *testing.T) {
	admissionFloorMatchesOracle(t)
	t.Run("go-kernel", func(t *testing.T) {
		useGoKernel(t)
		admissionFloorMatchesOracle(t)
	})
}

func admissionFloorMatchesOracle(t *testing.T) {
	f := newFloorFixture(t)
	planted := f.queries[:3]
	for _, procs := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for _, hid := range [][]int{nil, f.hidden} {
				f.s = f.s.hiding(hid)
				for _, k := range []int{1, 5, floorShard, floorShard + 50} {
					for qi, got := range sweepBatch(f.s, planted, f.ranges[:3], k, nil) {
						f.check(t, fmt.Sprintf("hidden=%d batch", len(hid)), planted[qi], f.ranges[qi], k, hid, got)
					}
					for qi, q := range planted {
						r := f.ranges[qi]
						f.check(t, fmt.Sprintf("hidden=%d batch of one", len(hid)), q, r, k, hid, topKRange(f.s, q, r.Lo, r.Hi, k))
					}
				}
				// The late query's floor over shard 2 is far above the
				// unplanted query's best rows there: the second call must
				// not inherit it from the pooled batch.
				r := f.ranges[3]
				for _, qi := range []int{0, 3} {
					f.check(t, fmt.Sprintf("hidden=%d successive", len(hid)), f.queries[qi], r, 5, hid, topKRange(f.s, f.queries[qi], r.Lo, r.Hi, 5))
				}
			}
		})
	}
}

// sweepInOrder is Search on the calling goroutine with the shards
// visited in the given order and the batch b supplied by the caller;
// before each visit, at(si) may inspect the batch.
func sweepInOrder(s *ShardedSearcher, b *batch, queries []BinaryHV, ranges []RowRange, k int, order []int, at func(si int)) [][]Match {
	out := make([][]Match, len(queries))
	b.ctx = context.Background()
	if s.prepare(b, queries, ranges, k, nil, out) {
		var sc searchScratch
		for _, si := range order {
			at(si)
			s.scanShard(b, si, &sc)
		}
		s.merge(b, out)
	}
	return out
}

// TestAdmissionFloorClaimOrder fixes the shard claim order a parallel
// sweep may take. Visited last to first, the ties query's floor is
// raised by shard 1's full heap before shard 0 is swept, where two rows
// tie it at lower indexes and belong to the top-k: the floor must admit
// ties. The unplanted query's best rows lie far below that floor, so a
// batch reused for it must start from none.
func TestAdmissionFloorClaimOrder(t *testing.T) {
	f := newFloorFixture(t)
	ties, unplanted := f.queries[1], f.queries[3]
	r := f.ranges[1]
	tieSim := int64(floorD - 300)
	var b batch
	for _, k := range []int{1, 5} {
		got := sweepInOrder(f.s, &b, []BinaryHV{ties}, []RowRange{r}, k, []int{2, 1, 0}, func(si int) {
			if fl := b.floors[0].Load(); si == 0 && k == 5 && fl != tieSim {
				t.Fatalf("floor before shard 0 is %d, the fixture plants %d", fl, tieSim)
			}
		})
		f.check(t, "last to first", ties, r, k, nil, got[0])
	}
	got := sweepInOrder(f.s, &b, []BinaryHV{unplanted}, []RowRange{r}, 5, []int{0, 1, 2}, func(int) {})
	f.check(t, "reused batch", unplanted, r, 5, nil, got[0])
}
