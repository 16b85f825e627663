package obsv

import (
	"sync"
	"testing"
	"time"
)

// TestStageNames pins the stable exposition names the /metrics labels
// are built from.
func TestStageNames(t *testing.T) {
	want := map[Stage]string{
		StageQueueWait: "queue_wait",
		StageEncode:    "encode",
		StageAssemble:  "assemble",
		StageSweep:     "sweep",
		StageMerge:     "merge",
	}
	if len(want) != int(NumStages) {
		t.Fatalf("stage table has %d entries, NumStages is %d", len(want), NumStages)
	}
	for s, name := range want {
		if s.String() != name {
			t.Errorf("Stage(%d).String() = %q, want %q", s, s.String(), name)
		}
	}
	if NumStages.String() != "invalid" {
		t.Errorf("out-of-range stage renders %q, want invalid", NumStages.String())
	}
}

// TestTraceAccumulation exercises the recording API end to end.
func TestTraceAccumulation(t *testing.T) {
	tr := &Trace{}
	tr.AddNanos(StageSweep, 100)
	tr.AddNanos(StageSweep, 50)
	tr.AddRows(1000)
	tr.AddRows(500)
	tr.AddAdmitted(30)
	tr.AddAdmitted(12)
	tr.AddPartition(0, 400, 7)
	tr.AddPartition(2, 600, 9)
	if got := tr.StageNanos(StageSweep); got != 150 {
		t.Errorf("StageNanos(sweep) = %d, want 150", got)
	}
	if got := tr.StageNanos(StageMerge); got != 0 {
		t.Errorf("StageNanos(merge) = %d, want 0", got)
	}
	if swept := tr.RowsSwept(); swept != 1500 {
		t.Errorf("RowsSwept() = %d, want 1500", swept)
	}
	if admitted := tr.RowsAdmitted(); admitted != 42 {
		t.Errorf("RowsAdmitted() = %d, want 42", admitted)
	}
	parts := partitions(tr)
	if len(parts) != 2 || parts[0] != (PartSweep{Index: 0, Rows: 400, Nanos: 7}) || parts[1] != (PartSweep{Index: 2, Rows: 600, Nanos: 9}) {
		t.Errorf("partitions = %+v", parts)
	}

	var qt QueryTrace
	tr.Snapshot(&qt)
	if qt.StageNanos[StageSweep] != 150 || qt.RowsSwept != 1500 || qt.RowsAdmitted != 42 || qt.NumParts != 2 {
		t.Errorf("Snapshot = %+v", qt)
	}
	if qt.Stage(StageSweep) != 150*time.Nanosecond {
		t.Errorf("Stage(sweep) = %v", qt.Stage(StageSweep))
	}

	tr.Reset()
	if got := tr.StageNanos(StageSweep); got != 0 {
		t.Errorf("after Reset, StageNanos(sweep) = %d", got)
	}
	if swept := tr.RowsSwept(); swept != 0 {
		t.Errorf("after Reset, RowsSwept() = %d", swept)
	}
	if admitted := tr.RowsAdmitted(); admitted != 0 {
		t.Errorf("after Reset, RowsAdmitted() = %d", admitted)
	}
	if parts := partitions(tr); len(parts) != 0 {
		t.Errorf("after Reset, partitions = %+v", parts)
	}
}

// partitions returns the per-partition sweeps a snapshot of tr holds.
func partitions(tr *Trace) []PartSweep {
	var qt QueryTrace
	tr.Snapshot(&qt)
	return qt.Parts[:qt.NumParts]
}

// TestNilTraceSafe pins the nil-receiver contract: every recording
// call on a nil trace is a no-op, which is how untraced scan paths
// share the traced code.
func TestNilTraceSafe(t *testing.T) {
	var tr *Trace
	tr.Reset()
	tr.AddNanos(StageSweep, 5)
	tr.AddRows(1)
	tr.AddAdmitted(1)
	tr.AddPartition(0, 1, 1)
	var qt QueryTrace
	tr.Snapshot(&qt)
	if tr.StageNanos(StageSweep) != 0 {
		t.Error("nil trace reported nonzero stage")
	}
	if tr.RowsSwept() != 0 || tr.RowsAdmitted() != 0 {
		t.Error("nil trace reported rows")
	}
	if qt.NumParts != 0 {
		t.Error("nil trace reported partitions")
	}
}

// TestPartitionOverflow checks records past MaxTracedPartitions drop
// without corruption.
func TestPartitionOverflow(t *testing.T) {
	tr := &Trace{}
	for i := 0; i < MaxTracedPartitions+8; i++ {
		tr.AddPartition(i, i, int64(i))
	}
	parts := partitions(tr)
	if len(parts) != MaxTracedPartitions {
		t.Fatalf("kept %d partition records, want %d", len(parts), MaxTracedPartitions)
	}
	for i, p := range parts {
		if p.Index != i {
			t.Errorf("partition record %d has index %d", i, p.Index)
		}
	}
}

// TestTraceConcurrent exercises concurrent recording under -race: the
// shard-worker usage pattern.
func TestTraceConcurrent(t *testing.T) {
	tr := &Trace{}
	var wg sync.WaitGroup
	const workers, adds = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < adds; i++ {
				tr.AddNanos(StageSweep, 1)
				tr.AddRows(2)
			}
			tr.AddPartition(w, 1, 1)
		}(w)
	}
	wg.Wait()
	if got := tr.StageNanos(StageSweep); got != workers*adds {
		t.Errorf("concurrent AddNanos lost updates: %d, want %d", got, workers*adds)
	}
	if swept := tr.RowsSwept(); swept != 2*workers*adds {
		t.Errorf("concurrent AddRows lost updates: %d", swept)
	}
	if got := len(partitions(tr)); got != workers {
		t.Errorf("concurrent AddPartition kept %d records, want %d", got, workers)
	}
}

// TestSpanZeroAlloc is the zero-allocation baseline for recording a
// stage's span on the kernel path: every Trace method a search calls,
// on a live trace and on a nil one.
func TestSpanZeroAlloc(t *testing.T) {
	tr := &Trace{}
	var qt QueryTrace
	allocs := testing.AllocsPerRun(200, func() {
		tr.AddNanos(StageSweep, 1)
		tr.AddNanos(StageEncode, 1)
		tr.AddRows(128)
		tr.AddAdmitted(8)
		tr.AddPartition(0, 128, 1)
		tr.Snapshot(&qt)
		tr.Reset()
	})
	if allocs != 0 {
		t.Errorf("stage recording allocates %.1f allocs/op, want 0", allocs)
	}
	var nilTr *Trace
	allocs = testing.AllocsPerRun(200, func() {
		nilTr.AddNanos(StageSweep, 1)
		nilTr.AddRows(1)
		nilTr.AddAdmitted(1)
	})
	if allocs != 0 {
		t.Errorf("nil-trace recording path allocates %.1f allocs/op, want 0", allocs)
	}
}
