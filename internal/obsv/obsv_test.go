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

// TestTierNames pins the per-tier slot names and the clamp behavior of
// deep ladders.
func TestTierNames(t *testing.T) {
	for i := 0; i < MaxTierSlots; i++ {
		want := "tier_" + string(rune('0'+i))
		if TierName(i) != want {
			t.Errorf("TierName(%d) = %q, want %q", i, TierName(i), want)
		}
	}
	if TierName(MaxTierSlots+3) != TierName(MaxTierSlots-1) {
		t.Errorf("deep tier name %q did not clamp to last slot %q", TierName(MaxTierSlots+3), TierName(MaxTierSlots-1))
	}
	if TierName(-1) != "invalid" {
		t.Errorf("TierName(-1) = %q, want invalid", TierName(-1))
	}
}

// TestTierAccumulation exercises the per-tier slot recording: depth
// tracking, clamping past MaxTierSlots, snapshot and reset.
func TestTierAccumulation(t *testing.T) {
	tr := &Trace{}
	if tr.NumTiers() != 0 {
		t.Fatalf("fresh trace NumTiers = %d", tr.NumTiers())
	}
	tr.AddTierNanos(0, 100)
	tr.AddTierNanos(2, 30)
	tr.AddTierNanos(2, 10)
	if got := tr.TierNanos(0); got != 100 {
		t.Errorf("TierNanos(0) = %d, want 100", got)
	}
	if got := tr.TierNanos(2); got != 40 {
		t.Errorf("TierNanos(2) = %d, want 40", got)
	}
	if got := tr.NumTiers(); got != 3 {
		t.Errorf("NumTiers = %d, want 3", got)
	}
	// Slots past the cap fold into the last one.
	tr.AddTierNanos(MaxTierSlots+5, 7)
	if got := tr.TierNanos(MaxTierSlots - 1); got != 7 {
		t.Errorf("clamped tier slot = %d, want 7", got)
	}
	if got := tr.NumTiers(); got != MaxTierSlots {
		t.Errorf("NumTiers after deep add = %d, want %d", got, MaxTierSlots)
	}
	tr.AddTierNanos(-1, 99) // dropped
	var qt QueryTrace
	tr.Snapshot(&qt)
	if qt.NumTiers != MaxTierSlots || qt.TierNanos[0] != 100 || qt.TierNanos[2] != 40 {
		t.Errorf("Snapshot tiers = %d %v", qt.NumTiers, qt.TierNanos)
	}
	tr.Reset()
	if tr.NumTiers() != 0 || tr.TierNanos(0) != 0 {
		t.Errorf("after Reset: NumTiers=%d TierNanos(0)=%d", tr.NumTiers(), tr.TierNanos(0))
	}
}

// TestTraceAccumulation exercises the recording API end to end.
func TestTraceAccumulation(t *testing.T) {
	tr := &Trace{}
	tr.AddNanos(StageSweep, 100)
	tr.AddNanos(StageSweep, 50)
	tr.AddRows(1000, 30)
	tr.AddRows(500, 0)
	tr.AddPartition(0, 400, 7)
	tr.AddPartition(2, 600, 9)
	if got := tr.StageNanos(StageSweep); got != 150 {
		t.Errorf("StageNanos(sweep) = %d, want 150", got)
	}
	if got := tr.StageNanos(StageMerge); got != 0 {
		t.Errorf("StageNanos(merge) = %d, want 0", got)
	}
	swept, comp := tr.Rows()
	if swept != 1500 || comp != 30 {
		t.Errorf("Rows() = %d, %d, want 1500, 30", swept, comp)
	}
	parts := tr.Partitions()
	if len(parts) != 2 || parts[0] != (PartSweep{Index: 0, Rows: 400, Nanos: 7}) || parts[1] != (PartSweep{Index: 2, Rows: 600, Nanos: 9}) {
		t.Errorf("Partitions() = %+v", parts)
	}

	var qt QueryTrace
	tr.Snapshot(&qt)
	if qt.StageNanos[StageSweep] != 150 || qt.RowsSwept != 1500 || qt.RowsCompleted != 30 || qt.NumParts != 2 {
		t.Errorf("Snapshot = %+v", qt)
	}
	if qt.Stage(StageSweep) != 150*time.Nanosecond {
		t.Errorf("Stage(sweep) = %v", qt.Stage(StageSweep))
	}

	tr.Reset()
	if got := tr.StageNanos(StageSweep); got != 0 {
		t.Errorf("after Reset, StageNanos(sweep) = %d", got)
	}
	if swept, comp := tr.Rows(); swept != 0 || comp != 0 {
		t.Errorf("after Reset, Rows() = %d, %d", swept, comp)
	}
	if parts := tr.Partitions(); len(parts) != 0 {
		t.Errorf("after Reset, Partitions() = %+v", parts)
	}
}

// TestSpanMeasures checks a span records positive elapsed time on the
// right stage.
func TestSpanMeasures(t *testing.T) {
	tr := &Trace{}
	sp := tr.Start(StageMerge)
	time.Sleep(time.Millisecond)
	sp.End()
	if got := tr.StageNanos(StageMerge); got < int64(time.Millisecond/2) {
		t.Errorf("span recorded %dns, want >= ~1ms", got)
	}
	if got := tr.StageNanos(StageSweep); got != 0 {
		t.Errorf("span leaked %dns into sweep", got)
	}
}

// TestNilTraceSafe pins the nil-receiver contract: every recording
// call on a nil trace is a no-op, which is how untraced scan paths
// share the traced code.
func TestNilTraceSafe(t *testing.T) {
	var tr *Trace
	tr.Reset()
	tr.AddNanos(StageSweep, 5)
	tr.AddTierNanos(0, 5)
	tr.AddRows(1, 1)
	tr.AddPartition(0, 1, 1)
	sp := tr.Start(StageSweep)
	sp.End()
	var qt QueryTrace
	tr.Snapshot(&qt)
	if tr.StageNanos(StageSweep) != 0 {
		t.Error("nil trace reported nonzero stage")
	}
	if tr.TierNanos(0) != 0 || tr.NumTiers() != 0 {
		t.Error("nil trace reported tier time")
	}
	if s, c := tr.Rows(); s != 0 || c != 0 {
		t.Error("nil trace reported rows")
	}
	if tr.Partitions() != nil {
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
	parts := tr.Partitions()
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
				tr.AddTierNanos(0, 1)
				tr.AddRows(2, 1)
			}
			tr.AddPartition(w, 1, 1)
		}(w)
	}
	wg.Wait()
	if got := tr.TierNanos(0); got != workers*adds {
		t.Errorf("concurrent AddTierNanos lost updates: %d, want %d", got, workers*adds)
	}
	swept, comp := tr.Rows()
	if swept != 2*workers*adds || comp != workers*adds {
		t.Errorf("concurrent AddRows lost updates: %d, %d", swept, comp)
	}
	if got := len(tr.Partitions()); got != workers {
		t.Errorf("concurrent AddPartition kept %d records, want %d", got, workers)
	}
}

// TestSpanZeroAlloc is the zero-allocation baseline for span
// start/stop on the kernel path: every Trace method a search calls,
// on a live trace and on a nil one.
func TestSpanZeroAlloc(t *testing.T) {
	tr := &Trace{}
	var qt QueryTrace
	allocs := testing.AllocsPerRun(200, func() {
		sp := tr.Start(StageSweep)
		sp.End()
		tr.AddNanos(StageEncode, 1)
		tr.AddTierNanos(1, 1)
		tr.AddTierNanos(0, 1)
		tr.AddRows(128, 2)
		tr.AddPartition(0, 128, 1)
		tr.Snapshot(&qt)
		tr.Reset()
	})
	if allocs != 0 {
		t.Errorf("span start/stop allocates %.1f allocs/op, want 0", allocs)
	}
	var nilTr *Trace
	allocs = testing.AllocsPerRun(200, func() {
		sp := nilTr.Start(StageSweep)
		sp.End()
		nilTr.AddTierNanos(0, 1)
		nilTr.AddRows(1, 0)
	})
	if allocs != 0 {
		t.Errorf("nil-trace span path allocates %.1f allocs/op, want 0", allocs)
	}
}
