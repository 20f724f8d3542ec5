package jobs_test

import (
	"fmt"
	"testing"

	"picmcio/internal/burst"
	"picmcio/internal/cluster"
	"picmcio/internal/fault"
	"picmcio/internal/jobs"
	"picmcio/internal/units"
)

// rankSpec is the canonical staged rank-workload job: nodes hosting 4
// ranks each, funnelled into aggregator groups, writing through an
// epoch-end staging tier whose drain is capped below production rate so
// the aggregator placement is visible in the drain behaviour.
func rankSpec(nodes, aggregators int) jobs.Spec {
	return jobs.Spec{
		Name:  "ranks",
		Nodes: nodes,
		Burst: burst.Spec{
			CapacityBytes: 2 << 30,
			Rate:          6e9,
			PerOp:         25e-6,
			DrainRate:     1.5e9,
			Policy:        burst.PolicyEpochEnd,
		},
		Workload: jobs.RankWorkload{
			Epochs:                 3,
			RanksPerNode:           4,
			Aggregators:            aggregators,
			CheckpointBytesPerRank: 24 * units.MiB,
			DiagBytesPerRank:       8 * units.MiB,
			ComputeSec:             0.02,
			ChunkBytes:             16 * units.MiB,
		},
		StripeCount: -1,
	}
}

// TestRankWorkloadUnevenGroups: 3 nodes over 2 aggregator groups cannot
// divide evenly ({0,1} and {2}); the run must still account every
// logical byte, classify both drain lanes, and leave nothing staged.
func TestRankWorkloadUnevenGroups(t *testing.T) {
	res, err := jobs.Run(cluster.Dardel(), []jobs.Spec{rankSpec(3, 2)}, 1)
	if err != nil {
		t.Fatal(err)
	}
	r := res[0]
	// Logical output: 3 nodes × 4 ranks × (24+8) MiB × 3 epochs,
	// regardless of which nodes physically wrote it.
	want := int64(3*4) * (24 + 8) * units.MiB * 3
	if r.BytesWritten != want {
		t.Errorf("BytesWritten %d, want %d", r.BytesWritten, want)
	}
	if r.Burst == nil {
		t.Fatal("staged rank job carries no tier stats")
	}
	if r.Burst.DrainedBytes != want || r.Burst.PendingBytes != 0 {
		t.Errorf("drained=%d pending=%d, want %d drained and nothing pending",
			r.Burst.DrainedBytes, r.Burst.PendingBytes, want)
	}
	// The aggregated files keep the lane classification: .dmp checkpoints
	// and .dat diagnostics in the exact per-rank proportions.
	ck := r.Burst.Class[burst.ClassCheckpoint].DrainedBytes
	dg := r.Burst.Class[burst.ClassDiagnostic].DrainedBytes
	if ck != int64(3*4)*24*units.MiB*3 || dg != int64(3*4)*8*units.MiB*3 {
		t.Errorf("lane split ckpt=%d diag=%d, want 24:8 per rank", ck, dg)
	}
	if r.AppSec <= 0 || r.DurableSec < r.AppSec {
		t.Errorf("times implausible: app=%v durable=%v", r.AppSec, r.DurableSec)
	}
}

// TestRankWorkloadAggregatorPlacementMatters: the drain device is per
// node, so funnelling every group through one aggregator must reach PFS
// durability later than spreading the same bytes over two writers —
// the axis the figworkload artifact sweeps.
func TestRankWorkloadAggregatorPlacementMatters(t *testing.T) {
	one, err := jobs.Run(cluster.Dardel(), []jobs.Spec{rankSpec(2, 1)}, 1)
	if err != nil {
		t.Fatal(err)
	}
	two, err := jobs.Run(cluster.Dardel(), []jobs.Spec{rankSpec(2, 2)}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if one[0].BytesWritten != two[0].BytesWritten {
		t.Fatalf("aggregator count changed logical volume: %d vs %d",
			one[0].BytesWritten, two[0].BytesWritten)
	}
	if !(one[0].DurableSec > two[0].DurableSec) {
		t.Errorf("1 aggregator durable at %.4fs, 2 at %.4fs — one drain device must be slower than two",
			one[0].DurableSec, two[0].DurableSec)
	}
}

// TestRankWorkloadSingleRank: the degenerate 1 node × 1 rank × 1 group
// case collapses to a plain per-epoch writer (self-gather, no fan-in)
// and must still run to completion writing directly to the PFS.
func TestRankWorkloadSingleRank(t *testing.T) {
	spec := jobs.Spec{
		Name:  "solo",
		Nodes: 1,
		Workload: jobs.RankWorkload{
			Epochs:                 2,
			RanksPerNode:           1,
			CheckpointBytesPerRank: 24 * units.MiB,
			DiagBytesPerRank:       8 * units.MiB,
			ComputeSec:             0.02,
		},
	}
	res, err := jobs.Run(cluster.Dardel(), []jobs.Spec{spec}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(2) * (24 + 8) * units.MiB; res[0].BytesWritten != want {
		t.Errorf("BytesWritten %d, want %d", res[0].BytesWritten, want)
	}
	if res[0].Burst != nil || res[0].DrainBps != 0 {
		t.Errorf("direct rank job grew tier stats: %+v", res[0])
	}
	if res[0].AppSec <= 0 {
		t.Errorf("AppSec %v, want > 0", res[0].AppSec)
	}
}

// TestRankWorkloadWholeJobFault kills every node mid-epoch: the restart
// must resume from the durable position (the NVMe dies with the nodes),
// rebind a fresh mpisim world, and still deliver the full logical output
// with nothing left staged.
func TestRankWorkloadWholeJobFault(t *testing.T) {
	clean, err := jobs.Run(cluster.Dardel(), []jobs.Spec{rankSpec(2, 1)}, 1)
	if err != nil {
		t.Fatal(err)
	}
	spec := rankSpec(2, 1)
	spec.Fault = &fault.Spec{
		KillEpoch: 1, KillFrac: 0.5, WholeJob: true,
		Survival: fault.SurviveNone, RestartDelay: 0.05,
	}
	res, err := jobs.Run(cluster.Dardel(), []jobs.Spec{spec}, 1)
	if err != nil {
		t.Fatal(err)
	}
	rep := res[0].Fault
	if rep == nil {
		t.Fatal("faulted rank job carries no report")
	}
	if rep.BufferedEpochs != 2 {
		t.Errorf("buffered position %d, want 2 (kill lands mid-epoch-1 compute)", rep.BufferedEpochs)
	}
	if rep.DurableEpochs > rep.BufferedEpochs {
		t.Errorf("durable position %d ahead of buffered %d", rep.DurableEpochs, rep.BufferedEpochs)
	}
	if rep.RestartEpoch != rep.DurableEpochs {
		t.Errorf("restart epoch %d, want durable position %d under node loss", rep.RestartEpoch, rep.DurableEpochs)
	}
	// The capped drain cannot keep up with the aggregator's 256 MiB/epoch
	// bursts, so the kill must catch a real write-back backlog.
	if rep.LostBytes == 0 {
		t.Error("whole-job NVMe loss destroyed no staged bytes — the backlog is gone")
	}
	if res[0].BytesWritten != clean[0].BytesWritten {
		t.Errorf("faulted run wrote %d logical bytes vs %d clean", res[0].BytesWritten, clean[0].BytesWritten)
	}
	if res[0].Burst.PendingBytes != 0 {
		t.Errorf("pending %d after restart completed, want 0", res[0].Burst.PendingBytes)
	}
	if res[0].DurableSec <= clean[0].DurableSec {
		t.Errorf("faulted durable %.4fs not past clean %.4fs", res[0].DurableSec, clean[0].DurableSec)
	}
}

// TestRankWorkloadRejectsPartialFault: a coordinated workload's
// surviving ranks would block forever in collectives the restarted
// subset cannot re-enter, so single-node faults must be rejected at
// validation time rather than deadlocking the kernel.
func TestRankWorkloadRejectsPartialFault(t *testing.T) {
	spec := rankSpec(2, 1)
	spec.Fault = &fault.Spec{KillEpoch: 1, KillFrac: 0.5, Node: 0, Survival: fault.SurviveNone}
	if _, err := jobs.Run(cluster.Dardel(), []jobs.Spec{spec}, 1); err == nil {
		t.Fatal("single-node fault on a coordinated workload accepted")
	}
}

// TestRankWorkloadValidation rejects malformed rank schedules at Run
// time.
func TestRankWorkloadValidation(t *testing.T) {
	for name, wl := range map[string]jobs.RankWorkload{
		"no ranks":             {Epochs: 2, RanksPerNode: 0},
		"groups exceed nodes":  {Epochs: 2, RanksPerNode: 1, Aggregators: 3},
		"negative rank volume": {Epochs: 2, RanksPerNode: 1, CheckpointBytesPerRank: -1},
	} {
		spec := jobs.Spec{Name: "bad", Nodes: 2, Workload: wl}
		if _, err := jobs.Run(cluster.Dardel(), []jobs.Spec{spec}, 1); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestRankWorkloadDeterminism: two identical staged rank co-schedules
// must agree exactly — the property every sweep artifact leans on.
func TestRankWorkloadDeterminism(t *testing.T) {
	specs := []jobs.Spec{rankSpec(3, 2), {
		Name:  "neighbour",
		Nodes: 2,
		Workload: jobs.BulkWriter{
			Epochs: 3, CheckpointBytes: 96 * units.MiB, ComputeSec: 0.02,
		},
		StripeCount: -1,
	}}
	a, err := jobs.Run(cluster.Dardel(), specs, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := jobs.Run(cluster.Dardel(), specs, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].DurableSec != b[i].DurableSec || a[i].AppSec != b[i].AppSec ||
			a[i].BytesWritten != b[i].BytesWritten {
			t.Fatalf("job %s diverged: %+v vs %+v", a[i].Name, a[i], b[i])
		}
	}
}

// TestWorkloadCoSchedule runs the unified workload interface as a 4-job
// co-schedule on Dardel: two BIT1-style rank schedules (1 vs 4 aggregator
// groups), a chunked flat writer and a direct neighbour, all contending
// for the same PFS. Every job writes and drains everything, the aggregator
// count leaves the logical volume alone, funnelling through one writer
// does not reach durability before spreading over four — and the
// write-back bandwidths, which drop if the mpisim gather path, the staging
// tier or the shared-PFS contention model regresses, are the model's to
// the digit.
func TestWorkloadCoSchedule(t *testing.T) {
	tier := burst.Spec{CapacityBytes: 2 << 30, Rate: 6e9, PerOp: 25e-6, Policy: burst.PolicyEpochEnd}
	rank := func(aggr int) jobs.Workload { return rankSpec(4, aggr).Workload }
	flat := jobs.BulkWriter{Epochs: 3, CheckpointBytes: 96 * units.MiB, DiagBytes: 32 * units.MiB, ComputeSec: 0.02}
	res, err := jobs.Run(cluster.Dardel(), []jobs.Spec{
		{Name: "ranks-1agg", Nodes: 4, Burst: tier, Workload: rank(1), StripeCount: -1},
		{Name: "ranks-4agg", Nodes: 4, Burst: tier, Workload: rank(4), StripeCount: -1},
		{Name: "chunked", Nodes: 4, Burst: tier, Workload: jobs.ChunkedWriter{
			Epochs: 3, CheckpointBytes: 96 * units.MiB, DiagBytes: 32 * units.MiB,
			ComputeSec: 0.02, ChunkBytes: 16 * units.MiB,
		}, StripeCount: -1},
		{Name: "direct", Nodes: 4, Workload: flat, StripeCount: -1},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	shares := make([]float64, len(res))
	for i, r := range res {
		shares[i] = r.FairShareBps()
		if r.BytesWritten == 0 {
			t.Errorf("job %s wrote nothing", r.Name)
		}
		if r.Burst != nil && r.Burst.PendingBytes != 0 {
			t.Errorf("job %s left %d bytes staged", r.Name, r.Burst.PendingBytes)
		}
	}
	one, four := res[0], res[1]
	if one.BytesWritten != four.BytesWritten {
		t.Errorf("aggregator count changed logical volume: %d vs %d", one.BytesWritten, four.BytesWritten)
	}
	if one.DurableSec < four.DurableSec {
		t.Errorf("one aggregator durable at %.4fs, before four at %.4fs", one.DurableSec, four.DurableSec)
	}
	got := fmt.Sprintf("drain %.4f and %.4f GiB/s, durable at %.4f and %.4f s, Jain %.4f",
		units.GiBps(one.DrainBps), units.GiBps(four.DrainBps), one.DurableSec, four.DurableSec, jobs.JainIndex(shares))
	if want := "drain 3.9146 and 3.1878 GiB/s, durable at 0.5409 and 0.5203 s, Jain 0.9899"; got != want {
		t.Errorf("1 and 4 aggregators: %s, want %s", got, want)
	}
}
