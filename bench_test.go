// Package picmcio's root benchmark harness: one testing.B benchmark per
// scenario family `make bench` gates against a committed bench/ baseline
// (burst buffer, contention, fault, interval, sweep, workload), each
// exercising the exact experiment code path at a reduced scale. The
// paper's own artifacts are pinned byte-for-byte by the goldens in
// internal/experiments instead.
//
// Reported custom metrics carry the scenario's headline quantity so the
// benchmark output doubles as a regression record.
package picmcio

import (
	"math"
	"testing"

	"picmcio/internal/burst"
	"picmcio/internal/cluster"
	"picmcio/internal/experiments"
	"picmcio/internal/jobs"
	"picmcio/internal/units"
)

// benchOptions keeps the per-iteration cost low: 16 ranks/node and a
// short epoch schedule, full machine models.
func benchOptions() experiments.Options {
	return experiments.Options{
		Seed:         1,
		RanksPerNode: 16,
		NodeCounts:   []int{1, 10, 50},
		DiagEpochs:   2,
	}
}

// BenchmarkBurstBuffer measures the burst-buffer staging tier (the
// post-paper scenario axis): staged writes must raise apparent client
// throughput above direct PFS writes, with the asynchronous drain
// overlapping compute.
func BenchmarkBurstBuffer(b *testing.B) {
	o := benchOptions()
	o.NodeCounts = []int{1, 10}
	for i := 0; i < b.N; i++ {
		benchBurstBuffer(b, o)
	}
}

// benchBurstBuffer is one iteration of the burst-buffer benchmark.
func benchBurstBuffer(b *testing.B, o experiments.Options) {
	_, pts, err := o.FigBurst()
	if err != nil {
		b.Fatal(err)
	}
	last := pts[len(pts)-1]
	b.ReportMetric(last.DirectGiBs, "direct_GiBps")
	b.ReportMetric(last.StagedGiBs, "staged_GiBps")
	b.ReportMetric(last.DrainSec, "drain_s")
	b.ReportMetric(100*last.OverlapFrac, "drain_overlap_pct")
	for _, pt := range pts {
		if pt.StagedGiBs <= pt.DirectGiBs {
			b.Fatalf("staged writes must beat direct PFS writes (%d nodes: %.3f vs %.3f GiB/s)",
				pt.Nodes, pt.StagedGiBs, pt.DirectGiBs)
		}
	}
	if last.DrainSec <= 0 || last.OverlapFrac <= 0 {
		b.Fatal("drain must run and overlap compute")
	}
}

// BenchmarkContention measures the multi-job contention scenario (the
// second post-paper scenario axis): a staged checkpoint-heavy job next to
// a direct writer on one Dardel, across the drain-QoS policy grid.
// Co-scheduling must cost something (slowdown > 1) and the rate-limit
// policy must hand bandwidth back to the neighbour.
func BenchmarkContention(b *testing.B) {
	o := experiments.Options{Seed: 1}
	for i := 0; i < b.N; i++ {
		_, rows, err := o.FigContention()
		if err != nil {
			b.Fatal(err)
		}
		byPolicy := map[string]*experiments.ContentionRow{}
		for j := range rows {
			byPolicy[rows[j].Policy] = &rows[j]
		}
		off, lim := byPolicy["qos-off"], byPolicy["rate-limit"]
		if off == nil || lim == nil {
			b.Fatal("policy grid incomplete")
		}
		b.ReportMetric(off.Result.MaxSlowdown(), "qosoff_max_slowdown_x")
		b.ReportMetric(off.Result.Jain, "qosoff_jain")
		b.ReportMetric(lim.Result.Slowdown[1], "ratelimit_direct_slowdown_x")
		b.ReportMetric(lim.Result.Jain, "ratelimit_jain")
		// The gated throughput metric (benchjson -compare fails on >25%
		// drops of *Bps metrics): the staged job's achieved write-back
		// bandwidth under the plain scheduler.
		b.ReportMetric(off.Result.Jobs[0].DrainBps/(1<<30), "qosoff_staged_drain_GiBps")
		if off.Result.MaxSlowdown() <= 1.0 {
			b.Fatalf("co-scheduled slowdown %.4f, interference must be > 1.0", off.Result.MaxSlowdown())
		}
		if lim.Result.Slowdown[1] >= off.Result.Slowdown[1] {
			b.Fatal("rate-limit QoS must reduce the neighbour's slowdown")
		}
	}
}

// BenchmarkFault measures the fault-injection scenario (the third
// post-paper scenario axis): a staged victim job loses a node mid-epoch.
// Deferred write-back must cost strictly more restart work than immediate
// draining, and the NVMe-surviving restart must resume from at least as
// late an epoch as the node-loss restart while redraining at real drain
// bandwidth (the gated throughput metric).
func BenchmarkFault(b *testing.B) {
	o := experiments.Options{Seed: 1}
	for i := 0; i < b.N; i++ {
		_, cells, err := o.FigFault()
		if err != nil {
			b.Fatal(err)
		}
		lost := map[string]int{}
		cost := map[string]float64{}
		for _, c := range cells {
			if c.QoS != "qos-off" {
				continue
			}
			lost[c.Policy.String()] += c.Report.LostEpochsPFS
			cost[c.Policy.String()] += c.VictimDurable - c.CleanDurable
		}
		b.ReportMetric(float64(lost["immediate"]), "immediate_lost_epochs")
		b.ReportMetric(float64(lost["epoch-end"]), "epochend_lost_epochs")
		b.ReportMetric(float64(lost["watermark"]), "watermark_lost_epochs")
		b.ReportMetric(cost["immediate"], "immediate_fault_cost_s")
		b.ReportMetric(cost["epoch-end"], "epochend_fault_cost_s")
		if lost["epoch-end"] <= lost["immediate"] {
			b.Fatalf("epoch-end lost %d epochs vs immediate %d: deferring write-back must cost restart work",
				lost["epoch-end"], lost["immediate"])
		}
		if lost["watermark"] < lost["epoch-end"] {
			b.Fatalf("watermark lost %d epochs vs epoch-end %d", lost["watermark"], lost["epoch-end"])
		}
		sc, err := o.FigFaultSurvival()
		if err != nil {
			b.Fatal(err)
		}
		nl, nk := sc.NodeLoss, sc.NVMeKeep
		b.ReportMetric(float64(nl.Fault.LostBytes)/(1<<20), "nodeloss_lost_MiB")
		b.ReportMetric(float64(nk.Fault.RedrainBytes)/(1<<20), "redrain_MiB")
		b.ReportMetric(nk.DrainBps/(1<<30), "redrain_GiBps")
		if nk.Fault.RestartEpoch < nl.Fault.RestartEpoch {
			b.Fatal("NVMe survival must not restart earlier than node loss")
		}
		if nk.DrainBps <= 0 {
			b.Fatal("surviving staged state must redrain at nonzero bandwidth")
		}
	}
}

// BenchmarkInterval measures the checkpoint-interval optimizer stack
// (the fourth post-paper scenario axis): cost probes through the burst
// and PFS write paths priced into Young/Daly plans. The gated
// throughput metrics are the probes' effective checkpoint bandwidths —
// a regression there means the measured cost model drifted. Closed
// forms must agree with the numeric minimizer, and the buffered cadence
// must come out shorter than the PFS one (cheap saves ⇒ checkpoint more
// often).
func BenchmarkInterval(b *testing.B) {
	o := experiments.Options{Seed: 1}
	for i := 0; i < b.N; i++ {
		st, err := o.FigIntervalSweep()
		if err != nil {
			b.Fatal(err)
		}
		ckptBytes := float64(128 << 20)
		for _, p := range st.Points {
			cell := p.Extra.(experiments.IntervalCell)
			if cell.Machine != "Dardel" || cell.Policy != "immediate" || cell.Scale != 1 {
				continue
			}
			l := cell.Level
			switch cell.Durability {
			case "buffered":
				b.ReportMetric(ckptBytes/l.SaveSec/(1<<30), "buffered_ckpt_GiBps")
				b.ReportMetric(l.NumericSec, "buffered_opt_interval_s")
			case "pfs":
				b.ReportMetric(ckptBytes/l.SaveSec/(1<<30), "pfs_ckpt_GiBps")
				b.ReportMetric(l.NumericSec, "pfs_opt_interval_s")
			}
			if gap := math.Abs(l.NumericSec-l.DalySec) / l.NumericSec; gap > 0.02 {
				b.Fatalf("%s %s: numeric optimum %v vs Daly %v diverge by %.3f",
					cell.Machine, cell.Durability, l.NumericSec, l.DalySec, gap)
			}
		}
		byDur := map[string]float64{}
		for _, p := range st.Points {
			cell := p.Extra.(experiments.IntervalCell)
			if cell.Machine == "Dardel" && cell.Policy == "immediate" && cell.Scale == 1 {
				byDur[cell.Durability] = cell.Level.NumericSec
			}
		}
		if !(byDur["buffered"] > 0 && byDur["buffered"] < byDur["pfs"]) {
			b.Fatalf("buffered cadence %v must be shorter than PFS %v", byDur["buffered"], byDur["pfs"])
		}
	}
}

// BenchmarkSweep exercises the sweep engine end to end on the two
// sweep-native artifacts: the buffer-sizing grid (reporting the best
// achieved write-back bandwidth as the gated throughput metric) and an
// accelerated-MTBF failure campaign (loss ordering as context metrics).
// A serial run must be bit-identical to a -parallel 4 run — the
// engine's core guarantee — or the benchmark fails.
func BenchmarkSweep(b *testing.B) {
	o := experiments.Options{Seed: 1, CampaignRuns: 1200, CampaignMTBFHours: 500}
	par := o
	par.Parallel = 4
	for i := 0; i < b.N; i++ {
		sizing, err := o.FigSizing()
		if err != nil {
			b.Fatal(err)
		}
		sizingPar, err := par.FigSizing()
		if err != nil {
			b.Fatal(err)
		}
		if sizing.Render() != sizingPar.Render() {
			b.Fatal("sizing sweep diverged between serial and parallel runs")
		}
		var bestDrain, bestSpeedup float64
		for _, p := range sizing.Points {
			if v, ok := p.Get("drain_gibps"); ok && v > bestDrain {
				bestDrain = v
			}
			if v, ok := p.Get("app_speedup_x"); ok && v > bestSpeedup {
				bestSpeedup = v
			}
		}
		b.ReportMetric(bestDrain, "best_drain_GiBps")
		b.ReportMetric(bestSpeedup, "best_speedup_x")
		b.ReportMetric(float64(len(sizing.Points)), "sizing_points")

		camp, err := o.CampaignFailure()
		if err != nil {
			b.Fatal(err)
		}
		campPar, err := par.CampaignFailure()
		if err != nil {
			b.Fatal(err)
		}
		if camp.Render() != campPar.Render() {
			b.Fatal("failure campaign diverged between serial and parallel runs")
		}
		lost := map[string]float64{}
		for _, p := range camp.Points {
			cell := p.Extra.(experiments.CampaignCell)
			if cell.QoS == "qos-off" {
				lost[cell.Policy.String()] = cell.MeanLostPerFail
			}
		}
		if !(lost["immediate"] < lost["watermark"]) {
			b.Fatal("campaign must cost more lost node-hours under deferred write-back")
		}
		b.ReportMetric(lost["immediate"], "campaign_lost_nh_immediate")
		b.ReportMetric(lost["watermark"], "campaign_lost_nh_watermark")
	}
}

// BenchmarkWorkload measures the unified workload interface in a 4-job
// co-schedule on Dardel: two BIT1-style rank schedules (1 vs 4
// aggregator groups), a chunked flat writer and a direct neighbour, all
// contending for the same PFS. The gated throughput metric is the
// single-aggregator rank job's achieved write-back bandwidth — it drops
// if the mpisim gather path, the staging tier or the shared-PFS
// contention model regresses. Funnelling through one writer must not
// reach durability faster than spreading over four.
func BenchmarkWorkload(b *testing.B) {
	m := cluster.Dardel()
	tier := burst.Spec{
		CapacityBytes: 2 << 30,
		Rate:          6e9,
		PerOp:         25e-6,
		Policy:        burst.PolicyEpochEnd,
	}
	rank := func(aggr int) jobs.RankWorkload {
		return jobs.RankWorkload{
			Epochs:                 3,
			RanksPerNode:           4,
			Aggregators:            aggr,
			CheckpointBytesPerRank: 24 * units.MiB,
			DiagBytesPerRank:       8 * units.MiB,
			ComputeSec:             0.02,
			ChunkBytes:             16 * units.MiB,
		}
	}
	flat := jobs.BulkWriter{
		Epochs:          3,
		CheckpointBytes: 96 * units.MiB,
		DiagBytes:       32 * units.MiB,
		ComputeSec:      0.02,
	}
	specs := []jobs.Spec{
		{Name: "ranks-1agg", Nodes: 4, Burst: tier, Workload: rank(1), StripeCount: -1},
		{Name: "ranks-4agg", Nodes: 4, Burst: tier, Workload: rank(4), StripeCount: -1},
		{Name: "chunked", Nodes: 4, Burst: tier, Workload: jobs.ChunkedWriter{
			Epochs: 3, CheckpointBytes: 96 * units.MiB, DiagBytes: 32 * units.MiB,
			ComputeSec: 0.02, ChunkBytes: 16 * units.MiB,
		}, StripeCount: -1},
		{Name: "direct", Nodes: 4, Workload: flat, StripeCount: -1},
	}
	for i := 0; i < b.N; i++ {
		res, err := jobs.Run(m, specs, 1)
		if err != nil {
			b.Fatal(err)
		}
		shares := make([]float64, len(res))
		for j, r := range res {
			shares[j] = r.FairShareBps()
			if r.BytesWritten == 0 {
				b.Fatalf("job %s wrote nothing", r.Name)
			}
			if r.Burst != nil && r.Burst.PendingBytes != 0 {
				b.Fatalf("job %s left %d bytes staged", r.Name, r.Burst.PendingBytes)
			}
		}
		if res[0].BytesWritten != res[1].BytesWritten {
			b.Fatalf("aggregator count changed logical volume: %d vs %d",
				res[0].BytesWritten, res[1].BytesWritten)
		}
		if res[0].DurableSec < res[1].DurableSec {
			b.Fatal("one aggregator must not reach durability before four")
		}
		b.ReportMetric(res[0].DrainBps/(1<<30), "ranks_1aggr_drain_GiBps")
		b.ReportMetric(res[1].DrainBps/(1<<30), "ranks_4aggr_drain_GiBps")
		b.ReportMetric(res[0].DurableSec, "ranks_1aggr_durable_s")
		b.ReportMetric(res[1].DurableSec, "ranks_4aggr_durable_s")
		b.ReportMetric(jobs.JainIndex(shares), "jain")
	}
}
