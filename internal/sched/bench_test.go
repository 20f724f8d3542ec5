package sched

import (
	"fmt"
	"runtime"
	"sort"
	"testing"
	"time"

	"picmcio/internal/cluster"
)

// BenchmarkSched measures the batch-scheduler subsystem under a deep
// backlog: ~1300 jobs offered at 8× the partition's capacity, so the
// wait queue builds past 1000 entries and EASY backfill's per-decision
// work (priority sort + shadow-time reservation) runs at its worst
// realistic depth. The gated throughput metric is the simulated
// delivered write bandwidth (workload bytes over makespan) — it drops
// if the scheduler or the contention model regresses into longer
// schedules. The wall-clock admission rate is a context metric only
// (host-speed dependent, so it must not gate). The allocation count of
// the run is host-independent and gated too, as jobs scheduled per
// thousand allocations: it falls if a policy pass starts allocating per
// decision point again.
func BenchmarkSched(b *testing.B) {
	m := cluster.Dardel()
	pr := NewPricer(m, 1, 6)
	const partition = 64
	stream, err := streamAtLoad(pr, m, Synth{Tenants: 8, Users: 4, Seed: 1}, 8, partition, 1300)
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{Machine: m, Nodes: partition, Seed: 1, Pricer: pr}
	// Nominal workload volume each job writes (checkpoints + diagnostics
	// across all epochs and nodes): deterministic, so delivered bandwidth
	// is a pure function of the schedule the run produces.
	var totalBytes float64
	for _, j := range stream {
		sh := j.Spec.Workload.Shape()
		totalBytes += float64(sh.Epochs) * float64(sh.BytesPerNode) * float64(j.Nodes)
	}
	var before, after runtime.MemStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runtime.ReadMemStats(&before)
		start := time.Now()
		res, err := Run(cfg, EASY{}, stream)
		if err != nil {
			b.Fatal(err)
		}
		elapsed := time.Since(start).Seconds()
		runtime.ReadMemStats(&after)
		// Reconstruct the backlog depth the run actually saw: +1 per
		// submission, -1 per start, max prefix over time order.
		type ev struct {
			at    float64
			delta int
		}
		evs := make([]ev, 0, 2*len(res.Jobs))
		for _, j := range res.Jobs {
			evs = append(evs, ev{j.SubmitHours, +1}, ev{j.StartHours, -1})
		}
		depth, maxDepth := 0, 0
		// Starts at the same instant as submissions drain first (a start
		// can only follow its own submission).
		sort.Slice(evs, func(a, b2 int) bool {
			if evs[a].at != evs[b2].at {
				return evs[a].at < evs[b2].at
			}
			return evs[a].delta < evs[b2].delta
		})
		for _, e := range evs {
			depth += e.delta
			if depth > maxDepth {
				maxDepth = depth
			}
		}
		if maxDepth < 1000 {
			b.Fatalf("backlog peaked at %d jobs, benchmark requires >= 1000", maxDepth)
		}
		if len(res.Jobs) != len(stream) {
			b.Fatalf("scheduled %d of %d jobs", len(res.Jobs), len(stream))
		}
		b.ReportMetric(float64(len(res.Jobs))/elapsed, "admitted_jobs_per_s")
		b.ReportMetric(float64(maxDepth), "peak_queue_depth")
		b.ReportMetric(res.Utilization(), "utilization")
		b.ReportMetric(totalBytes/(res.Makespan*3600)/(1<<20), "delivered_MiBps")
		perJob := float64(after.Mallocs-before.Mallocs) / float64(len(res.Jobs))
		b.ReportMetric(perJob, "allocs_per_job")
		b.ReportMetric(1000/perJob, "jobs_per_kalloc_ratchet")
	}
}

// scaleCase is one whole-machine replay of BenchmarkSchedScale.
type scaleCase struct {
	nodes, jobs int
	policy      Policy
	// realism turns on the full realism stack — fair-share usage
	// accounting, preemptive checkpoint-and-requeue, in-queue node
	// failures — the event loop's most feature-dense configuration.
	realism bool
}

var scaleCases = []scaleCase{
	{1024, 5000, FCFS{}, false},
	{1024, 5000, EASY{}, false},
	{1024, 5000, FairShare{}, true},
	{4096, 20000, FCFS{}, false},
}

// build synthesizes the case's workload: `jobs` submissions from 8
// tenants × 4 users offered at 2.5× the partition's node-hour capacity,
// so the backlog grows to roughly (1 - 1/2.5) of the trace — thousands
// to tens of thousands of queued jobs. The machine is the Dardel preset
// with its node ceiling raised to the partition size; shapes are
// prewarmed so the replay pays event-loop costs, not first-sight
// simulation costs.
func (c scaleCase) build() (Config, []Job, error) {
	m := cluster.Dardel()
	if c.nodes > m.MaxNodes {
		m.MaxNodes = c.nodes
	}
	pr := NewPricer(m, 1, 6)
	stream, err := streamAtLoad(pr, m, Synth{Tenants: 8, Users: 4, Seed: 1}, 2.5, c.nodes, c.jobs)
	if err != nil {
		return Config{}, nil, err
	}
	if err := pr.Prewarm(stream, 4); err != nil {
		return Config{}, nil, err
	}
	cfg := Config{Machine: m, Nodes: c.nodes, Seed: 1, Pricer: pr}
	if c.realism {
		cfg.Preempt = PreemptConfig{MaxHeadWaitHours: 24, CheckpointHours: 0.5}
		cfg.Faults = FaultConfig{MTBFNodeHours: 2000, RepairHours: 12, RestartOverheadHours: 0.5}
	}
	return cfg, stream, nil
}

// BenchmarkSchedScale is the scheduler's whole-machine record: 1024- and
// 4096-node partitions under multi-thousand-job backlogs. The gate is the
// frozen reference digest (oracle_test.go) every Result is held to; the
// lease-operation, backfill and timeline-step counts are deterministic
// and move only if the schedule does, and scheduled-jobs/sec is
// host-dependent context.
func BenchmarkSchedScale(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, c := range scaleCases {
			cfg, stream, err := c.build()
			if err != nil {
				b.Fatal(err)
			}
			tag := fmt.Sprintf("%d_%s", c.nodes, c.policy.Name())
			start := time.Now()
			res, err := Run(cfg, c.policy, stream)
			wall := time.Since(start).Seconds()
			if err != nil {
				b.Fatal(err)
			}
			checkDigest(b, fmt.Sprintf("scale/%d/%s", c.nodes, c.policy.Name()), res)
			if len(res.Jobs) != len(stream) {
				b.Fatalf("%s: scheduled %d of %d jobs", tag, len(res.Jobs), len(stream))
			}
			b.ReportMetric(float64(len(res.Jobs))/wall/1e3, "kjobs_per_s_"+tag)
			b.ReportMetric(float64(res.LeaseOps), "lease_ops_"+tag)
			b.ReportMetric(float64(res.Backfills), "backfills_"+tag)
			b.ReportMetric(float64(len(res.Timeline)), "timeline_samples_"+tag)
		}
	}
}
