package sched

import (
	"fmt"
	"testing"
	"time"

	"picmcio/internal/cluster"
)

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
	{1024, 5000, FCFS, false},
	{1024, 5000, EASY, false},
	{1024, 5000, FairShare, true},
	{4096, 20000, FCFS, false},
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
