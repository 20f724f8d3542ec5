// Machine-queue scheduling: a multi-tenant job stream on a simulated
// Dardel partition, replayed under FCFS and under EASY backfill with
// priority aging. The demo synthesizes a few hundred submissions from 8
// tenants (exponential interarrivals per user, the same Poisson
// machinery the failure campaigns use), writes the stream out as a
// replayable trace, reads it back, and schedules the identical trace
// under both policies — so the wait-time and utilization deltas are
// properties of the schedule, not of workload luck. Each admitted job
// is priced by actually running its jobs.Spec through the co-schedule
// machinery, and concurrently running jobs stretch each other through
// the shared-PFS contention model.
//
// -nodes and -jobs scale the partition and the backlog. The defaults
// (64 nodes, ~240 jobs) run in a couple of seconds, and whole-machine
// runs are routine too: -nodes 4096 -jobs 20000 replays in well under a
// minute.
//
// -fair skews the tenant submission rates and adds the fair-share
// policy to the comparison; -preempt enables checkpoint-and-requeue
// preemption once the queue head has waited that many hours; -mtbf
// turns on in-queue node failures (kill, requeue from the last drained
// checkpoint, repair window).
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"picmcio/internal/cluster"
	"picmcio/internal/sched"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the example on its arguments and output streams. It returns the
// exit status: 0, 1 on an error or a refused value, 2 on a flag the
// parser rejects or an argument that is no flag.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet(os.Args[0], flag.ContinueOnError)
	fs.SetOutput(stderr)
	nodes := fs.Int("nodes", 64, "partition size in nodes")
	jobCount := fs.Int("jobs", 240, "approximate number of submissions to synthesize")
	fair := fs.Bool("fair", false, "skew the tenant submission rates and add the fair-share policy to the comparison")
	preemptW := fs.Float64("preempt", 0, "preempt running jobs once the queue head has waited this many hours (0 = off)")
	mtbf := fs.Float64("mtbf", 0, "per-node MTBF in hours for in-queue node failures (0 = off)")
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "schedtrace: unexpected argument %q: every setting is a flag\n", fs.Arg(0))
		fs.Usage()
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "schedtrace:", err)
		return 1
	}
	// Zero turns preemption and failures off; a negative or NaN value is
	// no setting at all.
	if *jobCount < 1 {
		return fail(fmt.Errorf("-jobs %d: need at least 1", *jobCount))
	}
	if !(*preemptW >= 0) {
		return fail(fmt.Errorf("-preempt %g: need 0 (off) or more hours", *preemptW))
	}
	if !(*mtbf >= 0) {
		return fail(fmt.Errorf("-mtbf %g: need 0 (off) or more hours", *mtbf))
	}
	if err := schedtrace(stdout, *nodes, *jobCount, *fair, *preemptW, *mtbf); err != nil {
		return fail(err)
	}
	return 0
}

// schedtrace synthesizes the stream, round-trips it through the trace
// format and prints each policy's schedule of it.
func schedtrace(stdout io.Writer, nodes, jobCount int, fair bool, preemptW, mtbf float64) error {
	m := cluster.Dardel()
	if nodes > m.MaxNodes {
		m.MaxNodes = nodes
	}
	pricer := sched.NewPricer(m, 1, 6)

	// Calibrate the submission rate to offer ~1.1× the partition's
	// node-hour capacity: enough pressure that a queue forms and the
	// policies have something to disagree about.
	s := sched.Synth{Tenants: 8, Users: 4, Seed: 1}
	if fair {
		// One hog tenant at 6× the base rate: the workload fair-share
		// exists to push back on.
		s.TenantWeights = []float64{6, 3, 2, 1, 1, 1, 1, 1}
	}
	mean, err := sched.SubmitMeanForLoad(pricer, m, s, 1.1, nodes)
	if err != nil {
		return err
	}
	s.SubmitMeanHours = mean
	s.SpanHours = float64(jobCount) * mean / float64(8*4)
	stream, err := sched.Synthesize(m, s)
	if err != nil {
		return err
	}
	// Every policy would fail on a job wider than the partition: refuse
	// it before anything is printed.
	widest := 0
	for _, j := range stream {
		widest = max(widest, j.Nodes)
	}
	if widest > nodes {
		return fmt.Errorf("-nodes %d: the stream's widest job needs %d nodes", nodes, widest)
	}
	// Price every distinct shape up front on a small worker pool; the
	// replayed schedules then never stall on a probe simulation.
	if err := pricer.Prewarm(stream, 4); err != nil {
		return err
	}

	// Round-trip the stream through the trace format: what a scheduler
	// comparison replays is a file you can store, diff, and hand-edit.
	var buf bytes.Buffer
	if err := sched.WriteTrace(&buf, stream); err != nil {
		return err
	}
	lines := strings.SplitN(buf.String(), "\n", 4)
	fmt.Fprintf(stdout, "trace: %d jobs from %d tenants over %.0f h, first entries:\n  %s\n  %s\n  %s\n",
		len(stream), s.Tenants, s.SpanHours, lines[0], lines[1], lines[2])
	replay, err := sched.ReadTrace(&buf, m, nil)
	if err != nil {
		return err
	}

	cfg := sched.Config{Machine: m, Nodes: nodes, Seed: 1, Pricer: pricer}
	if preemptW > 0 {
		cfg.Preempt = sched.PreemptConfig{MaxHeadWaitHours: preemptW, CheckpointHours: 0.5}
	}
	if mtbf > 0 {
		cfg.Faults = sched.FaultConfig{MTBFNodeHours: mtbf, RepairHours: 12, RestartOverheadHours: 0.5}
	}
	policies := []sched.Policy{sched.FCFS, sched.EASY}
	if fair {
		policies = append(policies, sched.FairShare)
	}
	var results []*sched.Result
	for _, pol := range policies {
		res, err := sched.Run(cfg, pol, replay)
		if err != nil {
			return err
		}
		results = append(results, res)
		fmt.Fprintf(stdout, "\n=== %s ===\n", res.Policy)
		fmt.Fprintf(stdout, "  makespan %.0f h, utilization %.1f%%, mean wait %.1f h (p95 %.1f h), %d backfills\n",
			res.Makespan, 100*res.Utilization(), res.MeanWaitHours(), res.WaitQuantile(0.95), res.Backfills)
		fmt.Fprintf(stdout, "  per-tenant Jain fairness (%d tenants): %.4f\n", len(res.TenantStats()), res.JainTenants())
		if fair || preemptW > 0 || mtbf > 0 {
			fmt.Fprintf(stdout, "  delivered-usage Jain %.4f (share error %.4f), %d preemptions, %d failure kills, %.0f node-h lost, %.0f node-h down\n",
				res.UsageJain, res.ShareErr, res.Preemptions, res.FailureKills, res.LostNodeHours, res.DownNodeHours)
		}
		fmt.Fprintln(stdout, "  size classes:")
		for _, c := range res.ClassStats() {
			fmt.Fprintf(stdout, "    %-8s %3d jobs  mean wait %7.1f h  mean slowdown %6.2fx\n",
				c.Name, c.Jobs, c.MeanWaitHours, c.MeanSlowdown)
		}
	}

	fcfs, easy := results[0], results[1]
	fmt.Fprintf(stdout, "\nmean queue wait: %.1f h (FCFS) -> %.1f h (EASY backfill)\n",
		fcfs.MeanWaitHours(), easy.MeanWaitHours())
	if easy.MeanWaitHours() < fcfs.MeanWaitHours() && easy.Utilization() >= fcfs.Utilization() {
		fmt.Fprintln(stdout, "backfill cuts queue waits without giving up utilization ✔")
	}
	if fair {
		fs := results[2]
		fmt.Fprintf(stdout, "delivered-usage Jain: %.4f (FCFS), %.4f (EASY) -> %.4f (fair-share)\n",
			fcfs.UsageJain, easy.UsageJain, fs.UsageJain)
		if fs.UsageJain > easy.UsageJain && fs.UsageJain > fcfs.UsageJain {
			fmt.Fprintln(stdout, "fair-share holds delivered usage nearest equal shares under the skew ✔")
		}
	}
	return nil
}
