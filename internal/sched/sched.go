// Package sched is the trace-driven datacenter batch scheduler: the
// queue-level layer above internal/jobs, where the ROADMAP's "millions
// of users" live. A machine partition serves a stream of job
// submissions — synthesized from per-tenant user populations via
// fault.Arrivals-style exponential interarrivals, or replayed from a
// trace file (see trace.go) — under one of three scheduling policies
// (FCFS, EASY-backfill with priority aging, fair-share).
//
// The simulator is a discrete-event loop over arrivals and completions —
// plus node failures, repairs and preemption deadlines when the realism
// layer (realism.go) is on — on a clock measured in production hours (the
// same campaign clock internal/experiments' failure campaigns use). The
// partition is a node ledger — busy, down and free counts the loop
// audits after every event — rather than a machine build: nothing but
// the count of free nodes bears on a schedule. A job's isolated service
// time and parallel-file-system drain demand are priced by actually
// running its jobs.Spec through jobs.Run on the machine preset (see
// Pricer) — queued work inherits the full burst/QoS/fault machinery of
// the lower layers rather than being assigned a made-up runtime.
//
// Cross-job PFS contention emerges from the scheduling mix: the running
// set's aggregate drain demand is compared against the machine's
// backbone bandwidth, and when oversubscribed every running job's
// remaining I/O stretches proportionally (a processor-sharing
// approximation re-evaluated at every queue event). Packing more
// I/O-heavy jobs side by side therefore slows them all down — the
// system-wide burst-drain contention the single-co-schedule layer cannot
// see.
package sched

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"picmcio/internal/cluster"
	"picmcio/internal/jobs"
	"picmcio/internal/xrand"
)

// Job is one queued batch job: submission metadata plus the jobs.Spec
// the scheduler launches when the job is admitted.
type Job struct {
	ID     int
	Tenant string
	Class  string // size-class label ("small", "wide", ...)
	Nodes  int
	// SubmitHours is the submission time on the campaign clock.
	SubmitHours float64
	// Spec is the work itself; Spec.Nodes must equal Nodes.
	Spec jobs.Spec
}

// JobResult is one job's scheduling outcome. A job killed mid-service
// (preemption or node failure) requeues as a continuation and may run in
// several segments: StartHours is then the final segment's start,
// WaitHours the queue time accumulated across all segments, and the
// kill damage shows up in the kill counters and LostNodeHours.
type JobResult struct {
	Job
	StartHours   float64 // start of the job's final segment
	EndHours     float64
	WaitHours    float64 // total queued time across segments
	ServiceHours float64 // isolated (uncontended) full-job service time
	// StretchX is the final segment's actual runtime over its nominal
	// service: > 1 means PFS contention from the co-running mix slowed
	// the job down.
	StretchX float64
	// backfilled marks a (final) start ahead of a blocked queue head.
	// Nothing reads it; it stays because the frozen result digests
	// (oracle_test.go) encode every field of a Result.
	backfilled bool
	// Segments counts admissions: 1 for a job never killed.
	Segments int
	// Preemptions and FailureKills count the checkpoint-and-requeue
	// kills this job absorbed.
	Preemptions  int
	FailureKills int
	// LostNodeHours is nodes × (service executed past the last recovered
	// checkpoint) summed over kills — the work the machine redoes.
	LostNodeHours float64
}

// Slowdown is the job's bounded slowdown: (wait + actual runtime) over
// isolated service time, the standard queue-fairness quantity. A job
// that never waited and ran uncontended scores 1.
func (r JobResult) Slowdown() float64 {
	if r.ServiceHours <= 0 {
		return 1
	}
	return (r.WaitHours + r.EndHours - r.StartHours) / r.ServiceHours
}

// Config parameterizes a scheduler run.
type Config struct {
	Machine cluster.Machine
	// Nodes is the schedulable partition size (0 = Machine.MaxNodes).
	Nodes int
	// EpochHours anchors the campaign clock: one workload epoch's compute
	// phase stands for this many production hours (default 6, matching
	// the failure campaigns).
	EpochHours float64
	// Seed feeds the pricing runs' storage stochastics.
	Seed uint64
	// Pricer overrides the service-time pricer (nil = NewPricer on the
	// config's machine/seed/epoch clock). Sharing one pricer across runs
	// of the same machine skips re-simulating known job shapes.
	Pricer *Pricer
	// Preempt enables preemption via checkpoint-and-requeue (off by
	// default; see PreemptConfig).
	Preempt PreemptConfig
	// Faults injects node failures into the queue (off by default; see
	// FaultConfig).
	Faults FaultConfig
}

func (c Config) withDefaults() Config {
	if c.Nodes == 0 {
		c.Nodes = c.Machine.MaxNodes
	}
	if c.EpochHours == 0 {
		c.EpochHours = 6
	}
	if c.Faults.enabled() && c.Faults.RepairHours == 0 {
		c.Faults.RepairHours = 12
	}
	return c
}

// validate holds the partition to what cluster.Machine.Build accepts —
// at least one node, no more than the machine has — and the fault
// injection to its own checks.
func (c Config) validate() error {
	if c.Nodes < 1 {
		return fmt.Errorf("sched: partition needs at least one node (got %d)", c.Nodes)
	}
	if c.Nodes > c.Machine.MaxNodes {
		return fmt.Errorf("sched: %s has only %d nodes (asked for a %d-node partition)", c.Machine.Name, c.Machine.MaxNodes, c.Nodes)
	}
	return c.Faults.validate()
}

// UtilSample is one step of the machine-utilization timeline: from
// Hours onward, Busy nodes were leased.
type UtilSample struct {
	Hours float64
	Busy  int
}

// Result is one scheduler run's outcome.
type Result struct {
	Policy    string
	Nodes     int // partition size
	Jobs      []JobResult
	Timeline  []UtilSample // busy-node step function over the run
	Makespan  float64      // hours until the last job completed
	LeaseOps  int          // node-ledger updates: admit, retire, kill, repair start and end
	Backfills int

	// Preemption and failure accounting (zero when both are disabled).
	Preemptions  int // checkpoint-and-requeue kills by the preemptor
	FailureKills int // running jobs killed by node failures
	IdleFailures int // failures that landed on idle or already-down nodes
	// LostNodeHours is the redone work: node-hours executed past the
	// last recovered checkpoint, summed over kills. RequeuedNodeHours is
	// the continuation service put back on the queue (remaining epochs
	// plus restart overheads, node-weighted). DownNodeHours is repair
	// capacity taken out of the pool (repair windows × 1 node).
	LostNodeHours     float64
	RequeuedNodeHours float64
	DownNodeHours     float64

	// UsageJain is the time-weighted Jain fairness index over active
	// tenants' decayed delivered usage during contended intervals (two or
	// more tenants with work in the system); 1 when never contended.
	// This is the quantity fair-share scheduling equalizes — unlike
	// JainTenants' slowdown basis, which a strict FCFS queue maximizes by
	// giving every tenant the same misery.
	UsageJain float64
	// ShareErr is the time-weighted mean |usage share − equal share|
	// over active tenants during contended intervals; 0 is perfect
	// fair-share delivery.
	ShareErr float64
	// TenantShares is the per-tenant share-error breakdown, in
	// first-seen order.
	TenantShares []TenantShare
}

// MeanWaitHours is the mean queue wait over all jobs.
func (r *Result) MeanWaitHours() float64 {
	if len(r.Jobs) == 0 {
		return 0
	}
	sum := 0.0
	for _, j := range r.Jobs {
		sum += j.WaitHours
	}
	return sum / float64(len(r.Jobs))
}

// WaitQuantile returns the q-quantile (0..1) of the queue-wait
// distribution.
func (r *Result) WaitQuantile(q float64) float64 {
	if len(r.Jobs) == 0 {
		return 0
	}
	ws := make([]float64, len(r.Jobs))
	for i, j := range r.Jobs {
		ws[i] = j.WaitHours
	}
	sort.Float64s(ws)
	idx := int(q * float64(len(ws)-1))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(ws) {
		idx = len(ws) - 1
	}
	return ws[idx]
}

// Utilization is the node-hour-weighted machine utilization over the
// makespan: leased node-hours / (partition × makespan).
func (r *Result) Utilization() float64 {
	if r.Makespan <= 0 || r.Nodes == 0 {
		return 0
	}
	busyNH := 0.0
	for i, s := range r.Timeline {
		end := r.Makespan
		if i+1 < len(r.Timeline) {
			end = r.Timeline[i+1].Hours
		}
		if end > s.Hours {
			busyNH += float64(s.Busy) * (end - s.Hours)
		}
	}
	return busyNH / (float64(r.Nodes) * r.Makespan)
}

// GroupStats is one tenant's or size class's queue experience.
type GroupStats struct {
	Name          string
	Jobs          int
	MeanWaitHours float64
	MeanSlowdown  float64
}

// groupBy folds job results into named groups in first-seen order.
func groupBy(jobsDone []JobResult, key func(JobResult) string) []GroupStats {
	idx := map[string]int{}
	var out []GroupStats
	for _, j := range jobsDone {
		k := key(j)
		i, ok := idx[k]
		if !ok {
			i = len(out)
			idx[k] = i
			out = append(out, GroupStats{Name: k})
		}
		g := &out[i]
		g.Jobs++
		g.MeanWaitHours += j.WaitHours
		g.MeanSlowdown += j.Slowdown()
	}
	for i := range out {
		if out[i].Jobs > 0 {
			out[i].MeanWaitHours /= float64(out[i].Jobs)
			out[i].MeanSlowdown /= float64(out[i].Jobs)
		}
	}
	return out
}

// TenantStats groups the run's jobs by tenant.
func (r *Result) TenantStats() []GroupStats {
	return groupBy(r.Jobs, func(j JobResult) string { return j.Tenant })
}

// ClassStats groups the run's jobs by size class.
func (r *Result) ClassStats() []GroupStats {
	return groupBy(r.Jobs, func(j JobResult) string { return j.Class })
}

// JainTenants is Jain's fairness index over the tenants' mean bounded
// slowdowns, inverted so 1.0 means every tenant experienced the same
// queue treatment. Computed via jobs.JainIndex at N ≫ 2 — the N-tenant
// generalization of the two-job fairness the contention figure reports.
func (r *Result) JainTenants() float64 {
	ts := r.TenantStats()
	xs := make([]float64, len(ts))
	for i, t := range ts {
		// Fairness over per-tenant service quality: the reciprocal of the
		// mean slowdown, so an even queue experience scores 1 regardless
		// of how hard each tenant hammered the machine.
		if t.MeanSlowdown > 0 {
			xs[i] = 1 / t.MeanSlowdown
		}
	}
	return jobs.JainIndex(xs)
}

// Run replays the job stream through the policy on the config's machine
// partition (the event loop is loop.go). Jobs arrive in SubmitHours
// order, ties broken by ID, and Result.Jobs lists them by ID. Run only
// reads the stream — the engine points into it rather than copying it —
// so concurrent Runs may share one stream, which must not change until
// they return.
func Run(cfg Config, pol Policy, stream []Job) (*Result, error) {
	e, err := newEngine(cfg, pol, stream)
	if err != nil {
		return nil, err
	}
	if err := e.loop(); err != nil {
		return nil, err
	}
	return e.res, nil
}

// newEngine checks a Run's inputs and sets up its engine at t=0.
func newEngine(cfg Config, pol Policy, stream []Job) (*engine, error) {
	cfg = cfg.withDefaults()
	if pol > FairShare {
		return nil, fmt.Errorf("sched: unknown %s", pol.Name())
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	pr := cfg.Pricer
	if pr == nil {
		pr = NewPricer(cfg.Machine, cfg.Seed, cfg.EpochHours)
	}

	// One record per job, from one slab; arrivals index it.
	slab := make([]jobState, len(stream))
	arrivals := make([]*jobState, len(stream))
	for i := range stream {
		j := &stream[i]
		if math.IsNaN(j.SubmitHours) || math.IsInf(j.SubmitHours, 0) {
			return nil, fmt.Errorf("sched: job %d has non-finite submit time %v", j.ID, j.SubmitHours)
		}
		if j.Nodes < 1 || j.Nodes > cfg.Nodes {
			return nil, fmt.Errorf("sched: job %d needs %d nodes on a %d-node partition", j.ID, j.Nodes, cfg.Nodes)
		}
		if j.Spec.Nodes != j.Nodes {
			return nil, fmt.Errorf("sched: job %d: spec nodes %d != job nodes %d", j.ID, j.Spec.Nodes, j.Nodes)
		}
		slab[i].job = j
		arrivals[i] = &slab[i]
	}
	// In ID order first: the order of Result.Jobs, whose slots the records
	// write their outcomes into, and where duplicate IDs sit side by side.
	slices.SortFunc(arrivals, func(a, b *jobState) int { return cmp.Compare(a.job.ID, b.job.ID) })
	res := &Result{Policy: pol.Name(), Nodes: cfg.Nodes, Jobs: make([]JobResult, len(stream))}
	for k, st := range arrivals {
		if k > 0 && st.job.ID == arrivals[k-1].job.ID {
			return nil, fmt.Errorf("sched: duplicate job ID %d in stream", st.job.ID)
		}
		res.Jobs[k].Job = *st.job
		st.res = &res.Jobs[k]
	}
	// Then in arrival order, a total order once IDs are unique.
	slices.SortFunc(arrivals, func(a, b *jobState) int {
		if a.job.SubmitHours != b.job.SubmitHours {
			return cmp.Compare(a.job.SubmitHours, b.job.SubmitHours)
		}
		return cmp.Compare(a.job.ID, b.job.ID)
	})

	e := &engine{
		cfg: cfg, pol: pol, pr: pr, res: res,
		pfsBW:    cfg.Machine.Lustre.BackboneRate,
		arrivals: arrivals,
		lastOver: 1,
	}
	e.openLedger(arrivals)
	if cfg.Faults.enabled() {
		lastSubmit := 0.0
		if n := len(arrivals); n > 0 {
			lastSubmit = arrivals[n-1].job.SubmitHours
		}
		e.fails = cfg.Faults.arrivalTimes(cfg.Seed, cfg.Nodes, lastSubmit)
		e.failRng = xrand.New(xrand.SeedAt(cfg.Seed^failSeedSalt, 1))
	}
	return e, nil
}
