// Package jobs models multi-job contention: several simulated jobs
// co-scheduled on one cluster.System, each with its own node allocation,
// its own burst-buffer tier and workload, all sharing the backing
// parallel file system. Drain traffic from one job's staging tier and
// another job's direct writes meet on the same OST and backbone servers,
// so interference emerges from the queueing model rather than being
// asserted — the shared-resource scheduling problem production machines
// like Dardel and Vega face when many jobs run at once.
//
// Contention runs every job co-scheduled and then each job alone on an
// otherwise idle machine, reporting per-job slowdown (co-scheduled
// durable-completion time over isolated) and Jain's fairness index over
// the jobs' achieved drain bandwidths. The drain QoS knobs (burst.QoS:
// priority lanes, rate limit, deadline pacing) are the levers the index
// responds to.
package jobs

import (
	"fmt"

	"picmcio/internal/burst"
	"picmcio/internal/cluster"
	"picmcio/internal/fault"
	"picmcio/internal/pfs"
	"picmcio/internal/posix"
	"picmcio/internal/sim"
)

// Spec describes one job of a co-schedule.
type Spec struct {
	Name  string
	Nodes int
	// Burst sizes the job's private staging tier; the zero value makes
	// the job write directly to the shared PFS. The spec's QoS field
	// carries the job's drain QoS policy.
	Burst burst.Spec
	// Workload is the job's application model (see workload.go):
	// BulkWriter/ChunkedWriter for the flat per-node writer, RankWorkload
	// for mpisim/BIT1 rank schedules with aggregator fan-in.
	Workload Workload

	// StripeCount widens the job's output directory striping (-1 = all
	// OSTs, 0 = machine default) at jobStripeSize.
	// Checkpoint directories are conventionally striped wide, and wide
	// stripes are what make co-scheduled jobs share OSTs.
	StripeCount int

	// Fault injects a node (or whole-job) failure into the job's epoch
	// schedule: the victim writer(s) die mid-epoch, the staged state on
	// their nodes is destroyed or preserved per the spec's survivability
	// model, and after the restart delay the victims resume from the last
	// restartable checkpoint — re-contending drain bandwidth with every
	// job that kept running. nil = no failure.
	Fault *fault.Spec
}

// jobStripeSize is the stripe size of a job's widened output directory.
const jobStripeSize = 4 << 20

// dir is the job's output directory on the shared file system.
func (s Spec) dir() string { return "/scratch/" + s.Name }

// Result is one job's measurements from a co-scheduled or isolated run.
type Result struct {
	Name  string
	Nodes int

	AppSec     float64 // virtual time until the job's last writer finished its epochs
	DurableSec float64 // until every byte of the job was PFS-durable
	// BytesWritten is the job's logical output (epochs × per-node bytes ×
	// nodes) — identical for faulted and clean runs, so slowdowns and
	// fairness compare apples-to-apples. The epochs a recovery rewrites
	// are not counted again.
	BytesWritten int64
	ClientBps    float64 // apparent client-side bandwidth: logical bytes / AppSec
	DrainBps     float64 // achieved write-back bandwidth (0 for direct jobs)

	Burst *burst.Stats // staging-tier accounting; nil for direct jobs
	// Fault is the injected failure's recovery accounting (lost epochs at
	// each durability level, destroyed vs redrained bytes); nil when the
	// job ran without a fault.
	Fault *fault.Report
}

// WithFault returns a copy of specs with job jobIdx carrying failure f —
// the campaign hook that stamps one sampled failure onto a co-schedule
// without mutating the caller's scenario declaration, so a failure
// campaign can reuse one spec set across thousands of draws.
func WithFault(specs []Spec, jobIdx int, f *fault.Spec) []Spec {
	out := make([]Spec, len(specs))
	copy(out, specs)
	if jobIdx >= 0 && jobIdx < len(out) {
		out[jobIdx].Fault = f
	}
	return out
}

// LostNodeHours converts the job's failure report into lost production
// node-hours, given what one simulated epoch stands for in production
// hours and the real reschedule delay in hours: the epochs the restart
// re-executes on each restarting node — including the kill epoch's
// partially computed phase (KillFrac of an epoch), which every restart
// redoes but the whole-epoch Report fields deliberately exclude — plus
// the time those nodes sat in reboot/reschedule. A job that ran clean
// lost nothing. This is the quantity a stochastic failure campaign
// accumulates — expected lost node-hours per run — instead of a single
// kill's epoch count; without the partial-phase term a buffered restart
// (zero whole epochs lost) would look free and the campaign's waste
// curve would reward arbitrarily long checkpoint intervals.
func (r Result) LostNodeHours(epochHours, restartHours float64) float64 {
	if r.Fault == nil {
		return 0
	}
	victims := 1
	if r.Fault.Spec.WholeJob {
		victims = r.Nodes
	}
	lost := float64(r.Fault.Spec.KillEpoch+1-r.Fault.RestartEpoch) + r.Fault.Spec.KillFrac
	if lost < 0 {
		lost = 0
	}
	return float64(victims) * (lost*epochHours + restartHours)
}

// FairShareBps is the bandwidth the fairness index weighs for this job:
// the achieved drain bandwidth for staged jobs, the apparent client
// bandwidth for direct jobs (their "drain" is the write itself).
func (r Result) FairShareBps() float64 {
	if r.Burst != nil {
		return r.DrainBps
	}
	return r.ClientBps
}

// ContentionResult compares the co-scheduled run against isolated runs.
type ContentionResult struct {
	Jobs []Result // co-scheduled measurements, in spec order

	// Slowdown is per-job DurableSec(co-scheduled)/DurableSec(isolated);
	// > 1.0 means measurable cross-job interference.
	Slowdown []float64
	// Jain is Jain's fairness index over the co-scheduled jobs'
	// FairShareBps: 1.0 = perfectly even shares, 1/n = one job has it all.
	Jain float64
}

// MaxSlowdown reports the worst per-job slowdown (0 with no jobs).
func (c *ContentionResult) MaxSlowdown() float64 {
	max := 0.0
	for _, s := range c.Slowdown {
		if s > max {
			max = s
		}
	}
	return max
}

// JainIndex computes Jain's fairness index (Σx)² / (n·Σx²) over the
// allocations: 1.0 when all shares are equal, approaching 1/n as one
// share dominates. Shares are assumed non-negative.
//
// Edge cases are pinned explicitly rather than left to 0/0:
//   - empty input returns 0 — with no allocations there is no fairness
//     to report, and 0 is an impossible value for any real population
//     (the index's range is [1/n, 1]), so it cannot be mistaken for a
//     measurement;
//   - all-zero input returns 1 — every share is equal (everyone is
//     equally starved), which is the index's defined value for equal
//     allocations and what the limit x→0 of equal shares gives.
func JainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

// Contention co-schedules the jobs on machine m, re-runs each job alone,
// and reports slowdowns and fairness.
func Contention(m cluster.Machine, specs []Spec, seed uint64) (*ContentionResult, error) {
	co, err := Run(m, specs, seed)
	if err != nil {
		return nil, err
	}
	res := &ContentionResult{Jobs: co, Slowdown: make([]float64, len(specs))}
	shares := make([]float64, len(specs))
	for i := range specs {
		iso, err := Run(m, specs[i:i+1], seed)
		if err != nil {
			return nil, fmt.Errorf("jobs: isolated %s: %w", specs[i].Name, err)
		}
		if iso[0].DurableSec > 0 {
			res.Slowdown[i] = co[i].DurableSec / iso[0].DurableSec
		}
		shares[i] = co[i].FairShareBps()
	}
	res.Jain = JainIndex(shares)
	return res, nil
}

// Run launches the specs concurrently on one build of machine m and
// returns per-job results in spec order. Each job gets a contiguous node
// allocation and (when its burst spec is enabled) a private staging tier
// over the machine's shared file system.
func Run(m cluster.Machine, specs []Spec, seed uint64) ([]Result, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("jobs: no job specs")
	}
	total := 0
	names := make(map[string]int, len(specs))
	for i, s := range specs {
		if s.Name == "" {
			return nil, fmt.Errorf("jobs: spec %d has no name", i)
		}
		// Job names key the per-job output directory on the shared file
		// system; two jobs sharing a name would silently truncate each
		// other's per-epoch files in /scratch/<name>.
		if j, dup := names[s.Name]; dup {
			return nil, fmt.Errorf("jobs: specs %d and %d both named %q — their output would collide in %s", j, i, s.Name, s.dir())
		}
		names[s.Name] = i
		if s.Nodes < 1 {
			return nil, fmt.Errorf("jobs: job %s needs at least one node", s.Name)
		}
		if s.Workload == nil {
			return nil, fmt.Errorf("jobs: job %s has no workload", s.Name)
		}
		sh := s.Workload.Shape()
		if sh.Epochs < 1 {
			return nil, fmt.Errorf("jobs: job %s needs at least one epoch", s.Name)
		}
		if err := s.Workload.Validate(s.Nodes); err != nil {
			return nil, fmt.Errorf("jobs: job %s: %w", s.Name, err)
		}
		if s.Fault != nil {
			if sh.Coordinated && !s.Fault.WholeJob {
				return nil, fmt.Errorf("jobs: job %s: coordinated workloads restart whole-job only (surviving ranks block in collectives a partial restart cannot re-enter)", s.Name)
			}
			if err := s.Fault.Validate(s.Nodes, sh.Epochs); err != nil {
				return nil, fmt.Errorf("jobs: job %s: %w", s.Name, err)
			}
		}
		total += s.Nodes
	}
	k := m.NewKernel(total)
	sys, err := m.Build(k, total, seed)
	if err != nil {
		return nil, err
	}

	rts := make([]jobRT, len(specs))
	for i := range specs {
		spec := specs[i]
		rt := &rts[i]
		alloc, err := sys.Allocate(spec.Nodes)
		if err != nil {
			return nil, err
		}
		if spec.StripeCount != 0 {
			if err := sys.Lustre.SetStripe(spec.dir(), spec.StripeCount, jobStripeSize); err != nil {
				return nil, fmt.Errorf("jobs: job %s: %w", spec.Name, err)
			}
		}
		if spec.Burst.Enabled() {
			rt.tier = burst.NewTier(k, spec.Burst, sys.FS)
		}
		binding := Binding{K: k, Nodes: spec.Nodes, Dir: spec.dir()}
		rt.shape = spec.Workload.Shape()
		rt.body = spec.Workload.Bind(binding)
		rt.spawn = func(node, from int, mark bool) *sim.Proc {
			client := alloc.Clients[node]
			name := fmt.Sprintf("job.%s.%d", spec.Name, node)
			if from > 0 || !mark {
				name += ".restart"
			}
			return k.Spawn(name, func(p *sim.Proc) {
				runNode(p, sys.FS, spec, node, client, rt, from, mark)
			})
		}
		if spec.Fault != nil {
			rt.ledger = &fault.Ledger{}
			rt.epochFill = make([]int, rt.shape.Epochs)
			// arm fires when the kill epoch's writes are job-wide buffered
			// (every node is then in its compute phase): the injector kills
			// the victims KillFrac into that phase, crashes their buffers,
			// and respawns their writers from the recovery epoch.
			rt.arm = func(p *sim.Proc) {
				f := spec.Fault
				at := p.Now() + sim.Duration(f.KillFrac*float64(rt.shape.ComputeSec))
				var victims []fault.Victim
				var nodes []int
				for n := 0; n < spec.Nodes; n++ {
					if f.WholeJob || n == f.Node {
						victims = append(victims, fault.Victim{Proc: rt.writers[n], Node: alloc.Clients[n].Node})
						nodes = append(nodes, n)
					}
				}
				// The PFS-durable position is the fewest whole epochs any
				// victim that stages bytes has written back; with no such
				// victim, or no tier, every buffered epoch is durable.
				durable := func() int {
					if rt.tier == nil {
						return -1
					}
					eps := -1
					for _, n := range nodes {
						if per := rt.body.StagedBytes(n); per > 0 {
							e := int(rt.tier.NodeStats(alloc.Clients[n].Node).DrainedBytes / per)
							if eps < 0 || e < eps {
								eps = e
							}
						}
					}
					return eps
				}
				rt.inj = fault.ArmWith(k, at, *f, victims, rt.tier, rt.ledger, durable, func(p *sim.Proc, from int) {
					var dead []int
					for _, n := range nodes {
						// Respawn only writers the kill actually reached: a
						// victim that finished before the kill fired (late
						// kill epoch + cross-node skew) has completed its
						// accounting, and re-running it would double-count
						// the job's output.
						if rt.writers[n].Killed() {
							dead = append(dead, n)
						}
					}
					if len(dead) == 0 {
						return
					}
					if rt.shape.Coordinated {
						if len(dead) != spec.Nodes {
							// A subset of a lockstep job cannot restart: the
							// fresh incarnation's collectives would wait for
							// ranks that already exited.
							rt.fail(fmt.Errorf("coordinated restart reached %d of %d writers — place the kill in an epoch every rank is still computing", len(dead), spec.Nodes))
							return
						}
						// Fresh incarnation: collective state must not leak
						// across the restart.
						rt.body = spec.Workload.Bind(binding)
					}
					for _, n := range dead {
						rt.writers[n] = rt.spawn(n, from, false)
					}
				})
			}
		}
		rt.writers = make([]*sim.Proc, spec.Nodes)
		for n := 0; n < spec.Nodes; n++ {
			rt.writers[n] = rt.spawn(n, 0, true)
		}
	}
	k.Run()

	out := make([]Result, len(specs))
	for i, spec := range specs {
		rt := &rts[i]
		if rt.err != nil {
			return nil, fmt.Errorf("jobs: job %s: %w", spec.Name, rt.err)
		}
		r := Result{
			Name:         spec.Name,
			Nodes:        spec.Nodes,
			AppSec:       float64(rt.appEnd),
			DurableSec:   float64(rt.durEnd),
			BytesWritten: rt.written,
		}
		if r.AppSec > 0 {
			r.ClientBps = float64(r.BytesWritten) / r.AppSec
		}
		if rt.tier != nil {
			st := rt.tier.Stats()
			r.Burst = &st
			r.DrainBps = st.DrainBandwidth()
		}
		if rt.inj != nil && rt.inj.Report != nil {
			r.Fault = rt.inj.Report
		}
		out[i] = r
	}
	return out, nil
}

// jobRT accumulates one job's run-time state across its node processes.
// The sim kernel serializes processes, so plain fields are safe.
type jobRT struct {
	tier    *burst.Tier
	shape   Shape       // the workload's sizing contract
	body    EpochWriter // current bound incarnation's epoch body
	spawn   func(node, fromEpoch int, mark bool) *sim.Proc
	writers []*sim.Proc // current writer incarnation per node
	appEnd  sim.Time
	durEnd  sim.Time
	written int64
	err     error

	// Fault-injection state (nil/unused when the spec carries no fault).
	ledger    *fault.Ledger
	epochFill []int             // writers that buffered each epoch so far
	arm       func(p *sim.Proc) // schedules the injector at the kill epoch
	armed     bool
	inj       *fault.Injector
}

// markEpoch records a node's epoch completion; when the whole job has the
// epoch buffered it lands a ledger mark, and at the kill epoch arms the
// injector. Restarted writers re-execute epochs already marked, so they
// skip this.
func (rt *jobRT) markEpoch(p *sim.Proc, spec Spec, e int) {
	if rt.ledger == nil {
		return
	}
	rt.epochFill[e]++
	if rt.epochFill[e] < spec.Nodes {
		return
	}
	rt.ledger.Mark(p.Now())
	if !rt.armed && e == spec.Fault.KillEpoch {
		rt.armed = true
		rt.arm(p)
	}
}

// runNode is one node's writer process: per epoch, the workload body's
// writes (unique per-epoch paths, so nothing truncate-cancels pending
// write-back), an epoch-close drain nudge, then the compute phase. It
// records the job's app end (last write returned) and durable end (every
// staged byte written back) high-water marks on the shared jobRT.
//
// A restarted incarnation (mark false) re-runs the epochs lost to a
// fault: it rewrites the same per-epoch paths — the tier's truncate
// semantics discard any stale staged copy — but skips the epoch ledger,
// which froze at the kill. Checkpoint e captures the state entering
// epoch e, so a restart from checkpoint startEpoch-1 must first redo
// that epoch's compute phase before it can write checkpoint startEpoch;
// only a from-scratch restart (startEpoch 0, initial state) skips it.
func runNode(p *sim.Proc, direct pfs.FileSystem, spec Spec, node int, client *pfs.Client, rt *jobRT, startEpoch int, mark bool) {
	fsx := direct
	if rt.tier != nil {
		fsx = rt.tier.FS()
	}
	env := &posix.Env{FS: fsx, Client: client}
	sh := rt.shape
	if !mark && startEpoch > 0 && sh.ComputeSec > 0 {
		p.Sleep(sh.ComputeSec)
	}
	for e := startEpoch; e < sh.Epochs; e++ {
		if err := rt.body.WriteEpoch(p, env, node, e); err != nil {
			rt.fail(err)
			return
		}
		if rt.tier != nil {
			rt.tier.DrainEpoch(p)
		}
		if mark {
			rt.markEpoch(p, spec, e)
		}
		if sh.ComputeSec > 0 {
			p.Sleep(sh.ComputeSec)
		}
	}
	rt.written += int64(sh.Epochs) * sh.BytesPerNode
	if now := p.Now(); now > rt.appEnd {
		rt.appEnd = now
	}
	if rt.tier != nil {
		rt.tier.WaitDrained(p)
	}
	if now := p.Now(); now > rt.durEnd {
		rt.durEnd = now
	}
}

func (rt *jobRT) fail(err error) {
	if rt.err == nil {
		rt.err = err
	}
}

// writeFile creates path and writes n volume-mode bytes through it, as
// one call or as sequential chunks of chunk bytes (chunk <= 0: one call).
func writeFile(p *sim.Proc, env *posix.Env, path string, n, chunk int64) error {
	var fd posix.FD
	if err := env.OpenFD(&fd, p, path, posix.Truncate); err != nil {
		return err
	}
	if chunk <= 0 {
		chunk = n
	}
	for left := n; left > 0; left -= chunk {
		fd.Write(p, min(chunk, left), nil)
	}
	fd.Close(p)
	return nil
}
