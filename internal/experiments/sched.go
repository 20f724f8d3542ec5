package experiments

import (
	"fmt"
	"strings"

	"picmcio/internal/cluster"
	"picmcio/internal/sched"
	"picmcio/internal/sweep"
	"picmcio/internal/xrand"
)

// schedPartitionNodes is the schedulable partition figsched runs on: big
// enough that the wide class (16 nodes) leaves room to backfill around,
// small enough that the offered load saturates it with a few hundred
// jobs.
const schedPartitionNodes = 64

// schedTenants and schedUsers shape the submitting population: 8
// tenants give the Jain fairness reading an N ≫ 2 denominator, 4 users
// each keep per-tenant arrival streams bursty rather than smooth.
const (
	schedTenants = 8
	schedUsers   = 4
)

// schedLoads are the offered-load factors swept (fraction of the
// partition's node-hour capacity): below saturation, at it, and over it
// — backfill only has room to matter once a queue forms.
var schedLoads = []float64{0.7, 1.0, 1.3}

// schedPolicies is the policy axis, resolved via sched.Policies.
var schedPolicies = []string{"fcfs", "easy-backfill"}

// schedMachines returns the presets figsched schedules on.
func schedMachines() []cluster.Machine {
	return []cluster.Machine{cluster.Dardel(), cluster.Vega()}
}

// SchedPoint is one (machine × load × policy) cell of the scheduling
// campaign.
type SchedPoint struct {
	Machine   string
	Load      float64
	Policy    string
	Jobs      int
	MeanWaitH float64
	P95WaitH  float64
	Util      float64
	// Jain is per-tenant fairness over mean bounded slowdowns (1 = every
	// tenant got the same queue treatment), at schedTenants tenants.
	Jain        float64
	Backfills   int
	MakespanH   float64
	MeanStretch float64 // mean contention stretch of the admitted jobs
	Tenants     []sched.GroupStats
	Classes     []sched.GroupStats
}

// schedCell is one pre-synthesized (machine, load) workload: the exact
// job stream every policy of that cell replays. Streams and prices are
// built before the sweep so the policy axis cannot perturb them — the
// comparison is between schedules of identical traces, and the pricer
// cache is warmed up front so parallel trials only read it.
type schedCell struct {
	machine cluster.Machine
	pricer  *sched.Pricer
	stream  []sched.Job
}

// FigSched runs the batch-scheduling campaign: synthetic multi-tenant
// job streams on a machine partition, each replayed under every
// scheduling policy, reporting queue waits, utilization, backfill
// counts, and per-tenant fairness (ROADMAP: datacenter-scale co-job
// scheduling over the co-schedule substrate).
func (o Options) FigSched() (sweep.Table, error) {
	o = o.WithDefaults()
	machines := schedMachines()
	names := make([]string, len(machines))
	cells := map[[2]int]*schedCell{}
	for mi, m := range machines {
		names[mi] = strings.ToLower(m.Name)
		pr := sched.NewPricer(m, o.Seed, campaignEpochHours)
		for li, load := range schedLoads {
			s := sched.Synth{Tenants: schedTenants, Users: schedUsers}
			mean, err := sched.SubmitMeanForLoad(pr, m, s, load, schedPartitionNodes)
			if err != nil {
				return sweep.Table{}, fmt.Errorf("figsched calibrate %s load %g: %w", m.Name, load, err)
			}
			s.SubmitMeanHours = mean
			// Span the window so the cell expects SchedJobs submissions:
			// expected jobs = users × span / mean.
			s.SpanHours = float64(o.SchedJobs) * mean / float64(schedTenants*schedUsers)
			// The trace seed covers machine and load but NOT policy — every
			// policy must face the identical stream, or the comparison is
			// between workloads rather than schedules.
			s.Seed = xrand.SeedAt(o.Seed, uint64(mi*len(schedLoads)+li))
			stream, err := sched.Synthesize(m, s)
			if err != nil {
				return sweep.Table{}, fmt.Errorf("figsched synthesize %s load %g: %w", m.Name, load, err)
			}
			// Pre-price every distinct shape on the sweep worker pool: the
			// parallel policy trials below then only read the cache, and the
			// wall-clock cost of the probe simulations amortizes across the
			// load axis (shapes repeat between loads on the same machine).
			// Prewarm's cache is byte-identical to lazy serial pricing, so
			// the rendered artifact is unchanged.
			if err := pr.Prewarm(stream, o.Parallel); err != nil {
				return sweep.Table{}, fmt.Errorf("figsched prewarm %s load %g: %w", m.Name, load, err)
			}
			cells[[2]int{mi, li}] = &schedCell{machine: m, pricer: pr, stream: stream}
		}
	}
	g := sweep.Grid{
		sweep.Strings("machine", names),
		sweep.Floats("load", schedLoads),
		sweep.Strings("policy", schedPolicies),
	}
	title := fmt.Sprintf("Fig S: batch scheduling on a %d-node partition (%d tenants × %d users, ~%d jobs/cell, %g h/epoch)",
		schedPartitionNodes, schedTenants, schedUsers, o.SchedJobs, campaignEpochHours)
	return sweep.Run(g, o.sweepOptions(title),
		func(c sweep.Config) (sweep.Point, error) {
			cell := cells[[2]int{c.Ordinal("machine"), c.Ordinal("load")}]
			pol, err := sched.Policies(c.Str("policy"))
			if err != nil {
				return sweep.Point{}, err
			}
			res, err := sched.Run(sched.Config{
				Machine:    cell.machine,
				Nodes:      schedPartitionNodes,
				EpochHours: campaignEpochHours,
				Seed:       o.Seed,
				Pricer:     cell.pricer,
			}, pol, cell.stream)
			if err != nil {
				return sweep.Point{}, fmt.Errorf("figsched %s: %w", c.Str("policy"), err)
			}
			pt := SchedPoint{
				Machine:   cell.machine.Name,
				Load:      c.Float("load"),
				Policy:    res.Policy,
				Jobs:      len(res.Jobs),
				MeanWaitH: res.MeanWaitHours(),
				P95WaitH:  res.WaitQuantile(0.95),
				Util:      res.Utilization(),
				Jain:      res.JainTenants(),
				Backfills: res.Backfills,
				MakespanH: res.Makespan,
				Tenants:   res.TenantStats(),
				Classes:   res.ClassStats(),
			}
			for _, j := range res.Jobs {
				pt.MeanStretch += j.StretchX
			}
			if pt.Jobs > 0 {
				pt.MeanStretch /= float64(pt.Jobs)
			}
			return sweep.Point{
				Values: []sweep.Value{
					sweep.V("jobs", float64(pt.Jobs)),
					sweep.V("mean_wait_h", pt.MeanWaitH),
					sweep.V("p95_wait_h", pt.P95WaitH),
					sweep.V("util", pt.Util),
					sweep.V("jain_tenants", pt.Jain),
					sweep.V("backfills", float64(pt.Backfills)),
					sweep.V("makespan_h", pt.MakespanH),
					sweep.V("mean_stretch_x", pt.MeanStretch),
				},
				Extra: pt,
			}, nil
		})
}

// renderSched builds the artifact text: the sweep table plus the
// per-cell FCFS→EASY deltas the campaign exists to show.
func renderSched(t sweep.Table) string {
	var b strings.Builder
	b.WriteString(t.Render())
	// Pair up policies per (machine, load) in table order.
	type key struct {
		machine string
		load    float64
	}
	byCell := map[key]map[string]SchedPoint{}
	var order []key
	for _, p := range t.Points {
		pt, ok := p.Extra.(SchedPoint)
		if !ok {
			continue
		}
		k := key{pt.Machine, pt.Load}
		if byCell[k] == nil {
			byCell[k] = map[string]SchedPoint{}
			order = append(order, k)
		}
		byCell[k][pt.Policy] = pt
	}
	for _, k := range order {
		f, okF := byCell[k]["fcfs"]
		e, okE := byCell[k]["easy-backfill"]
		if !okF || !okE {
			continue
		}
		delta := 0.0
		if f.MeanWaitH > 0 {
			delta = 100 * (1 - e.MeanWaitH/f.MeanWaitH)
		}
		fmt.Fprintf(&b, "%-10s load %.1f: mean wait %7.1fh -> %7.1fh (-%5.1f%%), util %.3f -> %.3f, Jain(%d tenants) %.3f -> %.3f, %d backfills\n",
			k.machine, k.load, f.MeanWaitH, e.MeanWaitH, delta, f.Util, e.Util,
			len(e.Tenants), f.Jain, e.Jain, e.Backfills)
	}
	b.WriteString("\n")
	return b.String()
}
