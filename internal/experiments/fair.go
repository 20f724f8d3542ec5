package experiments

import (
	"fmt"
	"strings"

	"picmcio/internal/cluster"
	"picmcio/internal/fault"
	"picmcio/internal/sched"
	"picmcio/internal/sweep"
	"picmcio/internal/xrand"
)

// fairWeights skews the offered load across the figsched tenant
// population: one hog tenant at 6× the base rate, two heavy ones, and
// five at baseline. Under FCFS or EASY the hog simply buys more of the
// machine; fair-share is what pushes delivered usage back toward equal
// shares.
var fairWeights = []float64{6, 3, 2, 1, 1, 1, 1, 1}

// fairLoad oversubscribes the partition so the queue is persistently
// contended — share enforcement is a no-op on an idle machine.
const fairLoad = 1.2

// fairPolicies is the policy axis of the fairness campaign.
var fairPolicies = []string{"fcfs", "easy-backfill", "fair-share"}

// fairFailureMTBF maps the failure axis to a per-node MTBF in hours:
// "none" disables the failure process, "moderate" lands a handful of
// node losses inside the campaign window on the 64-node partition.
var fairFailureMTBF = map[string]float64{"none": 0, "moderate": 1500}

// fairFailureLevels orders the failure axis.
var fairFailureLevels = []string{"none", "moderate"}

// FairPoint is one (failures × policy) cell of the fairness campaign.
type FairPoint struct {
	Failures  string
	Policy    string
	Jobs      int
	MeanWaitH float64
	Util      float64
	// UsageJain is time-weighted Jain fairness over the tenants' decayed
	// delivered usage during contended intervals (1 = equal shares).
	UsageJain float64
	// ShareErr is the time-weighted mean |share − 1/n| over the same
	// intervals.
	ShareErr     float64
	Preemptions  int
	FailureKills int
	LostNH       float64
	DownNH       float64
	Tenants      []sched.TenantShare
}

// FigFair runs the fairness-under-failures campaign: one skewed
// multi-tenant stream on a contended Dardel partition, replayed under
// every policy with preemptive checkpoint-and-requeue enabled, with and
// without in-queue node failures. The axis the figure exists to show is
// delivered-usage fairness: FCFS and EASY let the hog tenant's
// submission rate buy a matching share of the machine, while fair-share
// holds delivered usage near equal shares at (acceptance-gated) nearly
// EASY's utilization — and keeps doing so when nodes start dying.
func (o Options) FigFair() (sweep.Table, error) {
	o = o.WithDefaults()
	m := cluster.Dardel()
	pr := sched.NewPricer(m, o.Seed, campaignEpochHours)
	s := sched.Synth{Tenants: schedTenants, Users: schedUsers, TenantWeights: fairWeights}
	mean, err := sched.SubmitMeanForLoad(pr, m, s, fairLoad, schedPartitionNodes)
	if err != nil {
		return sweep.Table{}, fmt.Errorf("figfair calibrate: %w", err)
	}
	s.SubmitMeanHours = mean
	// Weighted tenants submit like weight× their user count, so the
	// expected-job window divides by the weighted population.
	wsum := 0.0
	for _, w := range fairWeights {
		wsum += w
	}
	s.SpanHours = float64(o.SchedJobs) * mean / (wsum * float64(schedUsers))
	// One stream for the whole campaign: the failure axis lives in the
	// scheduler config (fault arrivals are drawn from the run seed, not
	// the trace), so every cell replays the identical submission log.
	s.Seed = xrand.SeedAt(o.Seed, 0x66616972)
	stream, err := sched.Synthesize(m, s)
	if err != nil {
		return sweep.Table{}, fmt.Errorf("figfair synthesize: %w", err)
	}
	if err := pr.Prewarm(stream, o.Parallel); err != nil {
		return sweep.Table{}, fmt.Errorf("figfair prewarm: %w", err)
	}
	g := sweep.Grid{
		sweep.Strings("failures", fairFailureLevels),
		sweep.Strings("policy", fairPolicies),
	}
	title := fmt.Sprintf("Fig F: fair-share under preemption and node failures on a %d-node partition (weights %v, load %g, ~%d jobs)",
		schedPartitionNodes, fairWeights, fairLoad, o.SchedJobs)
	return sweep.Run(g, o.sweepOptions(title),
		func(c sweep.Config) (sweep.Point, error) {
			pol, err := sched.Policies(c.Str("policy"))
			if err != nil {
				return sweep.Point{}, err
			}
			cfg := sched.Config{
				Machine:    m,
				Nodes:      schedPartitionNodes,
				EpochHours: campaignEpochHours,
				Seed:       o.Seed,
				Pricer:     pr,
				Preempt:    sched.PreemptConfig{MaxHeadWaitHours: 8, CheckpointHours: 0.5},
			}
			if mtbf := fairFailureMTBF[c.Str("failures")]; mtbf > 0 {
				cfg.Faults = sched.FaultConfig{
					MTBFNodeHours:        mtbf,
					RepairHours:          12,
					RestartOverheadHours: 0.5,
					Survival:             fault.SurviveNVMe,
				}
			}
			res, err := sched.Run(cfg, pol, stream)
			if err != nil {
				return sweep.Point{}, fmt.Errorf("figfair %s/%s: %w", c.Str("failures"), c.Str("policy"), err)
			}
			pt := FairPoint{
				Failures:     c.Str("failures"),
				Policy:       res.Policy,
				Jobs:         len(res.Jobs),
				MeanWaitH:    res.MeanWaitHours(),
				Util:         res.Utilization(),
				UsageJain:    res.UsageJain,
				ShareErr:     res.ShareErr,
				Preemptions:  res.Preemptions,
				FailureKills: res.FailureKills,
				LostNH:       res.LostNodeHours,
				DownNH:       res.DownNodeHours,
				Tenants:      res.TenantShares,
			}
			return sweep.Point{
				Values: []sweep.Value{
					sweep.V("jobs", float64(pt.Jobs)),
					sweep.V("mean_wait_h", pt.MeanWaitH),
					sweep.V("util", pt.Util),
					sweep.V("usage_jain", pt.UsageJain),
					sweep.V("share_err", pt.ShareErr),
					sweep.V("preemptions", float64(pt.Preemptions)),
					sweep.V("fail_kills", float64(pt.FailureKills)),
					sweep.V("lost_nh", pt.LostNH),
					sweep.V("down_nh", pt.DownNH),
				},
				Extra: pt,
			}, nil
		})
}

// renderFair builds the artifact text: the sweep table plus per-failure
// comparison lines for the delta the campaign exists to show — how much
// usage fairness each policy buys and what it costs in utilization.
func renderFair(t sweep.Table) string {
	var b strings.Builder
	b.WriteString(t.Render())
	byCell := map[string]map[string]FairPoint{}
	var order []string
	for _, p := range t.Points {
		pt, ok := p.Extra.(FairPoint)
		if !ok {
			continue
		}
		if byCell[pt.Failures] == nil {
			byCell[pt.Failures] = map[string]FairPoint{}
			order = append(order, pt.Failures)
		}
		byCell[pt.Failures][pt.Policy] = pt
	}
	for _, fl := range order {
		cell := byCell[fl]
		e, okE := cell["easy-backfill"]
		fs, okF := cell["fair-share"]
		if !okE || !okF {
			continue
		}
		fmt.Fprintf(&b, "failures %-8s: usage Jain fcfs %.3f, easy %.3f -> fair-share %.3f; util %.3f -> %.3f; %d preemptions, %d kills, %.0f node-h lost\n",
			fl, cell["fcfs"].UsageJain, e.UsageJain, fs.UsageJain, e.Util, fs.Util,
			fs.Preemptions, fs.FailureKills, fs.LostNH)
	}
	b.WriteString("\n")
	return b.String()
}
