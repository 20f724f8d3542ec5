package experiments

import (
	"fmt"
	"math"
	"strings"

	"picmcio/internal/ckptopt"
	"picmcio/internal/cluster"
	"picmcio/internal/fault"
	"picmcio/internal/jobs"
	"picmcio/internal/sim"
	"picmcio/internal/sweep"
	"picmcio/internal/units"
	"picmcio/internal/xrand"
)

// IntervalScales is the epoch-length axis of the interval artifacts:
// multiples of the analytically optimal interval, bracketing it from a
// quarter to four times so both the overhead-dominated (short) and the
// exposure-dominated (long) flanks of the waste curve are on the grid.
var IntervalScales = []float64{0.25, 0.5, 1, 2, 4}

// IntervalDurabilities is the durability axis: the two-level buffered
// cadence through the staging tier vs synchronous PFS-durable saves.
var IntervalDurabilities = []string{"buffered", "pfs"}

// intervalMachines are the presets with a staging tier — the machines
// whose buffered/PFS cost split the optimizer exists to price.
func intervalMachines() []cluster.Machine {
	var ms []cluster.Machine
	for _, m := range cluster.Machines() {
		if m.Burst.Enabled() {
			ms = append(ms, m)
		}
	}
	return ms
}

// intervalProbeNodes is the probe and campaign job scale.
const intervalProbeNodes = 2

// intervalPlan measures machine m's checkpoint costs under the drain
// policy its burst spec carries and prices them into a plan at m's MTBF.
func intervalPlan(m cluster.Machine, seed uint64) (ckptopt.Plan, error) {
	costs, err := jobs.MeasureCheckpointCosts(m, checkpointWriter(), intervalProbeNodes, seed)
	if err != nil {
		return ckptopt.Plan{}, err
	}
	return ckptopt.Optimize(costs)
}

// IntervalCell is one point of the waste-vs-epoch-length figure.
type IntervalCell struct {
	Machine    string
	Policy     string
	Durability string
	Scale      float64 // interval as a multiple of the level's optimum

	IntervalSec float64
	WasteFrac   float64
	Level       ckptopt.Level
	Plan        ckptopt.Plan
}

// FigIntervalSweep is the checkpoint-interval figure as a grid
// declaration: machine × drain policy × durability level × interval
// scale. Costs are measured once per (machine, policy) by probe runs
// through the staging tier — the immutable map the pure trials read —
// and each cell evaluates the exact expected-waste model at a multiple
// of that level's numerically optimal interval, so the analytic optimum
// is marked on the grid at scale 1 with the Young/Daly closed forms
// alongside.
func (o Options) FigIntervalSweep() (sweep.Table, error) {
	o = o.WithDefaults()
	machines := intervalMachines()
	if len(machines) == 0 {
		return sweep.Table{}, fmt.Errorf("figinterval: no machine preset carries a staging tier")
	}
	type planKey struct {
		machine, policy string
	}
	mAxis := sweep.Axis{Name: "machine"}
	plans := map[planKey]ckptopt.Plan{}
	for _, m := range machines {
		mAxis.Values = append(mAxis.Values, m.Name)
		for _, pol := range FaultDrainPolicies {
			mp := o.campaignMachine(m)
			mp.Burst.Policy = pol
			p, err := intervalPlan(mp, o.Seed)
			if err != nil {
				return sweep.Table{}, fmt.Errorf("figinterval %s/%s: %w", m.Name, pol, err)
			}
			plans[planKey{m.Name, pol.String()}] = p
		}
	}
	g := sweep.Grid{
		mAxis,
		settingsAxis("policy", FaultDrainPolicies),
		sweep.Strings("durability", IntervalDurabilities),
		sweep.Floats("interval_x", IntervalScales),
	}
	title := "Fig I: expected checkpoint waste vs epoch length (measured costs; analytic optimum at interval_x=1)"
	return sweep.Run(g, o.sweepOptions(title),
		func(c sweep.Config) (sweep.Point, error) {
			cell := IntervalCell{
				Machine:    c.Str("machine"),
				Policy:     c.Value("policy").(fmt.Stringer).String(),
				Durability: c.Str("durability"),
				Scale:      c.Float("interval_x"),
			}
			cell.Plan = plans[planKey{cell.Machine, cell.Policy}]
			switch cell.Durability {
			case "buffered":
				if cell.Plan.Buffered == nil {
					return sweep.Point{}, fmt.Errorf("figinterval: %s has no buffered level", cell.Machine)
				}
				cell.Level = *cell.Plan.Buffered
			case "pfs":
				cell.Level = cell.Plan.PFS
			default:
				return sweep.Point{}, fmt.Errorf("figinterval: unknown durability %q", cell.Durability)
			}
			cell.IntervalSec = cell.Scale * cell.Level.NumericSec
			cell.WasteFrac = cell.Level.Waste(cell.IntervalSec)
			atOpt := 0.0
			if cell.Scale == 1 {
				atOpt = 1
			}
			vs := []sweep.Value{
				sweep.V("interval_s", cell.IntervalSec),
				sweep.V("waste_pct", 100*cell.WasteFrac),
				sweep.V("young_s", cell.Level.YoungSec),
				sweep.V("daly_s", cell.Level.DalySec),
				sweep.V("numeric_s", cell.Level.NumericSec),
				sweep.V("at_opt", atOpt),
			}
			if cell.Durability == "buffered" {
				// 0 when the NVMe never survives: no buffered cadence alone
				// protects anything (the weighted optimum diverges).
				vs = append(vs, sweep.V("young_surv_s", cell.Plan.SurvivalYoungSec))
			}
			return sweep.Point{Values: vs, Extra: cell}, nil
		})
}

// renderInterval builds the artifact's text block: the waste grid plus
// one summary line per (machine, policy) with the recommended level and
// the closed-form vs numeric agreement the optimizer is cross-checked
// on.
func renderInterval(t sweep.Table) string {
	var b strings.Builder
	b.WriteString(t.Render())
	type key struct{ machine, policy string }
	seen := map[key]bool{}
	for _, p := range t.Points {
		cell := p.Extra.(IntervalCell)
		k := key{cell.Machine, cell.Policy}
		if seen[k] || cell.Scale != 1 || cell.Durability != "buffered" {
			continue
		}
		seen[k] = true
		rec := cell.Plan.Recommended()
		agree := 0.0
		if rec.NumericSec > 0 {
			agree = 100 * math.Abs(rec.NumericSec-rec.DalySec) / rec.NumericSec
		}
		fmt.Fprintf(&b, "%s %s: recommend %s every %s (Young %s, Daly %s, numeric-Daly gap %.2f%%, waste %.4f%%)\n",
			cell.Machine, cell.Policy, rec.Name,
			units.Seconds(rec.NumericSec), units.Seconds(rec.YoungSec), units.Seconds(rec.DalySec),
			agree, 100*rec.WasteAtOpt)
	}
	b.WriteByte('\n')
	return b.String()
}

// optimalTargetFailures sizes the campopt campaign's draw count: well
// above the plain campaign's target because the verdict compares cells
// against each other rather than just ordering them, and the flanking
// baselines sit only ~25% above the optimum's waste — draws are cheap
// (only failing draws simulate), so buy the margin.
const optimalTargetFailures = 96

// OptimalCell is one (machine × interval) cell of the validation
// campaign.
type OptimalCell struct {
	Machine   string
	Scale     float64 // interval as a multiple of the recommendation
	IntervalH float64 // the interval in production hours

	Runs        int
	Failures    int
	OverheadNH  float64 // deterministic checkpoint overhead, node-hours/run
	MeanLossNH  float64 // mean lost node-hours per failure
	WastePerKNH float64 // total waste per 1000 useful node-hours
}

// CampaignOptimum is the campopt artifact, the failure campaign's
// empirical validation that the ckptopt recommendation is worth
// following. Per staging-tier preset it measures checkpoint costs,
// prices the recommended interval, and then runs the stochastic MTBF
// campaign at that interval and at fixed baselines bracketing it
// (IntervalScales), with the simulated epoch compute phase set to the
// candidate interval itself — the simulation runs in real seconds, so
// measured save costs, drain lag and reschedule delays need no
// unit-mapping. Each cell's expected waste combines the deterministic
// checkpoint overhead of the clean run with the Monte-Carlo lost
// node-hours of sampled failures, normalized per 1000 useful node-hours
// so cells with different intervals (and so different run spans) are
// comparable.
//
// Draws use common random numbers: run r of machine m draws from the
// same derived seed in every interval cell, so the failure sets are
// nested across cells and the waste comparison is driven by the
// interval, not by sampling noise. The verdict the artifact prints —
// and TestCampaignOptimalValidates enforces — is that the recommended
// interval's waste is no worse than every fixed baseline on both
// presets.
func (o Options) CampaignOptimum() (sweep.Table, error) {
	o = o.WithDefaults()
	machines := intervalMachines()
	mAxis := sweep.Axis{Name: "machine"}
	type mstate struct {
		m    cluster.Machine
		plan ckptopt.Plan
		runs int
		seed uint64
	}
	states := map[string]*mstate{}
	for mi, m := range machines {
		m = o.campaignMachine(m)
		mAxis.Values = append(mAxis.Values, m.Name)
		plan, err := intervalPlan(m, o.Seed)
		if err != nil {
			return sweep.Table{}, fmt.Errorf("campopt %s: %w", m.Name, err)
		}
		st := &mstate{m: m, plan: plan, seed: xrand.SeedAt(o.Seed, uint64(1000+mi))}
		tau := plan.IntervalSec()
		wl := checkpointWriter()
		span := float64(wl.Epochs) * (tau + plan.Recommended().SaveSec)
		lambda := fault.ExpectedFailures(m.MTBFNodeHours, intervalProbeNodes, sim.Duration(span))
		st.runs = campaignDraws(o.CampaignRuns, optimalTargetFailures, lambda)
		states[m.Name] = st
	}
	g := sweep.Grid{mAxis, sweep.Floats("interval_x", IntervalScales)}
	title := fmt.Sprintf("Campaign O: empirical waste at the ckptopt interval vs fixed baselines (%d-epoch runs, interval_x=1 is the recommendation)",
		checkpointWriter().Epochs)
	return sweep.Run(g, o.sweepOptions(title),
		func(c sweep.Config) (sweep.Point, error) {
			st := states[c.Str("machine")]
			scale := c.Float("interval_x")
			tau := scale * st.plan.IntervalSec()
			wl := checkpointWriter()
			wl.ComputeSec = sim.Duration(tau)
			spec := jobs.Spec{Name: "victim", Nodes: intervalProbeNodes, Burst: st.m.Burst, Workload: wl, StripeCount: -1}
			clean, err := jobs.Run(st.m, []jobs.Spec{spec}, o.Seed)
			if err != nil {
				return sweep.Point{}, fmt.Errorf("campopt clean: %w", err)
			}
			overheadSec := clean[0].AppSec - tau*float64(wl.Epochs)
			if !(overheadSec > 0) {
				return sweep.Point{}, fmt.Errorf("campopt: non-positive overhead %v", overheadSec)
			}
			cell := OptimalCell{
				Machine:    st.m.Name,
				Scale:      scale,
				IntervalH:  tau / 3600,
				Runs:       st.runs,
				OverheadNH: overheadSec / 3600 * float64(spec.Nodes),
			}
			tauH := tau / 3600
			restartH := st.m.NodeRestartSec / 3600
			var lossNH float64
			err = failureLoop{
				m: st.m, specs: []jobs.Spec{spec}, seed: o.Seed, runs: st.runs,
				// Common random numbers: the seed depends on the machine and
				// the run index only, never on the interval cell.
				rng:    func(run int) *xrand.RNG { return xrand.New(xrand.SeedAt(st.seed, uint64(run))) },
				spanH:  clean[0].AppSec / 3600,
				cycleH: (tau + overheadSec/float64(wl.Epochs)) / 3600,
				// Checkpointing here is coordinated (the whole job writes and
				// rolls back together, as an MPI application does), so any
				// node's failure restarts every node — the setting whose
				// job-level MTBF the plan prices.
				kill: fault.Spec{WholeJob: true, Survival: st.m.NVMeSurvival, RestartDelay: sim.Duration(st.m.NodeRestartSec)},
			}.each(func(victim jobs.Result) {
				cell.Failures++
				lossNH += victim.LostNodeHours(tauH, restartH)
			})
			if err != nil {
				return sweep.Point{}, fmt.Errorf("campopt %w", err)
			}
			if cell.Failures > 0 {
				cell.MeanLossNH = lossNH / float64(cell.Failures)
			}
			usefulNH := float64(wl.Epochs) * tauH * float64(spec.Nodes)
			cell.WastePerKNH = (cell.OverheadNH + lossNH/float64(cell.Runs)) / usefulNH * 1000
			return sweep.Point{
				Values: []sweep.Value{
					sweep.V("interval_h", cell.IntervalH),
					sweep.V("runs", float64(cell.Runs)),
					sweep.V("failures", float64(cell.Failures)),
					sweep.V("overhead_nh", cell.OverheadNH),
					sweep.V("mean_loss_nh", cell.MeanLossNH),
					sweep.V("waste_nh_per_knh", cell.WastePerKNH),
				},
				Extra: cell,
			}, nil
		})
}

// OptimalVerdicts extracts the per-machine validation verdicts from a
// CampaignOptimum table: whether the recommended interval's empirical
// waste is no worse than every fixed baseline.
func OptimalVerdicts(t sweep.Table) map[string]bool {
	atRec := map[string]float64{}
	for _, p := range t.Points {
		cell := p.Extra.(OptimalCell)
		if cell.Scale == 1 {
			atRec[cell.Machine] = cell.WastePerKNH
		}
	}
	out := map[string]bool{}
	for _, p := range t.Points {
		cell := p.Extra.(OptimalCell)
		if _, ok := out[cell.Machine]; !ok {
			out[cell.Machine] = true
		}
		if cell.Scale != 1 && cell.WastePerKNH < atRec[cell.Machine]*(1-1e-9) {
			out[cell.Machine] = false
		}
	}
	return out
}

// renderOptimal builds the campopt artifact text: the waste grid plus
// a per-machine verdict line comparing the recommendation against the
// best fixed baseline.
func renderOptimal(t sweep.Table) string {
	var b strings.Builder
	b.WriteString(t.Render())
	verdicts := OptimalVerdicts(t)
	type best struct {
		waste float64
		atRec float64
		tauH  float64
	}
	bests := map[string]*best{}
	var order []string
	for _, p := range t.Points {
		cell := p.Extra.(OptimalCell)
		bst, ok := bests[cell.Machine]
		if !ok {
			bst = &best{waste: math.Inf(1)}
			bests[cell.Machine] = bst
			order = append(order, cell.Machine)
		}
		if cell.Scale == 1 {
			bst.atRec = cell.WastePerKNH
			bst.tauH = cell.IntervalH
		} else if cell.WastePerKNH < bst.waste {
			bst.waste = cell.WastePerKNH
		}
	}
	for _, m := range order {
		bst := bests[m]
		mark := "✔ recommendation validated"
		if !verdicts[m] {
			mark = "✘ a fixed baseline beat the recommendation"
		}
		fmt.Fprintf(&b, "%s: ckptopt interval %.3g h wastes %.3f nh/knh vs best fixed baseline %.3f — %s\n",
			m, bst.tauH, bst.atRec, bst.waste, mark)
	}
	b.WriteByte('\n')
	return b.String()
}
