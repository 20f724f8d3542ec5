package experiments

import (
	"fmt"
	"strings"

	"picmcio/internal/burst"
	"picmcio/internal/cluster"
	"picmcio/internal/fault"
	"picmcio/internal/jobs"
	"picmcio/internal/sim"
	"picmcio/internal/sweep"
	"picmcio/internal/xrand"
)

// campaignTargetFailures is what the auto-sized draw count aims for: at
// the preset MTBF a run almost never fails, so the campaign draws enough
// runs that each cell expects roughly this many failures to measure.
const campaignTargetFailures = 12

// campaignMaxRuns caps the auto-sized draw count: a draw is a couple of
// exponential samples, so even the cap is cheap. (Per-draw work is
// bounded separately by fault.Arrivals' own truncation.)
const campaignMaxRuns = 200_000

// campaignDraws is a campaign's Monte-Carlo draw count: runs when it is
// set, otherwise enough draws that a cell expects about target failures
// at lambda expected failures per draw, capped at campaignMaxRuns. The
// comparison is in float space: a huge MTBF makes the needed draw count
// overflow int, and a wrapped-negative count would silently empty the
// campaign.
func campaignDraws(runs int, target, lambda float64) int {
	if runs > 0 {
		return runs
	}
	if need := target / lambda; lambda > 0 && need+1 < campaignMaxRuns {
		return int(need) + 1
	}
	return campaignMaxRuns
}

// killPoint maps a failure arriving t after a run's start onto the
// (epoch, fraction) a fault.Spec kills at, each epoch cycle long: an
// arrival past the last epoch lands in it, and the fraction stays below 1.
func killPoint(t, cycle float64, epochs int) (int, float64) {
	epoch := int(t / cycle)
	if epoch >= epochs {
		epoch = epochs - 1
	}
	frac := t/cycle - float64(epoch)
	if frac >= 1 {
		frac = 0.999999
	}
	return epoch, frac
}

// failureLoop is the Monte-Carlo loop both failure campaigns share.
// Each of runs draws failure arrivals over the victim's (job 0's) nodes
// and spanH hours from rng(run) at the machine's per-node MTBF; a run
// with no arrival inside the span is skipped. Otherwise its first
// arrival kills the victim at its killPoint in cycleH-hour epochs under
// kill, on a victim node drawn next from the same stream unless kill
// takes the whole job. First-failure truncation: λ ≪ 1 per run, so the
// chance of a second failure inside one run's span is negligible and
// the recovery dynamics of a single kill are what the campaigns price.
type failureLoop struct {
	m      cluster.Machine
	specs  []jobs.Spec
	seed   uint64 // every simulated run's seed
	runs   int
	rng    func(run int) *xrand.RNG
	spanH  float64
	cycleH float64
	kill   fault.Spec // scope, survival and restart delay of every kill
}

// each runs the loop, handing the victim's result of every run whose
// kill fired to failed. A run whose victim finished before its kill (a
// kill in the last epoch's tail) lost nothing and is skipped.
func (l failureLoop) each(failed func(victim jobs.Result)) error {
	victim := l.specs[0]
	epochs := victim.Workload.Shape().Epochs
	for run := 0; run < l.runs; run++ {
		rng := l.rng(run)
		arrivals := fault.Arrivals(rng, l.m.MTBFNodeHours, victim.Nodes, l.spanH)
		if len(arrivals) == 0 {
			continue
		}
		fs := l.kill
		fs.KillEpoch, fs.KillFrac = killPoint(arrivals[0], l.cycleH, epochs)
		if !fs.WholeJob {
			fs.Node = rng.Intn(victim.Nodes)
		}
		res, err := jobs.Run(l.m, jobs.WithFault(l.specs, 0, &fs), l.seed)
		if err != nil {
			return fmt.Errorf("run %d: %w", run, err)
		}
		if res[0].Fault != nil {
			failed(res[0])
		}
	}
	return nil
}

// CampaignCell is one (drain policy × QoS) cell of the stochastic
// failure campaign: the Monte-Carlo accounting over all sampled runs.
type CampaignCell struct {
	Policy burst.Policy
	QoS    string

	Runs             int     // production runs sampled
	ExpectedPerRun   float64 // analytic expected failures per run (λ)
	Failures         int     // runs whose first arrival landed inside the span
	LostNodeHours    float64 // total lost node-hours across failing runs
	MeanLostPerFail  float64 // mean lost node-hours per failure
	LostPerKiloRun   float64 // expected lost node-hours per 1000 runs
	MeanFaultCostSec float64 // mean simulated durable-completion cost per failure
}

// CampaignFailure is the stochastic failure campaign (ROADMAP: report
// expected lost node-hours per drain policy/QoS instead of single-kill
// grids). Per (drain policy × QoS) cell it samples a campaign of
// production runs of the FigFault victim/neighbour scenario, each run
// campaignEpochHours of wall-clock per epoch long. Failure arrivals are
// exponential draws (fault.Arrivals over the victim job's nodes at the
// machine's MTBFNodeHours); a run whose first arrival lands inside the
// span is simulated with the kill mapped onto (epoch, fraction, node),
// and its recovery cost converted to lost node-hours via the campaign
// clock. Seeding comes from the sweep engine's per-trial derivation, so
// a parallel campaign draws the exact arrivals a serial one does.
func (o Options) CampaignFailure() (sweep.Table, error) {
	o = o.WithDefaults()
	m := o.campaignMachine(FaultMachine())
	// The campaign's arrival rate and victim sampling derive from the
	// scenario's own victim job, so a resized faultScenario cannot
	// silently drift out of step with the sampler.
	victim := faultScenario(burst.PolicyImmediate, burst.QoS{}, nil)[0]
	wl := victim.Workload.Shape()
	spanHours := float64(wl.Epochs) * campaignEpochHours
	lambda := fault.ExpectedFailures(m.MTBFNodeHours, victim.Nodes, sim.Duration(spanHours*3600))
	runs := campaignDraws(o.CampaignRuns, campaignTargetFailures, lambda)
	g := sweep.Grid{settingsAxis("policy", FaultDrainPolicies), settingsAxis("qos", FaultQoSPolicies)}
	title := fmt.Sprintf("Campaign F: stochastic node failures on %s (MTBF %.3gk h, %d-epoch runs, %g h/epoch, %d runs/cell)",
		m.Name, m.MTBFNodeHours/1e3, wl.Epochs, campaignEpochHours, runs)
	return sweep.Run(g, o.sweepOptions(title),
		func(c sweep.Config) (sweep.Point, error) {
			pol := c.Value("policy").(burst.Policy)
			q := c.Value("qos").(qosSetting)
			cell := CampaignCell{Policy: pol, QoS: q.name, Runs: runs, ExpectedPerRun: lambda}
			specs := faultScenario(pol, q.qos, nil)
			// One clean baseline serves every failing run of the cell: the
			// scenario is deterministic under o.Seed.
			clean, err := jobs.Run(m, specs, o.Seed)
			if err != nil {
				return sweep.Point{}, fmt.Errorf("campfail clean: %w", err)
			}
			rng := xrand.New(c.Seed) // one stream for the whole cell
			err = failureLoop{
				m: m, specs: specs, seed: o.Seed, runs: runs,
				rng:    func(int) *xrand.RNG { return rng },
				spanH:  spanHours,
				cycleH: campaignEpochHours,
				// The figfault-scale reschedule delay keeps the sim
				// readable; the production-hours cost uses the machine's
				// real NodeRestartSec below.
				kill: fault.Spec{Survival: m.NVMeSurvival, RestartDelay: 0.05},
			}.each(func(victim jobs.Result) {
				cell.Failures++
				cell.LostNodeHours += victim.LostNodeHours(campaignEpochHours, m.NodeRestartSec/3600)
				cell.MeanFaultCostSec += victim.DurableSec - clean[0].DurableSec
			})
			if err != nil {
				return sweep.Point{}, fmt.Errorf("campfail %w", err)
			}
			if cell.Failures > 0 {
				cell.MeanLostPerFail = cell.LostNodeHours / float64(cell.Failures)
				cell.MeanFaultCostSec /= float64(cell.Failures)
			}
			if runs > 0 {
				cell.LostPerKiloRun = cell.LostNodeHours / float64(runs) * 1000
			}
			return sweep.Point{
				Values: []sweep.Value{
					sweep.V("runs", float64(cell.Runs)),
					sweep.V("exp_failures_per_run", cell.ExpectedPerRun),
					sweep.V("failures", float64(cell.Failures)),
					sweep.V("mean_lost_nh_per_fail", cell.MeanLostPerFail),
					sweep.V("lost_nh_per_kilorun", cell.LostPerKiloRun),
					sweep.V("mean_fault_cost_s", cell.MeanFaultCostSec),
				},
				Extra: cell,
			}, nil
		})
}

// renderCampaign builds the artifact's text block: the campaign table
// plus the policy ordering the campaign exists to quantify.
func renderCampaign(t sweep.Table) string {
	var b strings.Builder
	b.WriteString(t.Render())
	lost := map[string]float64{}
	for _, p := range t.Points {
		cell := p.Extra.(CampaignCell)
		if cell.QoS == "qos-off" {
			lost[cell.Policy.String()] = cell.MeanLostPerFail
		}
	}
	fmt.Fprintf(&b, "mean lost node-hours per failure (qos-off): immediate %.2f, epoch-end %.2f, watermark %.2f\n\n",
		lost["immediate"], lost["epoch-end"], lost["watermark"])
	return b.String()
}
