package experiments

import (
	"fmt"

	"picmcio/internal/burst"
	"picmcio/internal/cluster"
	"picmcio/internal/fault"
	"picmcio/internal/jobs"
	"picmcio/internal/sweep"
	"picmcio/internal/units"
)

// FaultDrainPolicies is the drain-policy axis of FigFault, in table order.
var FaultDrainPolicies = []burst.Policy{burst.PolicyImmediate, burst.PolicyEpochEnd, burst.PolicyWatermark}

// FaultQoSPolicies is the drain-QoS axis: the plain scheduler and the
// good-neighbour write-back cap (which slows the march to PFS durability
// and so raises what a node loss costs).
var FaultQoSPolicies = []qosSetting{qosOff, qosRateLimit}

// FaultKillFracs is the kill-time axis: fractions through the kill
// epoch's compute phase. Both points sit after the immediate drain's
// write-back completes (~40% in) and before the epoch-end drain's does
// (~85% in), so the policy separation holds at every kill time.
var FaultKillFracs = []float64{0.45, 0.75}

// faultKillEpoch is the epoch (0-based, of faultEpochs) mid-whose compute
// phase the victim node dies.
const (
	faultEpochs    = 6
	faultKillEpoch = 3
)

// FaultMachine is the machine the fault grid runs on — the single source
// both FigFault and the cmd/experiments header derive it from.
func FaultMachine() cluster.Machine { return cluster.Dardel() }

// FaultCell is one grid cell of the fault-injection figure.
type FaultCell struct {
	Policy   burst.Policy
	QoS      string
	KillFrac float64

	Report        *fault.Report
	VictimDurable float64 // faulted run: victim durable-completion sec
	CleanDurable  float64 // same scenario, no fault
}

// faultScenario builds the victim/neighbour co-schedule on Dardel: a
// staged checkpoint-only job (2 nodes, 128 MiB per node per epoch in
// 16 MiB chunks, 30 ms compute) whose node 0 carries the fault, next to
// a small direct writer that keeps running through the failure. The
// drain rate is sized so one epoch's write-back takes ~24 ms: an
// immediate drain starts with the first chunk and finishes inside the
// kill epoch's compute phase at every kill point, while an epoch-end
// drain starts ~22 ms later at the nudge and never finishes by the kill
// — the grid's headline separation between the policies' durability
// positions.
func faultScenario(pol burst.Policy, qos burst.QoS, f *fault.Spec) []jobs.Spec {
	return []jobs.Spec{
		{
			Name:        "victim",
			Nodes:       2,
			Burst:       stagedTier(5.5e9, pol, qos),
			Workload:    checkpointWriter(),
			StripeCount: -1,
			Fault:       f,
		},
		{
			Name:  "neighbour",
			Nodes: 2,
			Workload: jobs.BulkWriter{
				Epochs:     faultEpochs,
				DiagBytes:  16 * units.MiB,
				ComputeSec: 0.03,
			},
			StripeCount: -1,
		},
	}
}

// checkpointWriter is the fault grid's victim workload, which the interval
// figure's cost probe and the campopt campaign measure too.
func checkpointWriter() jobs.ChunkedWriter {
	return jobs.ChunkedWriter{
		Epochs:          faultEpochs,
		CheckpointBytes: 128 * units.MiB,
		ComputeSec:      0.03,
		ChunkBytes:      16 * units.MiB,
	}
}

// figFaultSpec is the injected failure: node 0 of the victim job dies
// during epoch 3's compute phase and its NVMe dies with it (node loss).
func figFaultSpec(frac float64) *fault.Spec {
	return &fault.Spec{
		KillEpoch: faultKillEpoch,
		KillFrac:  frac,
		Node:      0,
		Survival:  fault.SurviveNone,
		// A scaled-down reschedule delay: real warm-spare restarts take
		// minutes (cluster.Machine.NodeRestartSec); the grid uses 50 ms so
		// the redrain/rewrite dynamics stay visible at simulation scale.
		RestartDelay: 0.05,
	}
}

// FigFaultSweep is the fault-injection artifact as a grid declaration:
// drain policy × drain QoS × kill time on Dardel, where a victim node dies
// mid-epoch and loses its NVMe. Per cell it reports the recovery position
// at both durability levels, the staged bytes destroyed, and what the
// failure cost in durable-completion time against an identical clean run.
// Lost work on node loss orders immediate < epoch-end < watermark: the
// longer write-back is deferred, the more epochs exist only on the NVMe
// that just died. The clean baselines depend only on (policy, QoS), so they
// are precomputed once per pair into an immutable map the trials read —
// trials stay pure (parallel-deterministic) without re-simulating the
// same clean co-schedule per kill time. The Extra payload carries the
// FaultCell the figure's table builder uses.
func (o Options) FigFaultSweep() (sweep.Table, error) {
	o = o.WithDefaults()
	m := FaultMachine()
	type cleanKey struct {
		pol burst.Policy
		qos string
	}
	cleans := map[cleanKey]float64{}
	for _, pol := range FaultDrainPolicies {
		for _, q := range FaultQoSPolicies {
			clean, err := jobs.Run(m, faultScenario(pol, q.qos, nil), o.Seed)
			if err != nil {
				return sweep.Table{}, fmt.Errorf("figfault clean %s/%s: %w", pol, q, err)
			}
			cleans[cleanKey{pol, q.name}] = clean[0].DurableSec
		}
	}
	g := sweep.Grid{
		settingsAxis("policy", FaultDrainPolicies),
		settingsAxis("qos", FaultQoSPolicies),
		sweep.Floats("kill_frac", FaultKillFracs),
	}
	return sweep.Run(g, o.sweepOptions("Fig F: node-loss fault injection on Dardel (staged victim + direct neighbour, kill in epoch 3/6)"),
		func(c sweep.Config) (sweep.Point, error) {
			pol := c.Value("policy").(burst.Policy)
			q := c.Value("qos").(qosSetting)
			frac := c.Float("kill_frac")
			res, err := jobs.Run(m, faultScenario(pol, q.qos, figFaultSpec(frac)), o.Seed)
			if err != nil {
				return sweep.Point{}, fmt.Errorf("figfault: %w", err)
			}
			rep := res[0].Fault
			if rep == nil {
				return sweep.Point{}, fmt.Errorf("figfault: injection never fired")
			}
			cell := FaultCell{
				Policy: pol, QoS: q.name, KillFrac: frac,
				Report:        rep,
				VictimDurable: res[0].DurableSec,
				CleanDurable:  cleans[cleanKey{pol, q.name}],
			}
			return sweep.Point{
				Values: []sweep.Value{
					sweep.V("buffered_epochs", float64(rep.BufferedEpochs)),
					sweep.V("durable_epochs", float64(rep.DurableEpochs)),
					sweep.V("lost_epochs_nvme", float64(rep.LostEpochsBuffered)),
					sweep.V("lost_epochs_node", float64(rep.LostEpochsPFS)),
					sweep.V("lost_bytes", float64(rep.LostBytes)),
					sweep.V("victim_durable_s", cell.VictimDurable),
					sweep.V("fault_cost_s", cell.VictimDurable-cell.CleanDurable),
				},
				Extra: cell,
			}, nil
		})
}

// faultTable builds the figure's text table and typed cells from the
// sweep table. The text table inherits the sweep's title, so text and JSON cannot drift.
func faultTable(st sweep.Table) (Table, []FaultCell) {
	t := Table{
		Title: st.Title,
		Header: []string{"policy", "qos", "kill@", "buffered", "durable",
			"lost(nvme)", "lost(node)", "lost bytes", "durable s", "fault cost"},
	}
	var cells []FaultCell
	for _, p := range st.Points {
		cell := p.Extra.(FaultCell)
		cells = append(cells, cell)
		rep := cell.Report
		t.Rows = append(t.Rows, []string{
			cell.Policy.String(), cell.QoS, fmt.Sprintf("e%d+%.0f%%", rep.Spec.KillEpoch, 100*cell.KillFrac),
			fmt.Sprintf("%d ep", rep.BufferedEpochs),
			fmt.Sprintf("%d ep", rep.DurableEpochs),
			fmt.Sprintf("%d ep", rep.LostEpochsBuffered),
			fmt.Sprintf("%d ep", rep.LostEpochsPFS),
			units.Bytes(rep.LostBytes),
			units.Seconds(cell.VictimDurable),
			units.Seconds(cell.VictimDurable - cell.CleanDurable),
		})
	}
	return t, cells
}

// FaultSurvivalComparison reruns one representative cell (watermark
// drain — the policy with the deepest staged backlog — QoS off, late
// kill) under both survivability models, for the buffered- vs
// PFS-restart contrast the staging tier exists to expose: the same
// staged bytes are either destroyed with the node or redrained.
type FaultSurvivalComparison struct {
	NodeLoss *jobs.Result // NVMe dies with the node
	NVMeKeep *jobs.Result // staged state survives and redrains
}

// FigFaultSurvival runs the survivability comparison.
func (o Options) FigFaultSurvival() (*FaultSurvivalComparison, error) {
	o = o.WithDefaults()
	m := FaultMachine()
	frac := FaultKillFracs[len(FaultKillFracs)-1]
	var out FaultSurvivalComparison
	for _, surv := range []fault.Survivability{fault.SurviveNone, fault.SurviveNVMe} {
		fs := figFaultSpec(frac)
		fs.Survival = surv
		res, err := jobs.Run(m, faultScenario(burst.PolicyWatermark, qosOff.qos, fs), o.Seed)
		if err != nil {
			return nil, fmt.Errorf("figfault survival %v: %w", surv, err)
		}
		r := res[0]
		if surv == fault.SurviveNone {
			out.NodeLoss = &r
		} else {
			out.NVMeKeep = &r
		}
	}
	return &out, nil
}
