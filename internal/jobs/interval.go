// Checkpoint-cost measurement and interval wiring: the bridge between
// the analytic optimizer (internal/ckptopt) and the simulated co-schedule
// runner. MeasureCheckpointCosts prices a machine's checkpoint levels by
// probe runs through the real staging and PFS code paths — the measured
// costs the ROADMAP's interval-optimization item asks for, as opposed to
// hand-fed constants. A campaign runs *at* a plan's recommended cadence
// by setting its workload's ComputeSec to the interval (campopt does).
package jobs

import (
	"fmt"

	"picmcio/internal/ckptopt"
	"picmcio/internal/cluster"
)

// MeasureCheckpointCosts runs probe jobs of workload wl on machine m at
// the given node count and returns the optimizer's cost inputs with the
// measured fields filled in:
//
//   - DurableSaveSec from a direct-to-PFS probe: the per-epoch
//     application cost beyond compute, i.e. one synchronous checkpoint.
//   - BufferedSaveSec from a staged probe through the machine's burst
//     tier (zero when the preset has none): the same measurement at
//     buffered durability.
//   - DurableLagSec from the staged probe's durable tail
//     (DurableSec − AppSec): how far write-back trails the application
//     in steady state — the extra work a restart loses when the failure
//     destroys the staged state, and the redrain debt a surviving
//     restart must pay (added to BufferedRestartSec).
//   - DurableRestartSec additionally pays re-reading the checkpoint
//     from the PFS, priced at the measured synchronous write cost.
//
// The availability-side fields (MTBF, survival probability, base
// restart delay) come from m.CheckpointCosts. The probe honours the
// workload's chunking and epoch count, so drain-policy effects — an
// epoch-end drain's longer tail, a watermark drain's deep backlog —
// land in the measured lag exactly as the fault ledger would see them.
func MeasureCheckpointCosts(m cluster.Machine, wl Workload, nodes int, seed uint64) (ckptopt.Costs, error) {
	if wl == nil {
		return ckptopt.Costs{}, fmt.Errorf("jobs: cost probe needs a workload")
	}
	if wl.Shape().Epochs < 1 {
		return ckptopt.Costs{}, fmt.Errorf("jobs: cost probe needs at least one epoch")
	}
	costs := m.CheckpointCosts(nodes)

	direct := Spec{Name: "probe-direct", Nodes: nodes, Workload: wl, StripeCount: -1}
	rd, err := Run(m, []Spec{direct}, seed)
	if err != nil {
		return ckptopt.Costs{}, fmt.Errorf("jobs: direct cost probe: %w", err)
	}
	costs.DurableSaveSec, err = perEpochSave(rd[0], wl, "direct")
	if err != nil {
		return ckptopt.Costs{}, err
	}
	costs.DurableRestartSec += costs.DurableSaveSec

	if m.Burst.Enabled() {
		staged := Spec{Name: "probe-staged", Nodes: nodes, Burst: m.Burst, Workload: wl, StripeCount: -1}
		rs, err := Run(m, []Spec{staged}, seed)
		if err != nil {
			return ckptopt.Costs{}, fmt.Errorf("jobs: staged cost probe: %w", err)
		}
		costs.BufferedSaveSec, err = perEpochSave(rs[0], wl, "staged")
		if err != nil {
			return ckptopt.Costs{}, err
		}
		if lag := rs[0].DurableSec - rs[0].AppSec; lag > 0 {
			costs.DurableLagSec = lag
			costs.BufferedRestartSec += lag
		}
	}
	return costs, nil
}

// perEpochSave extracts one epoch's checkpoint cost from a probe
// result: the application time beyond the declared compute phases,
// divided across epochs.
func perEpochSave(r Result, wl Workload, kind string) (float64, error) {
	sh := wl.Shape()
	save := (r.AppSec - float64(sh.ComputeSec)*float64(sh.Epochs)) / float64(sh.Epochs)
	if !(save > 0) {
		return 0, fmt.Errorf("jobs: %s probe measured non-positive save cost %v", kind, save)
	}
	return save, nil
}
