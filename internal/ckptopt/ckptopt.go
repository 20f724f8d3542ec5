// Package ckptopt computes optimal checkpoint intervals from measured
// costs: the classical Young and Daly closed forms, an exact
// expected-waste model under exponential failures with a numerical
// minimizer that cross-checks the closed forms, and a two-level variant
// for burst-buffer staging where a checkpoint returns at *buffered*
// durability (cheap, node-local NVMe) but survives a node failure only
// with the machine's NVMe survival probability.
//
// The package is deliberately a leaf: it knows nothing about the
// simulator. Costs come in as plain seconds — measured by probe runs
// through the staging tier (jobs.MeasureCheckpointCosts) rather than
// hand-fed constants — and the Plan goes back out as plain seconds that
// a campaign sets as its workload's compute phase (campopt's ComputeSec).
//
// # The model
//
// A run alternates τ seconds of useful compute with a checkpoint of cost
// δ. Failures arrive as a Poisson process with mean time between
// failures M (job-level: the per-node MTBF divided by the node count).
// After a failure the job pays a restart cost R and re-executes the work
// lost since the last restartable checkpoint. Under exponential
// failures the expected wall-clock to finish one τ-segment is
//
//	E(τ) = e^{R/M} · M · (e^{(τ+δ)/M} − 1)
//
// (Daly's exact segment model), so the expected waste fraction is
// 1 − τ/E(τ). Young's first-order optimum is τ* = √(2δM); Daly's
// higher-order form refines it. The numerical minimizer locates the
// true argmin of E(τ)/τ, which the closed forms approximate — agreement
// within a few percent for δ ≪ M is the package's self-check.
//
// # Two levels
//
// With a staging tier the save cost the application pays is the
// *buffered* cost δ_b, but what a restart recovers depends on the
// failure: with probability s (the NVMe survival probability) the
// staged state outlives the node and the job restarts from the buffered
// position after redraining it; with probability 1−s the node takes its
// NVMe with it and the restart falls back to the PFS-durable position,
// which trails the buffered one by the measured drain lag. The
// two-level plan therefore optimizes the buffered cadence with a
// survival-weighted restart penalty
//
//	R₂ = s·R_b + (1−s)·(R_p + Λ)
//
// where Λ is the measured durable lag. The survival-weighted Young
// interval √(2·δ_b·M/s) — the cadence that would be optimal if buffered
// checkpoints only protected against the failures they can actually
// recover from — is reported alongside for the s → 0 contrast: on a
// machine whose NVMe dies with the node it diverges, because no
// buffered cadence alone protects anything.
package ckptopt

import (
	"fmt"
	"math"
)

// Costs are the measured per-level checkpoint/restart inputs the
// optimizer consumes, all in seconds. cluster.Machine.CheckpointCosts
// fills the availability-derived fields (MTBF, survival, base restart);
// jobs.MeasureCheckpointCosts fills the measured ones from probe runs.
type Costs struct {
	// MTBFSec is the job-level mean time between failures: the machine's
	// per-node MTBF divided by the job's node count.
	MTBFSec float64
	// SurvivalProb is the probability the staged NVMe state outlives a
	// node failure (0: on-board drive dies with the node, 1:
	// fabric-attached enclosure survives).
	SurvivalProb float64

	// BufferedSaveSec is the measured cost of one checkpoint at buffered
	// durability — what the application pays per save through the
	// staging tier. Zero means the machine has no staging tier and the
	// plan carries only the PFS level.
	BufferedSaveSec float64
	// DurableSaveSec is the measured cost of one checkpoint written
	// synchronously to the parallel file system.
	DurableSaveSec float64

	// BufferedRestartSec is the reboot/reschedule delay plus the redrain
	// of surviving staged state before a buffered restart can read its
	// checkpoint.
	BufferedRestartSec float64
	// DurableRestartSec is the reboot/reschedule delay plus re-reading
	// the checkpoint from the PFS.
	DurableRestartSec float64

	// DurableLagSec is the measured drain lag Λ: how far the PFS-durable
	// position trails the buffered one in steady state — the extra work
	// a restart loses when the failure destroys the staged state.
	DurableLagSec float64
}

// Validate rejects inputs the optimizer cannot price.
func (c Costs) Validate() error {
	if !(c.MTBFSec > 0) || math.IsInf(c.MTBFSec, 0) {
		return fmt.Errorf("ckptopt: MTBF must be positive and finite, got %v", c.MTBFSec)
	}
	if !(c.DurableSaveSec > 0) || math.IsInf(c.DurableSaveSec, 0) {
		return fmt.Errorf("ckptopt: durable save cost must be positive and finite, got %v", c.DurableSaveSec)
	}
	if c.BufferedSaveSec < 0 || math.IsInf(c.BufferedSaveSec, 0) || math.IsNaN(c.BufferedSaveSec) {
		return fmt.Errorf("ckptopt: buffered save cost %v outside [0, ∞)", c.BufferedSaveSec)
	}
	if c.SurvivalProb < 0 || c.SurvivalProb > 1 || math.IsNaN(c.SurvivalProb) {
		return fmt.Errorf("ckptopt: survival probability %v outside [0, 1]", c.SurvivalProb)
	}
	for _, v := range []struct {
		name string
		v    float64
	}{
		{"buffered restart", c.BufferedRestartSec},
		{"durable restart", c.DurableRestartSec},
		{"durable lag", c.DurableLagSec},
	} {
		if v.v < 0 || math.IsInf(v.v, 0) || math.IsNaN(v.v) {
			return fmt.Errorf("ckptopt: %s %v outside [0, ∞)", v.name, v.v)
		}
	}
	return nil
}

// Young is the first-order optimal interval √(2δM) for checkpoint cost
// save and mean time between failures mtbf, both in seconds. Degenerate
// inputs (non-positive, NaN or infinite) return 0 rather than NaN.
func Young(saveSec, mtbfSec float64) float64 {
	if !(saveSec > 0) || !(mtbfSec > 0) || math.IsInf(saveSec, 0) || math.IsInf(mtbfSec, 0) {
		return 0
	}
	return math.Sqrt(2 * saveSec * mtbfSec)
}

// Daly is Daly's higher-order refinement of Young's interval: for
// δ < 2M,
//
//	τ* = √(2δM) · [1 + ⅓·√(δ/2M) + (1/9)·(δ/2M)] − δ
//
// and τ* = M once the checkpoint cost reaches 2M (checkpointing is so
// expensive the best cadence is the failure scale itself). Degenerate
// inputs return 0 as in Young.
func Daly(saveSec, mtbfSec float64) float64 {
	if !(saveSec > 0) || !(mtbfSec > 0) || math.IsInf(saveSec, 0) || math.IsInf(mtbfSec, 0) {
		return 0
	}
	if saveSec >= 2*mtbfSec {
		return mtbfSec
	}
	xi := math.Sqrt(saveSec / (2 * mtbfSec))
	return math.Sqrt(2*saveSec*mtbfSec)*(1+xi/3+xi*xi/9) - saveSec
}

// expectedStretch is E(τ)/τ: the expected wall-clock seconds per second
// of useful work under the exact exponential-failure segment model.
// Always > 1 for δ, R > 0; the numerical optimum minimizes it.
func expectedStretch(tau, save, restart, mtbf float64) float64 {
	return math.Exp(restart/mtbf) * mtbf * math.Expm1((tau+save)/mtbf) / tau
}

// Waste is the expected wasted fraction of wall-clock time — checkpoint
// overhead, lost work and restarts together — when checkpointing every
// tau seconds of compute with the given save cost, restart cost and
// MTBF (all seconds): 1 − τ/E(τ) under the exact segment model. It
// returns 1 (everything wasted) for degenerate inputs where no progress
// is possible.
func Waste(tauSec, saveSec, restartSec, mtbfSec float64) float64 {
	if !(tauSec > 0) || !(mtbfSec > 0) || !(saveSec >= 0) || !(restartSec >= 0) {
		return 1
	}
	h := expectedStretch(tauSec, saveSec, restartSec, mtbfSec)
	if math.IsInf(h, 0) || math.IsNaN(h) || h <= 0 {
		return 1
	}
	return 1 - 1/h
}

// OptimalNumeric minimizes the exact expected stretch over the
// interval by golden-section search in log space — the cross-check the
// closed forms are validated against. The optimum of the exact model
// always lies below M (at τ = M the marginal exposure already outweighs
// the saved overhead), so the bracket [tiny, 4M] is safe. Degenerate
// inputs return 0.
func OptimalNumeric(saveSec, restartSec, mtbfSec float64) float64 {
	if !(saveSec > 0) || !(mtbfSec > 0) || math.IsInf(saveSec, 0) || math.IsInf(mtbfSec, 0) {
		return 0
	}
	lo := math.Log(math.Min(saveSec, mtbfSec) * 1e-4)
	hi := math.Log(4 * mtbfSec)
	f := func(u float64) float64 {
		return expectedStretch(math.Exp(u), saveSec, restartSec, mtbfSec)
	}
	const phi = 0.6180339887498949 // (√5−1)/2
	a, b := lo, hi
	c := b - phi*(b-a)
	d := a + phi*(b-a)
	fc, fd := f(c), f(d)
	for i := 0; i < 200 && b-a > 1e-12; i++ {
		if fc < fd {
			b, d, fd = d, c, fc
			c = b - phi*(b-a)
			fc = f(c)
		} else {
			a, c, fc = c, d, fd
			d = a + phi*(b-a)
			fd = f(d)
		}
	}
	return math.Exp((a + b) / 2)
}

// Level is one durability level's interval recommendation.
type Level struct {
	// Name is "buffered" or "pfs".
	Name string
	// SaveSec and RestartSec are the level's effective per-checkpoint
	// cost and (for the buffered level, survival-weighted) restart
	// penalty.
	SaveSec    float64
	RestartSec float64
	// MTBFSec is the job-level MTBF the level optimizes against.
	MTBFSec float64

	// YoungSec and DalySec are the closed-form intervals; NumericSec is
	// the exact-model minimizer that cross-checks them.
	YoungSec   float64
	DalySec    float64
	NumericSec float64
	// WasteAtOpt is the expected wasted fraction at NumericSec.
	WasteAtOpt float64
}

// optimize fills the level's recommendations from its cost fields.
func (l *Level) optimize() {
	l.YoungSec = Young(l.SaveSec, l.MTBFSec)
	l.DalySec = Daly(l.SaveSec, l.MTBFSec)
	l.NumericSec = OptimalNumeric(l.SaveSec, l.RestartSec, l.MTBFSec)
	l.WasteAtOpt = Waste(l.NumericSec, l.SaveSec, l.RestartSec, l.MTBFSec)
}

// Waste evaluates the level's expected waste fraction at an arbitrary
// interval — the curve FigInterval plots around the optimum.
func (l Level) Waste(tauSec float64) float64 {
	return Waste(tauSec, l.SaveSec, l.RestartSec, l.MTBFSec)
}

// Plan is a machine's interval recommendation at every durability level.
type Plan struct {
	// PFS is the single-level plan: every checkpoint synchronously
	// durable on the parallel file system.
	PFS Level
	// Buffered is the two-level plan for the staging tier — buffered
	// save cost, survival-weighted restart penalty — or nil when the
	// machine has no staging tier.
	Buffered *Level

	// SurvivalYoungSec is the survival-weighted Young interval
	// √(2·δ_b·M/s): the buffered cadence counting only the failures a
	// buffered checkpoint can actually recover from. Zero when the
	// machine has no staging tier or its NVMe never survives (s = 0, the
	// weighted optimum diverges — buffered checkpoints alone protect
	// nothing).
	SurvivalYoungSec float64
}

// Optimize prices the costs into a Plan.
func Optimize(c Costs) (Plan, error) {
	if err := c.Validate(); err != nil {
		return Plan{}, err
	}
	var p Plan
	p.PFS = Level{
		Name:       "pfs",
		SaveSec:    c.DurableSaveSec,
		RestartSec: c.DurableRestartSec,
		MTBFSec:    c.MTBFSec,
	}
	p.PFS.optimize()
	if c.BufferedSaveSec > 0 {
		s := c.SurvivalProb
		p.Buffered = &Level{
			Name:    "buffered",
			SaveSec: c.BufferedSaveSec,
			// A failure recovers from the buffered position with
			// probability s (restart + redrain) and falls back to the
			// PFS-durable position with probability 1−s, paying the
			// durable restart plus the lagged work.
			RestartSec: s*c.BufferedRestartSec + (1-s)*(c.DurableRestartSec+c.DurableLagSec),
			MTBFSec:    c.MTBFSec,
		}
		p.Buffered.optimize()
		if s > 0 {
			p.SurvivalYoungSec = Young(c.BufferedSaveSec, c.MTBFSec/s)
		}
	}
	return p, nil
}

// Recommended is the level with the lower expected waste at its
// optimum: the cadence campaigns should run at. With a staging tier the
// buffered level wins whenever buffered saves are genuinely cheaper
// than synchronous PFS writes.
func (p Plan) Recommended() Level {
	if p.Buffered != nil && p.Buffered.WasteAtOpt < p.PFS.WasteAtOpt {
		return *p.Buffered
	}
	return p.PFS
}

// IntervalSec is the recommended compute interval between checkpoints.
func (p Plan) IntervalSec() float64 { return p.Recommended().NumericSec }

// Levels lists the plan's levels in presentation order (buffered first
// when present).
func (p Plan) Levels() []Level {
	if p.Buffered != nil {
		return []Level{*p.Buffered, p.PFS}
	}
	return []Level{p.PFS}
}
