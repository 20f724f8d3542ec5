// Package fault injects node failures into simulated runs and computes
// what a restart loses at each durability level of the burst-buffer
// staging tier.
//
// Checkpointing only matters under failure: the staging tier (see
// internal/burst) makes checkpoints cheap by returning at *buffered*
// durability — data on node-local NVMe — while write-back to the parallel
// file system proceeds in the background. A node failure is exactly the
// event that separates the two levels. What a restart can recover from
// depends on the NVMe-survivability model:
//
//   - SurviveNone: the node takes its NVMe with it (on-board drive, node
//     replaced). Staged-only bytes are destroyed; the job restarts from
//     the last checkpoint that is fully PFS-durable.
//   - SurviveNVMe: the staged state outlives the node (fabric-attached
//     enclosure, or a reboot that keeps the drive). The job restarts from
//     the last *buffered* checkpoint, but the surviving staged bytes must
//     still be written back — the redrain cost — re-contending drain
//     bandwidth with every co-scheduled neighbour.
//
// The package provides the ledger that maps a kill time onto "last
// restartable epoch" at each level (Ledger, Assess), in epochs at both,
// and the injector that orchestrates a kill inside a running simulation
// (ArmWith): kill the victim processes via the kernel's abort primitive,
// crash their nodes' buffers per the survivability model, wait out the
// restart delay, and hand control back to the caller's restart path.
// internal/jobs threads Spec through co-schedules so a victim job
// restarts while its neighbours keep running.
package fault

import (
	"fmt"
	"math"

	"picmcio/internal/burst"
	"picmcio/internal/sim"
	"picmcio/internal/xrand"
)

// Survivability models what happens to a node's staged NVMe state when
// the node fails.
type Survivability int

const (
	// SurviveNone: node loss destroys the node-local buffer; staged-only
	// bytes are gone and restart falls back to PFS-durable state.
	SurviveNone Survivability = iota
	// SurviveNVMe: the staged state outlives the node and is written back
	// (redrained) during recovery; restart resumes from buffered state.
	SurviveNVMe
)

// String implements fmt.Stringer.
func (s Survivability) String() string {
	switch s {
	case SurviveNone:
		return "none"
	case SurviveNVMe:
		return "nvme"
	}
	return fmt.Sprintf("Survivability(%d)", int(s))
}

// Prob is the survivability model as a probability that staged state
// outlives a node failure — the weight the checkpoint-interval
// optimizer (internal/ckptopt) applies to the buffered restart path.
// The enum models the two physical designs exactly, so the
// probabilities are the endpoints; a mixed fleet would interpolate.
func (s Survivability) Prob() float64 {
	if s == SurviveNVMe {
		return 1
	}
	return 0
}

// Spec configures one injected failure inside a job's epoch schedule.
type Spec struct {
	// KillEpoch is the epoch (0-based) during whose compute phase the
	// victim dies: its writes for that epoch have returned at buffered
	// durability, write-back may or may not have caught up — the window
	// where the two durability levels diverge.
	KillEpoch int
	// KillFrac places the kill within the epoch's compute phase, as a
	// fraction in [0, 1).
	KillFrac float64
	// Node is the victim node (job-relative). Ignored when WholeJob.
	Node int
	// WholeJob kills every node of the job at once — the co-schedule-wide
	// failure where the whole allocation restarts together.
	WholeJob bool
	// Survival selects the NVMe-survivability model.
	Survival Survivability
	// RestartDelay is the reboot/reschedule time before recovery begins.
	RestartDelay sim.Duration
}

// Validate checks the spec against a job's shape.
func (s Spec) Validate(nodes, epochs int) error {
	if s.KillEpoch < 0 || s.KillEpoch >= epochs {
		return fmt.Errorf("fault: kill epoch %d outside schedule of %d epoch(s)", s.KillEpoch, epochs)
	}
	if s.KillFrac < 0 || s.KillFrac >= 1 {
		return fmt.Errorf("fault: kill fraction %v outside [0, 1)", s.KillFrac)
	}
	if !s.WholeJob && (s.Node < 0 || s.Node >= nodes) {
		return fmt.Errorf("fault: victim node %d outside job of %d node(s)", s.Node, nodes)
	}
	if s.RestartDelay < 0 {
		return fmt.Errorf("fault: negative restart delay %v", s.RestartDelay)
	}
	return nil
}

// Ledger records when each epoch's output became fully buffered-durable
// (every writer's writes returned), so a kill time maps onto the last
// epoch a restart from buffered state reaches. The PFS-durable position
// is counted in the same unit, epochs, by the caller (see Assess).
type Ledger struct {
	bufferedAt []sim.Time // epoch i: every writer's writes returned
}

// Mark records that the next epoch is buffered-durable at time now.
func (l *Ledger) Mark(now sim.Time) {
	l.bufferedAt = append(l.bufferedAt, now)
}

// BufferedEpochs reports how many epochs were fully buffered-durable by
// time t — the restart position when staged state survives the failure.
func (l *Ledger) BufferedEpochs(t sim.Time) int {
	n := 0
	for _, at := range l.bufferedAt {
		if at <= t {
			n++
		}
	}
	return n
}

// Report is what one injected failure cost.
type Report struct {
	Spec Spec

	// Recovery positions at the two durability levels, in epochs: how far
	// back a restart reaches with NVMe-surviving staged state vs from the
	// parallel file system alone.
	BufferedEpochs int
	DurableEpochs  int
	// RestartEpoch is where the victim actually resumed: BufferedEpochs
	// under SurviveNVMe, DurableEpochs under SurviveNone.
	RestartEpoch int

	// Lost work in whole epochs at each level. The kill epoch's partially
	// computed phase is lost at every level and not counted here — the
	// restart re-executes it before writing its first checkpoint.
	LostEpochsBuffered int // epochs to redo restarting from buffered state
	LostEpochsPFS      int // epochs to redo restarting from PFS-durable state

	LostBytes    int64 // staged-only bytes destroyed with the node(s)
	RedrainBytes int64 // surviving staged bytes still owed to the PFS
}

// Assess computes the recovery position for a failure at time t during
// epoch spec.KillEpoch, given the run's ledger and the number of epochs
// PFS-durable on every restarting node (negative for a job with no
// staging tier, where every buffered epoch is durable). It fills every
// Report field the crash itself does not determine.
func Assess(spec Spec, l *Ledger, t sim.Time, durable int) *Report {
	attempted := spec.KillEpoch + 1 // epochs whose writes were issued by the kill
	r := &Report{Spec: spec, BufferedEpochs: l.BufferedEpochs(t), DurableEpochs: durable}
	if durable < 0 || durable > r.BufferedEpochs {
		// Fallback writes can make bytes PFS-durable before the epoch's
		// buffered mark lands; durability never exceeds what was written.
		r.DurableEpochs = r.BufferedEpochs
	}
	r.LostEpochsBuffered = attempted - r.BufferedEpochs
	r.LostEpochsPFS = attempted - r.DurableEpochs
	r.RestartEpoch = r.DurableEpochs
	if spec.Survival == SurviveNVMe {
		r.RestartEpoch = r.BufferedEpochs
	}
	return r
}

// Victim is one process/node pair an injection kills.
type Victim struct {
	Proc *sim.Proc
	Node int // tier-level node id (the pfs.Client node)
}

// Injector carries an armed injection's outcome.
type Injector struct {
	// Report is filled at kill time; nil until the injection fires.
	Report *Report
}

// ArmWith schedules an injection on kernel k: at virtual time at, kill
// every victim process, crash each victim node's buffer per the
// survivability model (tier may be nil for a direct-to-PFS job), assess the
// recovery position from the ledger, wait out the restart delay, and call
// restart with the epoch the victims resume from. The caller's restart
// func runs inside the injection process and typically respawns the
// victims' writers. Killing a victim that already finished is a no-op
// (sim.Kernel.Kill on a done process), so a restart callback should
// respawn only processes whose Killed() reports true — a victim that
// completed before the kill fired needs no recovery, and its node's Crash
// finds nothing staged (a finished writer drained before exiting).
//
// durable is the PFS-durable position probe, in epochs, fed to Assess: it
// is sampled at kill time, before the crash destroys staged state. The
// victims are the restarting set, so it is the minimum over them — the
// restart needs its checkpoint back on every restarting node (surviving
// nodes keep their staged state and need no rollback).
func ArmWith(k *sim.Kernel, at sim.Time, spec Spec, victims []Victim, tier *burst.Tier,
	led *Ledger, durable func() int, restart func(p *sim.Proc, fromEpoch int)) *Injector {
	inj := &Injector{}
	k.SpawnAt(at, "fault.inject", func(p *sim.Proc) {
		rep := Assess(spec, led, p.Now(), durable())
		for _, v := range victims {
			k.Kill(v.Proc)
		}
		if tier != nil {
			for _, v := range victims {
				cr := tier.Crash(p, v.Node, spec.Survival == SurviveNVMe)
				rep.LostBytes += cr.LostBytes
				rep.RedrainBytes += cr.SurvivingBytes
			}
		}
		inj.Report = rep
		if spec.RestartDelay > 0 {
			p.Sleep(spec.RestartDelay)
		}
		restart(p, rep.RestartEpoch)
	})
	return inj
}

// ExpectedFailures converts a per-node mean time between failures into
// the expected number of node failures across a run: node-hours divided
// by the MTBF (failures as independent exponentials). It contextualizes a
// single-kill experiment against a machine's availability knobs — at a
// 500k-hour node MTBF, a 24 h run on 1000 nodes expects ~0.05 failures;
// a petascale campaign of such runs sees one every ~20 runs.
//
// Degenerate inputs — zero or negative span, no nodes, a non-positive,
// NaN or infinite MTBF, a NaN or infinite span — return an explicit 0
// rather than letting NaN/Inf leak into downstream campaign math: a
// campaign multiplied by a NaN expectation would silently poison every
// aggregate it feeds. A sub-hour MTBF is legitimate (heavily accelerated
// test campaigns) and passes through untouched.
func ExpectedFailures(mtbfHours float64, nodes int, span sim.Duration) float64 {
	if math.IsNaN(mtbfHours) || math.IsInf(mtbfHours, 0) || mtbfHours <= 0 || nodes <= 0 {
		return 0
	}
	s := float64(span)
	if math.IsNaN(s) || math.IsInf(s, 0) || s <= 0 {
		return 0
	}
	return s / 3600 * float64(nodes) / mtbfHours
}

// maxArrivals bounds one Arrivals call: a span holding more failures
// than this (span/MTBF pathologically large, e.g. a sub-second MTBF fed
// through a CLI flag) truncates after the first maxArrivals draws
// instead of spinning and allocating without bound. Campaigns consume
// arrivals from the front, so truncating the tail never changes which
// failure a run observes first.
const maxArrivals = 1 << 16

// Arrivals samples node-failure arrival times over a span of production
// hours: failures across the allocation's nodes form a Poisson process
// with aggregate rate nodes/mtbfHours per hour, so inter-arrival gaps
// are exponential draws (xrand.ExpFloat64) scaled by the mean gap. The
// returned times are strictly increasing, in hours, all < spanHours,
// truncated at maxArrivals. Degenerate inputs (guarded exactly as in
// ExpectedFailures) return nil — no arrivals — rather than NaN-timed
// failures.
func Arrivals(r *xrand.RNG, mtbfHours float64, nodes int, spanHours float64) []float64 {
	if math.IsNaN(mtbfHours) || math.IsInf(mtbfHours, 0) || mtbfHours <= 0 || nodes <= 0 {
		return nil
	}
	if math.IsNaN(spanHours) || math.IsInf(spanHours, 0) || spanHours <= 0 {
		return nil
	}
	meanGap := mtbfHours / float64(nodes)
	var out []float64
	for t := r.ExpFloat64() * meanGap; t < spanHours && len(out) < maxArrivals; t += r.ExpFloat64() * meanGap {
		out = append(out, t)
	}
	return out
}
