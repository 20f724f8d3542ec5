package sched

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"picmcio/internal/fault"
	"picmcio/internal/xrand"
)

// This file is the scheduler's realism layer on top of the loop.go event
// skeleton: the per-tenant decayed-usage ledger the FairShare policy and
// the preemptor read, checkpoint-and-requeue kills (preemption and node
// failures share one path), and the repair-window bookkeeping that
// shrinks the free-node count while a failed node is out.

// PreemptConfig enables preemption via checkpoint-and-requeue.
type PreemptConfig struct {
	// MaxHeadWaitHours enables preemption when > 0: once the queue head
	// has waited at least this long and still cannot start, the engine
	// checkpoints and kills running jobs belonging to tenants whose
	// decayed usage strictly exceeds the head's tenant's — most
	// over-served tenant first, youngest job first within a tenant —
	// until the head's node need is covered, requeueing each victim's
	// remainder as a continuation job. If no victim set can cover the
	// need, nothing is preempted (no thrashing for an unwinnable start).
	MaxHeadWaitHours float64
	// CheckpointHours is the service-time overhead added to every
	// preempted continuation: the forced checkpoint plus relaunch cost.
	// A preemption kill is clean — the victim restarts from its last
	// buffered epoch (it checkpoints on the way out).
	CheckpointHours float64
}

func (p PreemptConfig) enabled() bool { return p.MaxHeadWaitHours > 0 }

// FaultConfig injects node failures into the queue: fault.Arrivals
// drives kills of running jobs mid-service, the victim requeues from its
// recovery epoch, and the failed node leaves the schedulable pool for a
// repair window.
type FaultConfig struct {
	// MTBFNodeHours is the per-node mean time between failures on the
	// campaign clock; 0 disables failures (unless ArrivalHours is set).
	MTBFNodeHours float64
	// RepairHours is how long a failed node stays out of the pool
	// (default 12 when failures are enabled).
	RepairHours float64
	// RestartOverheadHours is the service-time overhead added to a
	// failure-killed continuation (reboot, relaunch, state reload).
	RestartOverheadHours float64
	// Survival selects the NVMe-survivability model for the recovery
	// position: SurviveNVMe restarts from the last buffered epoch,
	// SurviveNone additionally loses the newest drainLagEpochs buffered
	// checkpoints (their write-back had not caught up when the node died).
	Survival fault.Survivability
	// ArrivalHours, when non-empty, replaces the Poisson draw with
	// explicit failure instants (strictly increasing) — the hook the
	// requeue edge-case tests aim kills with.
	ArrivalHours []float64
}

func (f FaultConfig) enabled() bool { return f.MTBFNodeHours > 0 || len(f.ArrivalHours) > 0 }

// drainLagEpochs is the queue-level abstraction of the write-back tail
// under SurviveNone: the buffered checkpoints a crash loses.
const drainLagEpochs = 1

// usageHalfLifeHours is the decay half-life of the per-tenant usage
// ledger (delivered node-hours) the FairShare policy and the preemptor
// order tenants by: one week, the customary fair-share decay. The ledger
// is maintained for every run (it is cheap and feeds Result.UsageJain);
// only FairShare and preemption act on it. Typed: untyped, the decay gain's
// usageHalfLifeHours/math.Ln2 would fold at full precision and move the
// last bit of every run's usage ledger.
const usageHalfLifeHours float64 = 168

// failSeedSalt decorrelates the failure stream from every other
// consumer of Config.Seed (pricing stochastics, synthesis).
const failSeedSalt = 0x6661756c74 // "fault"

// arrivalTimes is the failure schedule for one run: the explicit
// override when set, otherwise a fault.Arrivals Poisson draw over a
// horizon derived from the stream: 4× the last submission + 48 h,
// comfortably past any sane makespan.
func (f FaultConfig) arrivalTimes(seed uint64, nodes int, lastSubmitH float64) []float64 {
	if len(f.ArrivalHours) > 0 {
		return f.ArrivalHours
	}
	return fault.Arrivals(xrand.New(xrand.SeedAt(seed^failSeedSalt, 0)), f.MTBFNodeHours, nodes, 4*lastSubmitH+48)
}

func (f FaultConfig) validate() error {
	if f.MTBFNodeHours < 0 || math.IsNaN(f.MTBFNodeHours) {
		return fmt.Errorf("sched: negative failure MTBF %v", f.MTBFNodeHours)
	}
	if f.RepairHours < 0 {
		return fmt.Errorf("sched: negative repair window %v", f.RepairHours)
	}
	if f.RestartOverheadHours < 0 {
		return fmt.Errorf("sched: negative restart overhead %v", f.RestartOverheadHours)
	}
	for i := 1; i < len(f.ArrivalHours); i++ {
		if f.ArrivalHours[i] <= f.ArrivalHours[i-1] {
			return fmt.Errorf("sched: failure arrivals must be strictly increasing (index %d)", i)
		}
	}
	return nil
}

// TenantShare is one tenant's fair-share outcome: the time-weighted mean
// absolute deviation of its decayed-usage share from the equal share,
// integrated while the tenant was active on a contended machine.
type TenantShare struct {
	Tenant string
	// MeanAbsErr is ∫|share − 1/active| dt / ActiveHours; 0 is a tenant
	// that always held exactly its fair share while competing.
	MeanAbsErr float64
	// ActiveHours is how long the tenant had work queued or running while
	// at least one other tenant did too.
	ActiveHours float64
}

// tenantState is one tenant's usage-ledger entry: decayed delivered
// node-hours (the quantity fair-share equalizes), its current accrual
// rate, and the fairness integrals. All tenants fold together at every
// event-time advance — never in between — so the decay arithmetic is a
// pure function of the event history.
type tenantState struct {
	name    string
	usage   float64 // decayed delivered node-hours, folded to engine.now
	rate    float64 // nodes currently running for this tenant
	active  int     // jobs queued or running
	errInt  float64 // ∫|share − fair| dt while active and contended
	activeH float64

	queued []kept // its waiting jobs in the kept order (policy.go)
}

// openLedger sets up the usage ledger for a Run's records, given in
// arrival order: one entry per tenant in first-arrival order (the order
// Result.TenantShares lists them), each record pointed at its tenant's,
// and, unless the policy is FCFS, every tenant's kept list carved from
// one slab — a tenant never has more jobs queued than it submitted, so
// the lists never grow. A tenant whose first job has not arrived yet has
// no usage and no rate, and folds to zero like one with nothing active.
func (e *engine) openLedger(sts []*jobState) {
	ix := map[string]int{}
	var counts []int
	for _, st := range sts {
		i, ok := ix[st.job.Tenant]
		if !ok {
			i = len(e.tenants)
			ix[st.job.Tenant] = i
			e.tenants = append(e.tenants, &tenantState{name: st.job.Tenant})
			counts = append(counts, 0)
		}
		st.tenant = e.tenants[i]
		counts[i]++
	}
	if e.pol == FCFS {
		return
	}
	slab := make([]kept, len(sts))
	for i, ts := range e.tenants {
		ts.queued, slab = slab[:0:counts[i]], slab[counts[i]:]
	}
}

// advance moves the clock to t, integrating the fairness metrics over
// [now, t) at start-of-interval usage and then folding every tenant's
// decayed usage forward. An interval is contended when two or more
// tenants are active; uncontended time is excluded from the fairness
// integrals (there is nothing to share).
func (e *engine) advance(t float64) {
	dt := t - e.now
	if dt <= 0 {
		e.now = t
		return
	}
	n, sum := 0, 0.0
	for _, ts := range e.tenants {
		if ts.active > 0 {
			n++
			sum += ts.usage
		}
	}
	if n >= 2 {
		fair := 1 / float64(n)
		sumSq, errSum := 0.0, 0.0
		for _, ts := range e.tenants {
			if ts.active == 0 {
				continue
			}
			share := fair // all-zero usage: nobody is over-served
			if sum > 0 {
				share = ts.usage / sum
			}
			sumSq += ts.usage * ts.usage
			aerr := math.Abs(share - fair)
			ts.errInt += aerr * dt
			ts.activeH += dt
			errSum += aerr
		}
		jain := 1.0
		if sum > 0 {
			jain = sum * sum / (float64(n) * sumSq)
		}
		e.jainInt += jain * dt
		e.shareErrInt += errSum / float64(n) * dt
		e.contendH += dt
	}
	// Constant-rate exponential decay over the interval, in closed form:
	// dU/dt = rate − U·ln2/H  ⇒  U(t+dt) = U·2^(−dt/H) + rate·H/ln2·(1−2^(−dt/H)).
	decay := math.Exp2(-dt / usageHalfLifeHours)
	gain := usageHalfLifeHours / math.Ln2 * (1 - decay)
	for _, ts := range e.tenants {
		ts.usage = ts.usage*decay + ts.rate*gain
	}
	e.now = t
}

// finishFairness folds the fairness integrals into the Result once the
// loop drains.
func (e *engine) finishFairness() {
	e.res.UsageJain = 1
	if e.contendH > 0 {
		e.res.UsageJain = e.jainInt / e.contendH
		e.res.ShareErr = e.shareErrInt / e.contendH
	}
	for _, ts := range e.tenants {
		tsh := TenantShare{Tenant: ts.name, ActiveHours: ts.activeH}
		if ts.activeH > 0 {
			tsh.MeanAbsErr = ts.errInt / ts.activeH
		}
		e.res.TenantShares = append(e.res.TenantShares, tsh)
	}
}

// epochsOf is a job's checkpoint granularity: its workload's epoch
// count, or 1 for an epoch-less shape (kills lose everything).
func epochsOf(j *Job) int32 {
	if j.Spec.Workload != nil {
		if ep := j.Spec.Workload.Shape().Epochs; ep > 0 {
			return int32(ep)
		}
	}
	return 1
}

// segmentPrice is the Price a continuation is queued under: remaining
// nominal service (plus restart overhead), the shape's drain demand and
// I/O fraction — every segment's price carries the shape's — and the
// pricer's estimate padding.
func (e *engine) segmentPrice(st *jobState) Price {
	p := st.price
	p.ServiceHours = st.segSvcH
	p.EstimateHours = st.segSvcH * (1 + e.pr.EstimateError)
	return p
}

// recoveredEpochs maps a kill at nominal segment progress doneH onto the
// epochs the continuation keeps: how many of the segment's remaining
// checkpoints were buffered by the kill, minus the SurviveNone drain lag
// on a crash (preemption checkpoints cleanly and always restarts from
// buffered state). The segment's nominal schedule buffers its k-th
// remaining checkpoint at overhead + k·perEpoch; it is counted here, at
// the kill, without building anything. Nothing it is counted from moves
// between a segment's admission and its kill.
func (e *engine) recoveredEpochs(st *jobState, doneH float64, byFailure bool) int32 {
	var buf int32
	for k := int32(1); k <= st.epochs-st.doneEpochs; k++ {
		if st.segOverheadH+float64(k)*st.perEpochH <= doneH {
			buf++
		}
	}
	if byFailure && e.cfg.Faults.Survival == fault.SurviveNone {
		buf -= drainLagEpochs
		if buf < 0 {
			buf = 0
		}
	}
	return buf
}

// killRunning checkpoints-and-kills a running job at the current
// instant and requeues its remainder as a continuation segment, joining
// at the queue's tail. byFailure selects crash recovery semantics (drain
// lag, restart overhead) over the clean preemption checkpoint.
func (e *engine) killRunning(st *jobState, byFailure bool) {
	st.touch(e.now)
	doneH := st.segSvcH - st.remH
	if doneH < 0 {
		doneH = 0
	}
	rec := e.recoveredEpochs(st, doneH, byFailure)
	st.doneEpochs += rec
	lostH := doneH - float64(rec)*st.perEpochH
	if lostH < 0 {
		lostH = 0
	}
	nodes := st.job.Nodes
	lostNH := float64(nodes) * lostH
	st.res.LostNodeHours += lostNH
	e.res.LostNodeHours += lostNH
	if byFailure {
		st.res.FailureKills++
		e.res.FailureKills++
	} else {
		st.res.Preemptions++
		e.res.Preemptions++
	}
	e.res.LeaseOps++
	e.busy -= nodes
	e.demand -= st.price.DrainBps
	kept := e.run[:0]
	for _, r := range e.run {
		if r != st {
			kept = append(kept, r)
		}
	}
	e.run = kept
	st.tenant.rate -= float64(nodes)

	overhead := e.cfg.Preempt.CheckpointHours
	if byFailure {
		overhead = e.cfg.Faults.RestartOverheadHours
	}
	remEpochs := st.epochs - st.doneEpochs
	if remEpochs < 0 {
		remEpochs = 0
	}
	st.segOverheadH = overhead
	st.segSvcH = overhead + float64(remEpochs)*st.perEpochH
	e.res.RequeuedNodeHours += float64(nodes) * st.segSvcH
	st.enqH, st.price = e.now, e.segmentPrice(st)
	e.join(st)
	e.restretch()
	e.sample()
}

// preemptDeadline is the instant the queue head's wait crosses the
// preemption threshold — an event the loop must wake for even when no
// arrival or completion lands first. Once the deadline has passed it
// returns +Inf: maybePreempt re-evaluates after every event anyway, and
// a finite past deadline would spin the loop.
func (e *engine) preemptDeadline() float64 {
	if !e.cfg.Preempt.enabled() {
		return math.Inf(1)
	}
	head := e.headEnt()
	if head == nil {
		return math.Inf(1)
	}
	if t := head.enqH + e.cfg.Preempt.MaxHeadWaitHours; t > e.now {
		return t
	}
	return math.Inf(1)
}

// maybePreempt fires the preemptor once: if the queue head has waited
// past the threshold and still cannot start, kill enough running jobs of
// strictly-more-served tenants to cover its need. Jobs started at this
// very instant are never victims — killing freshly admitted work would
// let a blocked head and an eager backfiller trade the same nodes
// forever within one event. The candidates are gathered in a buffer the
// engine keeps across rounds. Returns whether anything was preempted.
func (e *engine) maybePreempt() bool {
	if !e.cfg.Preempt.enabled() {
		return false
	}
	head := e.headEnt()
	if head == nil {
		return false
	}
	if e.now < head.enqH+e.cfg.Preempt.MaxHeadWaitHours {
		return false
	}
	need := head.job.Nodes - e.free()
	if need <= 0 {
		return false
	}
	headUsage := head.tenant.usage
	cands := e.cands[:0]
	for _, st := range e.run {
		if st.res.StartHours == e.now {
			continue
		}
		if st.tenant.usage > headUsage {
			cands = append(cands, st)
		}
	}
	e.cands = cands
	slices.SortStableFunc(cands, func(a, b *jobState) int {
		ua, ub := a.tenant.usage, b.tenant.usage
		if ua != ub {
			return cmp.Compare(ub, ua)
		}
		if a.res.StartHours != b.res.StartHours {
			return cmp.Compare(b.res.StartHours, a.res.StartHours)
		}
		return cmp.Compare(b.job.ID, a.job.ID)
	})
	freed, take := 0, 0
	for _, st := range cands {
		if freed >= need {
			break
		}
		freed += st.job.Nodes
		take++
	}
	if freed < need {
		return false
	}
	for _, st := range cands[:take] {
		e.killRunning(st, false)
	}
	return true
}

// scheduleAndPreempt is the per-event decision step: a scheduling pass,
// then preemption rounds — each killing at least one previously started
// job, so the alternation terminates — until the preemptor declines.
func (e *engine) scheduleAndPreempt() error {
	if err := e.schedule(); err != nil {
		return err
	}
	for e.maybePreempt() {
		if err := e.schedule(); err != nil {
			return err
		}
	}
	return nil
}

// failAt processes one node-failure arrival: the failure lands uniformly
// on the partition's nodes — a running job's node kills and requeues the
// job, an already-down node changes nothing, an idle node just starts a
// repair — and the failed node leaves the pool for the repair window.
func (e *engine) failAt(t float64) error {
	e.advance(t)
	u := e.failRng.Float64() * float64(e.cfg.Nodes)
	acc := 0.0
	var victim *jobState
	for _, st := range e.run {
		acc += float64(st.job.Nodes)
		if u < acc {
			victim = st
			break
		}
	}
	if victim == nil {
		if u < acc+float64(e.downNodes) {
			// Lands on a node already under repair: no new outage.
			e.res.IdleFailures++
			return nil
		}
		e.res.IdleFailures++
	}
	if victim != nil {
		e.killRunning(victim, true)
	}
	return e.startRepair()
}

// startRepair takes the failed node out of the schedulable pool until
// the repair window ends. A free node always exists here — a busy
// victim's nodes were just freed, and an idle-node hit lands on one — so
// finding none is a broken node ledger.
func (e *engine) startRepair() error {
	if e.cfg.Faults.RepairHours <= 0 {
		return nil
	}
	if e.free() < 1 {
		return fmt.Errorf("sched: node ledger broken at t=%v: a failure found no free node to repair (%d busy, %d down, %d-node partition)",
			e.now, e.busy, e.downNodes, e.cfg.Nodes)
	}
	e.res.LeaseOps++
	e.downNodes++
	e.res.DownNodeHours += e.cfg.Faults.RepairHours
	e.repairs = append(e.repairs, e.now+e.cfg.Faults.RepairHours)
	return nil
}

// repairAt returns the oldest down node to the pool (RepairHours is
// constant, so the repair list is FIFO in end time).
func (e *engine) repairAt(t float64) {
	e.advance(t)
	e.repairs = e.repairs[1:]
	e.res.LeaseOps++
	e.downNodes--
}
