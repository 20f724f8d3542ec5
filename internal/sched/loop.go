package sched

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"picmcio/internal/xrand"
)

// This file is the DES event loop behind Run.
//
// Remaining work is accounted in stretched virtual time: a running job
// carries its last touch point (touchH, remH, slowdown) and between
// touches
//
//	remaining(t) = remH - (t-touchH)/slowdown
//	endOf        = touchH + remH*slowdown   (constant between touches)
//
// so the clock jumps event-to-event without walking the running set,
// and a job is touched — its elapsed time folded into remH — only when
// its slowdown is about to change. Slowdowns are a pure function of each
// job's I/O fraction and the shared contention factor `over`, and `over`
// moves only when aggregate drain demand does, so the engine maintains
// demand incrementally on start/complete and restretches only when
// `over` actually changed.
//
// The wait queue is a dense slice in join order: an entry is priced
// once, on admission, and spliced out when its job starts. Under EASY
// and FairShare each tenant also keeps its queued jobs in the aged order
// (policy.go), so a pass merges a few kept lists instead of sorting the
// queue. The next
// completion is a min-scan over the running set — every completion
// walks that set anyway to retire the finished jobs.

// jobState is one job's whole record for a Run. A job is queued or
// running, never both, so one record carries both phases and the
// cross-segment bookkeeping a kill needs; Run allocates every record of
// a stream in one slab.
type jobState struct {
	job    *Job         // the caller's stream entry, read only
	res    *JobResult   // the job's slot in Result.Jobs, written in place
	tenant *tenantState // the job's usage-ledger entry, set by openLedger

	// Queued: when the job (or its continuation) last joined the queue,
	// and the price it is queued under — the shape's for a fresh arrival,
	// the remainder's for a continuation segment of a killed job. A
	// running job keeps the price it was admitted under.
	enqH  float64
	price Price

	// Running, under stretched virtual time (see the file comment).
	touchH   float64 // clock of the last touch
	remH     float64 // service time still owed at nominal rate, as of touchH
	slowdown float64

	// Across segments: the job's checkpoint-epoch structure, how many
	// epochs survived previous kills, and the current segment's shape. A
	// never-killed job has exactly one segment whose service is the
	// shape's price.
	epochs       int32   // checkpoint epochs in the full job
	doneEpochs   int32   // epochs recovered across all kills so far
	perEpochH    float64 // full-job service hours per epoch
	segSvcH      float64 // current segment's nominal service hours
	segOverheadH float64 // restart/checkpoint overhead inside segSvcH

	seq     uint32 // join stamp: the queue's order, and the kept order's tiebreak
	retired bool
}

// endOf is the predicted completion under the current stretch.
func (st *jobState) endOf() float64 { return st.touchH + st.remH*st.slowdown }

// touch folds elapsed time into the job's remaining work at its current
// rate, so the slowdown can change at `now` without rewriting history.
func (st *jobState) touch(now float64) {
	st.remH -= (now - st.touchH) / st.slowdown
	if st.remH < 0 {
		st.remH = 0
	}
	st.touchH = now
}

// engine is one Run's event-loop state.
type engine struct {
	cfg Config
	pol Policy
	pr  *Pricer
	res *Result

	pfsBW float64 // the Lustre backbone rate: the contention model's denominator

	arrivals []*jobState // in (SubmitHours, ID) order
	next     int         // next arrival index

	queue []*jobState // waiting jobs in join order; queue[0] is the head
	seq   uint32      // the next join's stamp

	run      []*jobState // running set in start order
	demand   float64     // aggregate drain demand, maintained incrementally
	lastOver float64     // contention factor of the last restretch
	now      float64

	// The node ledger: busy nodes are held by running jobs, down nodes are
	// out for repair, the rest of the partition is free. nextEnd audits it
	// after every event; retired counts completions.
	busy, downNodes int
	retired         int

	// The pass's working memory (policy.go), reused across decision
	// points: nothing in it carries over from one pass to the next but
	// capacity.
	tiers []*tenantState // tenants with queued jobs, least usage first
	tier  int            // the first tier not yet merged
	heads [][]kept       // the merge's kept lists, a min-heap by first entry
	picks []pick
	rels  []release

	// Realism-layer state (realism.go): the per-tenant usage ledger and
	// its fairness integrals, the failure schedule, the repair list and
	// the preemptor's candidate buffer.
	tenants     []*tenantState
	jainInt     float64
	shareErrInt float64
	contendH    float64
	fails       []float64
	nextFail    int
	failRng     *xrand.RNG
	repairs     []float64 // repair-window ends, FIFO
	cands       []*jobState
}

// free is the node count no running job holds and no repair keeps out.
func (e *engine) free() int { return e.cfg.Nodes - e.busy - e.downNodes }

// sample records the busy-node step function at `now`. Consecutive
// samples with unchanged Busy coalesce (they are one step).
func (e *engine) sample() {
	tl := e.res.Timeline
	n := len(tl)
	if n > 0 && tl[n-1].Hours == e.now {
		tl[n-1].Busy = e.busy
		if n > 1 && tl[n-2].Busy == e.busy {
			e.res.Timeline = tl[:n-1] // step collapsed into its predecessor
		}
		return
	}
	if n > 0 && tl[n-1].Busy == e.busy {
		return // busy unchanged since the last step: not a new step
	}
	e.res.Timeline = append(tl, UtilSample{Hours: e.now, Busy: e.busy})
}

// overOf is the contention factor for the current aggregate demand:
// how far the running set oversubscribes the shared PFS write-back.
func (e *engine) overOf() float64 {
	if e.pfsBW > 0 && e.demand > e.pfsBW {
		return e.demand / e.pfsBW
	}
	return 1
}

// restretch re-evaluates the processor-sharing contention model after
// the running set changed. Each slowdown is a pure function of (ioFrac,
// over), so when `over` is unchanged every rewrite would reproduce the
// value the job already carries — the pass is skipped entirely and no
// job is touched. When `over` moved, every running job is touched at
// `now` and re-stretched.
func (e *engine) restretch() {
	over := e.overOf()
	if over == e.lastOver {
		return
	}
	e.lastOver = over
	for _, st := range e.run {
		st.touch(e.now)
		st.slowdown = 1 + st.price.IOFrac*(over-1)
	}
}

// nextEnd is the earliest predicted completion, +Inf when nothing runs.
// Its scan of the running set also audits the node ledger: the running
// jobs hold exactly the busy nodes, and busy plus down nodes fit the
// partition.
func (e *engine) nextEnd() (float64, error) {
	tEnd, held := math.Inf(1), 0
	for _, st := range e.run {
		held += st.job.Nodes
		if t := st.endOf(); t < tEnd {
			tEnd = t
		}
	}
	if held != e.busy || e.busy+e.downNodes > e.cfg.Nodes {
		return 0, fmt.Errorf("sched: node ledger broken at t=%v: %d busy, running jobs hold %d, %d down, %d-node partition",
			e.now, e.busy, held, e.downNodes, e.cfg.Nodes)
	}
	return tEnd, nil
}

// admit starts a queued job now: take its nodes, open its result, and
// join the running set. The start-time slowdown anticipates the pass-end
// restretch: when this batch of starts leaves `over` unchanged the
// restretch is skipped, so the value must already be what the rewrite
// would produce.
func (e *engine) admit(st *jobState, backfilled bool) error {
	j, p := st.job, st.price
	if free := e.free(); j.Nodes > free {
		return fmt.Errorf("sched: policy %s overcommitted: %d free node(s), asked for %d", e.pol.Name(), free, j.Nodes)
	}
	e.res.LeaseOps++
	jr := st.res
	if jr.Segments == 0 {
		// First admission anchors the cross-segment bookkeeping on the
		// ground-truth price; a never-killed job's single segment is the
		// whole job, so this path reproduces the historical result fields
		// byte for byte.
		st.epochs = epochsOf(j)
		st.perEpochH = p.ServiceHours / float64(st.epochs)
		st.segSvcH = p.ServiceHours
		jr.ServiceHours = p.ServiceHours
	}
	jr.Segments++
	jr.StartHours = e.now
	jr.WaitHours += e.now - st.enqH
	jr.backfilled = backfilled
	if backfilled {
		e.res.Backfills++
	}
	st.touchH = e.now
	st.remH = p.ServiceHours
	st.slowdown = 1 + p.IOFrac*(e.lastOver-1)
	e.run = append(e.run, st)
	e.demand += p.DrainBps
	e.busy += j.Nodes
	st.tenant.rate += float64(j.Nodes)
	return nil
}

// completeAt retires every running job predicted to finish within a
// nano-hour of tEnd. tEnd came from nextEnd, so the argmin job always
// qualifies and every completion event retires at least one job; the
// slack merges near-simultaneous finishes into one deterministic
// instant. Retirement runs in start order (the running list's).
func (e *engine) completeAt(tEnd float64) error {
	e.advance(tEnd)
	kept := e.run[:0]
	for _, st := range e.run {
		if !(st.endOf() <= tEnd+1e-9) {
			kept = append(kept, st)
			continue
		}
		if st.retired {
			return fmt.Errorf("sched: job %d retired twice (t=%v)", st.job.ID, tEnd)
		}
		st.retired = true
		e.retired++
		st.res.EndHours = tEnd
		actual := tEnd - st.res.StartHours
		// Stretch is measured against the final segment's nominal service
		// (== ServiceHours for a never-killed job), so it keeps reading
		// "contention slowdown of what actually ran last".
		if sv := st.segSvcH; sv > 0 {
			st.res.StretchX = actual / sv
		}
		e.res.LeaseOps++
		e.busy -= st.job.Nodes
		e.demand -= st.price.DrainBps
		st.tenant.rate -= float64(st.job.Nodes)
		st.tenant.active--
	}
	e.run = kept
	e.restretch()
	e.sample()
	return nil
}

// enqueue admits an arrival to the wait queue, pricing its shape here —
// once per job instead of once per decision point.
func (e *engine) enqueue(st *jobState) error {
	p, err := e.pr.Price(st.job.Spec)
	if err != nil {
		return err
	}
	st.enqH, st.price = e.now, p
	st.tenant.active++
	e.join(st)
	return nil
}

// join puts a priced job — an arrival, or a killed job's continuation —
// at the queue's tail and into its tenant's kept order, stamped with the
// next join seq. FCFS walks the queue itself and keeps no other order.
func (e *engine) join(st *jobState) {
	st.seq = e.seq
	e.seq++
	e.queue = append(e.queue, st)
	if e.pol == FCFS {
		return
	}
	ts, k := st.tenant, keptOf(st)
	i, _ := slices.BinarySearchFunc(ts.queued, k, cmpKept)
	ts.queued = slices.Insert(ts.queued, i, k)
}

// leave takes a started job out of the queue and out of its tenant's
// kept list; both are sorted, by seq and in the kept order.
func (e *engine) leave(st *jobState) {
	i, _ := slices.BinarySearchFunc(e.queue, st.seq, func(q *jobState, seq uint32) int { return cmp.Compare(q.seq, seq) })
	e.queue = slices.Delete(e.queue, i, i+1)
	if e.pol == FCFS {
		return
	}
	ts := st.tenant
	i, _ = slices.BinarySearchFunc(ts.queued, keptOf(st), cmpKept)
	ts.queued = slices.Delete(ts.queued, i, i+1)
}

// loop is the event skeleton over four event kinds — arrivals,
// completions, node failures, repairs — plus the preemption deadline.
// Ties resolve in a fixed priority: completions free nodes first (as a
// real scheduler's event loop would), then repairs restore capacity,
// then failures land, then arrivals, then the preemption wake-up. Every
// event is followed by a scheduling pass and preemption rounds. The
// loop also runs while only requeued continuations remain (killed jobs
// can outlive the arrival stream and the running set).
func (e *engine) loop() error {
	e.sample()
	for e.next < len(e.arrivals) || len(e.run) > 0 || len(e.queue) > 0 {
		tArr := math.Inf(1)
		if e.next < len(e.arrivals) {
			tArr = e.arrivals[e.next].job.SubmitHours
		}
		tEnd, err := e.nextEnd()
		if err != nil {
			return err
		}
		tRep := math.Inf(1)
		if len(e.repairs) > 0 {
			tRep = e.repairs[0]
		}
		tFail := math.Inf(1)
		if e.nextFail < len(e.fails) {
			tFail = e.fails[e.nextFail]
		}
		tPre := e.preemptDeadline()
		switch {
		case tEnd <= tArr && tEnd <= tRep && tEnd <= tFail && tEnd <= tPre && !math.IsInf(tEnd, 1):
			if err := e.completeAt(tEnd); err != nil {
				return err
			}
		case tRep <= tArr && tRep <= tFail && tRep <= tPre && !math.IsInf(tRep, 1):
			e.repairAt(tRep)
		case tFail <= tArr && tFail <= tPre && !math.IsInf(tFail, 1):
			e.nextFail++
			if err := e.failAt(tFail); err != nil {
				return err
			}
		case tArr <= tPre && !math.IsInf(tArr, 1):
			e.advance(tArr)
			// Admit every arrival at this instant before scheduling.
			for e.next < len(e.arrivals) && e.arrivals[e.next].job.SubmitHours == e.now {
				if err := e.enqueue(e.arrivals[e.next]); err != nil {
					return err
				}
				e.next++
			}
		case !math.IsInf(tPre, 1):
			e.advance(tPre)
		default:
			// Queued jobs but no event can ever fire again: the pass
			// refused a job that fits an empty partition.
			return fmt.Errorf("sched: policy %s deadlocked with %d queued job(s) at t=%v", e.pol.Name(), len(e.queue), e.now)
		}
		if err := e.scheduleAndPreempt(); err != nil {
			return err
		}
	}
	if _, err := e.nextEnd(); err != nil {
		return err
	}
	if e.retired != len(e.arrivals) {
		return fmt.Errorf("sched: %d of %d jobs retired by t=%v", e.retired, len(e.arrivals), e.now)
	}
	e.res.Makespan = e.now
	e.finishFairness()
	return nil
}

// schedule is the decision step: run passes until one starts nothing.
// Each pass that starts jobs changes the free-node count and the release
// profile, so the next pass may start more. Starts are admitted in
// descending join order (from the queue's tail toward its head);
// admission order is the running set's order, which fixes retirement
// order and which job a failure hits.
func (e *engine) schedule() error {
	for len(e.queue) > 0 {
		picks := e.pass()
		if len(picks) == 0 {
			return nil
		}
		slices.SortFunc(picks, func(a, b pick) int { return cmp.Compare(b.st.seq, a.st.seq) })
		for _, p := range picks {
			if err := e.admit(p.st, p.backfilled); err != nil {
				return err
			}
			e.leave(p.st)
		}
		e.restretch()
		e.sample()
	}
	return nil
}

// headEnt is the queue head, nil when nothing waits.
func (e *engine) headEnt() *jobState {
	if len(e.queue) == 0 {
		return nil
	}
	return e.queue[0]
}
