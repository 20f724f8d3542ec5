package sched

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// Policy is one of the three scheduling policies the engine's pass
// knows. A value is stateless — the pass's working memory belongs to
// each Run's engine — so one Policy may drive concurrent runs.
type Policy uint8

const (
	// FCFS is strict first-come-first-served: jobs start in submission
	// order, and a queue head that does not fit blocks everything behind
	// it — the baseline whose head-of-line blocking EASY backfill exists
	// to remove.
	FCFS Policy = iota
	// EASY is EASY backfill with priority aging. The queue is ordered by
	// an aged priority score; the highest-priority job that does not fit
	// gets the sole reservation (the earliest future instant enough nodes
	// come free), and lower-priority jobs may start ahead of it only if
	// they cannot delay that reservation — either they finish before it,
	// or they use nodes the reservation does not need. With perfect
	// service estimates (the pricer's) the reserved job is never pushed
	// back by a backfill, the property that makes EASY safe to run
	// aggressively.
	//
	// Priority aging keeps the ordering from degenerating into
	// widest-job-starves: small jobs get a head start (they backfill
	// well), but every agingHours of queue wait cancels one doubling of
	// node count, so a wide job's priority overtakes a stream of fresh
	// narrow ones instead of waiting forever.
	EASY
	// FairShare is usage-ordered scheduling with EASY's backfill: the
	// queue is ordered by each job's tenant's decayed delivered usage —
	// least-served tenant first — with the aged EASY score breaking ties
	// within a tenant. Ordering compares raw usage rather than normalized
	// shares: the denominator would be a float sum over the tenants,
	// identical ordering either way, but only the raw comparison needs no
	// sum.
	FairShare
)

// Name is the policy's name in results, traces and Policies.
func (p Policy) Name() string {
	switch p {
	case FCFS:
		return "fcfs"
	case EASY:
		return "easy-backfill"
	case FairShare:
		return "fair-share"
	}
	return fmt.Sprintf("policy(%d)", uint8(p))
}

// Policies returns the named policy (the set the figsched artifact
// sweeps over).
func Policies(name string) (Policy, error) {
	for _, p := range []Policy{FCFS, EASY, FairShare} {
		if p.Name() == name {
			return p, nil
		}
	}
	return 0, fmt.Errorf("sched: unknown policy %q", name)
}

// agingHours is the queue wait that outweighs one log2(nodes) of job
// width, in EASY's priority and FairShare's within-tenant tiebreak.
const agingHours = 2.0

// kept is one entry of a tenant's kept list: a queued job and its rank
// in the aged order, enqH/agingHours + log2(nodes), ascending, ties in
// join order. The rank is the aged score (now−enqH)/agingHours −
// log2(nodes) with now taken out — now shifts every score alike — so
// the order of two queued jobs never changes while they wait: each
// tenant keeps its queued jobs in it, computed once per join, instead of
// a pass sorting them.
type kept struct {
	rank float64
	st   *jobState
}

func keptOf(st *jobState) kept {
	return kept{st.enqH/agingHours + math.Log2(float64(st.job.Nodes)), st}
}

// cmpKept is the kept order.
func cmpKept(a, b kept) int {
	if c := cmpFloat(a.rank, b.rank); c != 0 {
		return c
	}
	return cmp.Compare(a.st.seq, b.st.seq)
}

// pick is one job the pass starts, and whether it jumped a blocked
// higher-priority job.
type pick struct {
	st         *jobState
	backfilled bool
}

// release is nodes coming free at a predicted instant (reservation).
type release struct {
	at    float64
	nodes int
}

// cmpFloat is the three-way order of the passes' sort keys, by plain <
// and >: the keys are never NaN, and cmp.Compare's NaN handling in these
// comparators measured slower than the reflection sorts they replaced.
func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// walk readies the pass's walk over the queue in the policy's order.
// FCFS walks the queue itself, in join order. EASY merges every tenant's
// kept list. FairShare ranks the tenants with queued jobs by decayed
// usage, least served first, and merges the lists of each run of equal
// usage — the order a stable sort of the queue by (usage, aged score)
// gives, since the queue is in join order.
func (e *engine) walk() {
	e.heads, e.tiers, e.tier = e.heads[:0], e.tiers[:0], 0
	if e.pol == FCFS {
		return
	}
	for _, ts := range e.tenants {
		if len(ts.queued) > 0 {
			e.tiers = append(e.tiers, ts)
		}
	}
	if e.pol == FairShare {
		slices.SortFunc(e.tiers, func(a, b *tenantState) int { return cmpFloat(a.usage, b.usage) })
	}
}

// nextQueued is the walk's i-th job, nil at its end. When the merge runs
// dry it loads the next run of equal-usage tenants (all of them under
// EASY) as a min-heap of their kept lists, by first entry.
func (e *engine) nextQueued(i int) *jobState {
	if e.pol == FCFS {
		if i == len(e.queue) {
			return nil
		}
		return e.queue[i]
	}
	if len(e.heads) == 0 {
		if e.tier == len(e.tiers) {
			return nil
		}
		lo := e.tier
		e.tier++
		for e.tier < len(e.tiers) && (e.pol == EASY || e.tiers[e.tier].usage == e.tiers[lo].usage) {
			e.tier++
		}
		for _, ts := range e.tiers[lo:e.tier] {
			e.heads = append(e.heads, ts.queued)
		}
		for j := len(e.heads)/2 - 1; j >= 0; j-- {
			e.siftDown(j)
		}
	}
	st := e.heads[0][0].st
	if e.heads[0] = e.heads[0][1:]; len(e.heads[0]) == 0 {
		last := len(e.heads) - 1
		e.heads[0] = e.heads[last]
		e.heads = e.heads[:last]
	}
	e.siftDown(0)
	return st
}

// siftDown restores the heap of kept lists below index i.
func (e *engine) siftDown(i int) {
	h := e.heads
	for {
		m := i
		if l := 2*i + 1; l < len(h) && cmpKept(h[l][0], h[m][0]) < 0 {
			m = l
		}
		if r := 2*i + 2; r < len(h) && cmpKept(h[r][0], h[m][0]) < 0 {
			m = r
		}
		if m == i {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// pass is one scheduling pass over the queue and the running set; it
// changes neither and returns the jobs to start now, in priority order,
// in memory the engine reuses. It starts jobs in the policy's order
// while they fit. At the first job that does not, FCFS stops — so a
// blocked FCFS head costs O(1). EASY and FairShare give that job the
// run's single reservation and backfill behind it only with starts that
// cannot delay the reserved instant. Once no node is free nothing more
// can start, and the walk ends.
func (e *engine) pass() []pick {
	e.walk()
	free := e.free()
	picks := e.picks[:0]
	reserved := false
	var shadowHours float64
	var shadowExtra int // nodes still free at the shadow time after the reservation
	for i := 0; free > 0; i++ {
		st := e.nextQueued(i)
		if st == nil {
			break
		}
		nodes := st.job.Nodes
		if !reserved {
			if nodes <= free {
				picks = append(picks, pick{st: st})
				free -= nodes
				continue
			}
			if e.pol == FCFS {
				break
			}
			// First blocked job: it owns the run's single reservation.
			reserved = true
			shadowHours, shadowExtra = e.reservation(free, picks, nodes)
			continue
		}
		// Backfill candidates behind the reservation: must fit now and
		// must not delay the reserved start — either by finishing before
		// the shadow time (borrowing nodes the reservation will reclaim),
		// or by running on spare nodes the reservation does not need.
		if nodes > free {
			continue
		}
		if e.now+st.price.EstimateHours > shadowHours {
			if nodes > shadowExtra {
				continue
			}
			shadowExtra -= nodes
		}
		picks = append(picks, pick{st: st, backfilled: true})
		free -= nodes
	}
	e.picks = picks
	return picks
}

// reservation computes the blocked job's shadow time — the earliest
// instant enough nodes are free for it, assuming the jobs already picked
// start now and running jobs end at their predicted times — and how many
// nodes remain spare at that instant beyond its need. Releases are built
// running set first, then this pass's picks, and the count stops at the
// first release that covers the need, so the order of releases at one
// instant decides the spare count (TestReservationSameInstantReleases).
// Planning uses the padded walltime estimates.
func (e *engine) reservation(freeNow int, started []pick, need int) (shadow float64, extra int) {
	rels := e.rels[:0]
	for _, st := range e.run {
		rels = append(rels, release{st.endOf(), st.job.Nodes})
	}
	for _, p := range started {
		rels = append(rels, release{e.now + p.st.price.EstimateHours, p.st.job.Nodes})
	}
	e.rels = rels
	slices.SortFunc(rels, func(a, b release) int { return cmpFloat(a.at, b.at) })
	avail := freeNow
	for _, r := range rels {
		avail += r.nodes
		if avail >= need {
			return r.at, avail - need
		}
	}
	// Unreachable with a sane partition (the job fits an empty machine);
	// treat as "never" so no backfill is constrained by it.
	return math.Inf(1), 0
}
