package sched

import (
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

// pickKey is one queued job's sort key in a priority-ordered pass: the
// owning tenant's usage (zero under EASY), the aged score, and the queue
// index the key stands for.
type pickKey struct {
	usage, score float64
	qi           int
}

// pick is one job the pass starts: its queue index, and whether it
// jumped a blocked higher-priority job.
type pick struct {
	qi         int
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

// order builds the pass's priority keys in queue order and sorts them:
// least tenant usage first (all zero under EASY), then the highest aged
// score. The sort is stable, so ties resolve in submission order and the
// pass stays deterministic for bit-identical parallel sweeps. Scores are
// computed once per entry rather than inside the comparator: a deep
// queue does not pay two Log2 calls per comparison.
func (e *engine) order() []pickKey {
	keys := e.keys[:0]
	for i, st := range e.queue {
		k := pickKey{score: (e.now-st.enqH)/agingHours - math.Log2(float64(st.job.Nodes)), qi: i}
		if e.pol == FairShare {
			k.usage = st.tenant.usage
		}
		keys = append(keys, k)
	}
	e.keys = keys
	slices.SortStableFunc(keys, func(a, b pickKey) int {
		if c := cmpFloat(a.usage, b.usage); c != 0 {
			return c
		}
		return cmpFloat(b.score, a.score)
	})
	return keys
}

// pass is one scheduling pass over the queue and the running set; it
// changes neither and returns the jobs to start now, in priority order,
// in memory the engine reuses. It starts jobs in the policy's order
// while they fit. At the first job that does not, FCFS stops — so a
// blocked FCFS head costs O(1). EASY and FairShare give that job the
// run's single reservation and backfill behind it only with starts that
// cannot delay the reserved instant.
func (e *engine) pass() []pick {
	var keys []pickKey
	if e.pol != FCFS {
		keys = e.order()
	}
	free := e.free()
	picks := e.picks[:0]
	reserved := false
	var shadowHours float64
	var shadowExtra int // nodes still free at the shadow time after the reservation
	for i := range e.queue {
		qi := i
		if keys != nil {
			qi = keys[i].qi
		}
		st := e.queue[qi]
		nodes := st.job.Nodes
		if !reserved {
			if nodes <= free {
				picks = append(picks, pick{qi: qi})
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
		picks = append(picks, pick{qi: qi, backfilled: true})
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
		st := e.queue[p.qi]
		rels = append(rels, release{e.now + st.price.EstimateHours, st.job.Nodes})
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
