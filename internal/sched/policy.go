package sched

import (
	"fmt"
	"math"
	"slices"
)

// pickKey is one queued job's sort key in a priority-ordered pass: the
// owning tenant's usage (zero under EASY), the aged score, and the queue
// index the key stands for.
type pickKey struct {
	usage, score float64
	qi           int
}

// release is nodes coming free at a predicted instant (reservation).
type release struct {
	at    float64
	nodes int
}

// pickScratch is the working memory of one Pick: the priority order, the
// decisions and the reservation's release list. The engine owns one per
// Run and lends it to in-package policies through QueueView.scratch, so
// a steady-state pass allocates nothing; the policies themselves stay
// stateless values that concurrent runs may share. Nothing in it
// carries over from one Pick to the next but capacity.
type pickScratch struct {
	keys []pickKey
	ds   []Decision
	rels []release
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

// workspace is the view's lent scratch, or a fresh one for a view that
// carries none (built by hand, or stripped by the test oracle).
func (v QueueView) workspace() *pickScratch {
	if v.scratch != nil {
		return v.scratch
	}
	return &pickScratch{}
}

// FCFS is strict first-come-first-served: jobs start in submission
// order, and a queue head that does not fit blocks everything behind it
// — the baseline whose head-of-line blocking EASY backfill exists to
// remove.
type FCFS struct{}

// Name implements Policy.
func (FCFS) Name() string { return "fcfs" }

// Pick implements Policy: start queue-order jobs while they fit; stop at
// the first that does not.
func (FCFS) Pick(v QueueView) []Decision {
	s := v.workspace()
	free := v.Free
	ds := s.ds[:0]
	for i, p := range v.Queue {
		if p.Job.Nodes > free {
			break
		}
		ds = append(ds, Decision{QueueIndex: i})
		free -= p.Job.Nodes
	}
	s.ds = ds
	return ds
}

// PrefixBlocked implements PrefixPolicy: Pick stops at the first job
// that does not fit, so a blocked head blocks the whole pass. The event
// loop uses this to skip decision points in O(1) — arrivals behind a
// blocked head, completions too narrow to unblock it.
func (FCFS) PrefixBlocked(free, headNodes int) bool { return headNodes > free }

// EASY is EASY backfill with priority aging. The queue is ordered by an
// aged priority score; the highest-priority job that does not fit gets
// the sole reservation (the earliest future instant enough nodes come
// free), and lower-priority jobs may start ahead of it only if they
// cannot delay that reservation — either they finish before it, or they
// use nodes the reservation does not need. With perfect service
// estimates (the pricer's) the reserved job is never pushed back by a
// backfill, the property that makes EASY safe to run aggressively.
//
// Priority aging keeps the ordering from degenerating into
// widest-job-starves: small jobs get a head start (they backfill well),
// but every agingHours of queue wait cancels one doubling of node count,
// so a wide job's priority overtakes a stream of fresh narrow ones
// instead of waiting forever.
type EASY struct{}

// Name implements Policy.
func (EASY) Name() string { return "easy-backfill" }

// agingHours is the queue wait that outweighs one log2(nodes) of job
// width, in EASY's priority and FairShare's within-tenant tiebreak.
const agingHours = 2.0

// agedScore is the aged priority: higher runs earlier.
func agedScore(q Pending) float64 {
	return q.WaitHours/agingHours - math.Log2(float64(q.Job.Nodes))
}

// Pick implements Policy.
func (EASY) Pick(v QueueView) []Decision {
	s := v.workspace()
	// Scores are computed once per entry rather than inside the sort
	// comparator: score is a pure function of the entry, so the ordering
	// is unchanged, but a deep queue does not pay two Log2 calls per
	// comparison.
	keys := s.keys[:0]
	for i, q := range v.Queue {
		keys = append(keys, pickKey{score: agedScore(q), qi: i})
	}
	s.keys = keys
	// Stable sort on descending score: ties resolve in submission order,
	// keeping the policy deterministic for bit-identical parallel sweeps.
	slices.SortStableFunc(keys, func(a, b pickKey) int { return cmpFloat(b.score, a.score) })
	return pickOrdered(v, s)
}

// pickOrdered is the single-reservation backfill pass shared by every
// priority-ordered policy (EASY, FairShare): start jobs in priority
// order while they fit, give the first that does not the sole
// reservation, and backfill behind it only with starts that cannot
// delay the reserved instant. It walks s.keys, already in priority
// order.
func pickOrdered(v QueueView, s *pickScratch) []Decision {
	free := v.Free
	ds := s.ds[:0]
	reserved := -1 // order position of the blocked head, -1 while none
	var shadowHours float64
	var shadowExtra int // nodes still free at the shadow time after the reservation
	for _, k := range s.keys {
		qi := k.qi
		job := v.Queue[qi].Job
		if reserved < 0 {
			if job.Nodes <= free {
				ds = append(ds, Decision{QueueIndex: qi})
				free -= job.Nodes
				continue
			}
			// First blocked job: it owns the run's single reservation.
			reserved = qi
			shadowHours, shadowExtra = reservation(v, s, free, ds, job.Nodes)
			continue
		}
		// Backfill candidates behind the reservation: must fit now and
		// must not delay the reserved start — either by finishing before
		// the shadow time (borrowing nodes the reservation will reclaim),
		// or by running on spare nodes the reservation does not need.
		if job.Nodes > free {
			continue
		}
		endsBy := v.NowHours + v.Queue[qi].ServiceHours
		if endsBy > shadowHours {
			if job.Nodes > shadowExtra {
				continue
			}
			shadowExtra -= job.Nodes
		}
		ds = append(ds, Decision{QueueIndex: qi, Backfilled: true})
		free -= job.Nodes
	}
	s.ds = ds
	return ds
}

// FairShare is usage-ordered scheduling with EASY-style backfill: the
// queue is ordered by each job's tenant's decayed delivered usage
// (QueueView.Usage) — least-served tenant first — with the aged EASY
// score breaking ties within a tenant, then the single-reservation
// backfill pass applies unchanged. Ordering compares raw usage rather
// than normalized shares: the denominator would be a float sum over a
// map, identical ordering either way, but only the raw comparison is
// iteration-order-free.
//
// FairShare deliberately does not implement PrefixPolicy: like EASY it
// starts jobs around a blocked head, so no decision point is provably
// idle from the head alone.
type FairShare struct{}

// Name implements Policy.
func (FairShare) Name() string { return "fair-share" }

// Pick implements Policy.
func (FairShare) Pick(v QueueView) []Decision {
	s := v.workspace()
	keys := s.keys[:0]
	for i, q := range v.Queue {
		keys = append(keys, pickKey{usage: v.Usage[q.Job.Tenant], score: agedScore(q), qi: i})
	}
	s.keys = keys
	slices.SortStableFunc(keys, func(a, b pickKey) int {
		if c := cmpFloat(a.usage, b.usage); c != 0 {
			return c
		}
		return cmpFloat(b.score, a.score)
	})
	return pickOrdered(v, s)
}

// reservation computes the blocked head's shadow time — the earliest
// instant enough nodes are free for it, assuming the decisions already
// taken start now and running jobs end at their predicted times — and
// how many nodes remain spare at that instant beyond the head's need.
func reservation(v QueueView, s *pickScratch, freeNow int, started []Decision, need int) (shadow float64, extra int) {
	rels := s.rels[:0]
	for _, a := range v.Running {
		rels = append(rels, release{a.EndHours, a.Nodes})
	}
	// Jobs this Pick already started hold their nodes until now+service.
	for _, d := range started {
		q := v.Queue[d.QueueIndex]
		rels = append(rels, release{v.NowHours + q.ServiceHours, q.Job.Nodes})
	}
	s.rels = rels
	slices.SortFunc(rels, func(a, b release) int { return cmpFloat(a.at, b.at) })
	avail := freeNow
	for _, r := range rels {
		avail += r.nodes
		if avail >= need {
			return r.at, avail - need
		}
	}
	// Unreachable with a sane partition (the head fits an empty machine);
	// treat as "never" so no backfill is constrained by it.
	return math.Inf(1), 0
}

// Policies returns the named policy (the set the figsched artifact
// sweeps over).
func Policies(name string) (Policy, error) {
	switch name {
	case "fcfs":
		return FCFS{}, nil
	case "easy-backfill", "easy":
		return EASY{}, nil
	case "fair-share", "fair":
		return FairShare{}, nil
	}
	return nil, fmt.Errorf("sched: unknown policy %q", name)
}
