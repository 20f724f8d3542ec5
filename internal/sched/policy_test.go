package sched

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"picmcio/internal/xrand"
)

// sortedOrder is the oracle of the kept order: the order a pass used to
// build by sorting the whole queue at every decision point. Each queued
// job's key is its tenant's usage (zero under EASY) and its aged score
// at the current clock, (now−enqH)/agingHours − log2(nodes); the sort is
// least usage first, then the highest score, and stable, so ties fall
// back to queue order. It returns the job IDs in that order.
func sortedOrder(e *engine) []int {
	type pickKey struct {
		usage, score float64
		qi           int
	}
	keys := make([]pickKey, 0, len(e.queue))
	for i, st := range e.queue {
		k := pickKey{score: (e.now-st.enqH)/agingHours - math.Log2(float64(st.job.Nodes)), qi: i}
		if e.pol == FairShare {
			k.usage = st.tenant.usage
		}
		keys = append(keys, k)
	}
	slices.SortStableFunc(keys, func(a, b pickKey) int {
		if c := cmpFloat(a.usage, b.usage); c != 0 {
			return c
		}
		return cmpFloat(b.score, a.score)
	})
	ids := make([]int, len(keys))
	for i, k := range keys {
		ids[i] = e.queue[k.qi].job.ID
	}
	return ids
}

// walked drains a pass's walk: every queued job's ID in the order the
// pass visits them.
func walked(e *engine) []int {
	e.walk()
	var ids []int
	for st := e.nextQueued(0); st != nil; st = e.nextQueued(len(ids)) {
		ids = append(ids, st.job.ID)
	}
	return ids
}

// TestKeptOrderMatchesSort holds the kept order to the per-pass sort, on
// random queues and on exact ties.
func TestKeptOrderMatchesSort(t *testing.T) {
	t.Run("random", keptOrderRandom)
	t.Run("exact ties", keptOrderTies)
}

// keptOrderRandom: several tenants with tied and distinct usages, jobs
// of 1 to partition nodes, arrivals at one instant and apart, jobs joined
// with an earlier enqH than the clock, starts out of the middle of the
// queue, continuations requeued behind younger jobs, and every
// comparison made at several clocks — the sort's order depends on now
// only through rounding, the kept one not at all.
func keptOrderRandom(t *testing.T) {
	r := xrand.New(36)
	for trial := 0; trial < 300; trial++ {
		pol := []Policy{EASY, FairShare}[trial%2]
		partition := 1 + r.Intn(128)
		tenants := 1 + r.Intn(6)
		sts := make([]*jobState, 20+r.Intn(120))
		for i := range sts {
			sts[i] = &jobState{job: &Job{ID: i + 1, Tenant: fmt.Sprint("t", r.Intn(tenants)), Nodes: 1 + r.Intn(partition)}}
		}
		e := &engine{pol: pol}
		e.openLedger(sts)
		var started []*jobState
		check := func() {
			for _, ts := range e.tenants {
				ts.usage = []float64{0, 0, 1, 7.5, r.Float64() * 100}[r.Intn(5)]
			}
			got := walked(e)
			clock := e.now
			for _, now := range []float64{clock, clock + 0.5, clock + 1e3*r.Float64(), clock + 1e6} {
				e.now = now
				if want := sortedOrder(e); !slices.Equal(got, want) {
					t.Fatalf("trial %d (%s) at now=%v: kept order %v, sorted %v", trial, pol.Name(), now, got, want)
				}
			}
			e.now = clock
		}
		for next := 0; next < len(sts) || len(started) > 0; {
			if r.Intn(4) > 0 {
				e.now += r.Float64() * 3 // else: the same instant
			}
			switch k := r.Intn(10); {
			case k < 6 && next < len(sts): // an arrival
				st := sts[next]
				next++
				st.enqH = e.now
				if r.Intn(5) == 0 {
					st.enqH = e.now * r.Float64()
				}
				e.join(st)
			case k < 8 && len(e.queue) > 0: // a start, killed later or not
				st := e.queue[r.Intn(len(e.queue))]
				e.leave(st)
				if r.Intn(2) == 0 {
					started = append(started, st)
				}
			case len(started) > 0: // a kill's continuation
				i := r.Intn(len(started))
				st := started[i]
				started = slices.Delete(started, i, i+1)
				st.enqH = e.now
				e.join(st)
			}
			if r.Intn(3) == 0 {
				check()
			}
		}
		check()
	}
}

// keptOrderTies: where the aged order ties exactly, the job that joined
// the queue first goes first — as the stable sort's fallback to queue
// order did — under EASY and under FairShare with equal usage.
func keptOrderTies(t *testing.T) {
	type join struct {
		id, nodes int
		enqH      float64
		leaves    bool // starts right after it joins, to rejoin at the end as a continuation
	}
	for _, tc := range []struct {
		name  string
		joins []join
		now   float64 // the continuations' rejoin instant and the first clock compared at
		want  []int
	}{
		// Both rank 1: 0/2 + log2(2) and 2/2 + log2(1).
		{"2 nodes at 0 h, then 1 node at 2 h", []join{{1, 2, 0, false}, {2, 1, 2, false}}, 2, []int{1, 2}},
		{"1 node at 2 h, then 2 nodes at 0 h", []join{{2, 1, 2, false}, {1, 2, 0, false}}, 2, []int{2, 1}},
		{"same-instant arrivals", []join{{3, 4, 5, false}, {1, 4, 5, false}, {2, 4, 5, false}}, 5, []int{3, 1, 2}},
		// Job 2 started and is requeued at 2 h: rank 2/2 + log2(2) ties
		// jobs 1 and 3 at 0/2 + log2(4); it joined last, so it goes last.
		{"a continuation tying older jobs", []join{{1, 4, 0, false}, {2, 2, 1, true}, {3, 4, 0, false}}, 2, []int{1, 3, 2}},
	} {
		for _, pol := range []Policy{EASY, FairShare} {
			sts := make([]*jobState, len(tc.joins))
			for i, j := range tc.joins {
				sts[i] = &jobState{job: &Job{ID: j.id, Tenant: fmt.Sprint("t", j.id%2), Nodes: j.nodes}, enqH: j.enqH}
			}
			e := &engine{pol: pol}
			e.openLedger(sts)
			for i, j := range tc.joins {
				e.join(sts[i])
				if j.leaves {
					e.leave(sts[i])
				}
			}
			e.now = tc.now
			for i, j := range tc.joins {
				if j.leaves {
					sts[i].enqH = e.now
					e.join(sts[i])
				}
			}
			got := walked(e)
			if !slices.Equal(got, tc.want) {
				t.Errorf("%s, %s: kept order %v, want %v", tc.name, pol.Name(), got, tc.want)
			}
			for _, now := range []float64{tc.now, tc.now + 1, 1e9} {
				e.now = now
				if want := sortedOrder(e); !slices.Equal(want, tc.want) {
					t.Errorf("%s, %s: sorted order at now=%v is %v, want %v", tc.name, pol.Name(), now, want, tc.want)
				}
			}
		}
	}
}
