package sched

import (
	"math"
	"reflect"
	"testing"

	"picmcio/internal/cluster"
	"picmcio/internal/xrand"
)

// TestNaiveIndexedEquivalence is the differential proof behind the
// indexed event loop: randomized Synth streams — varied tenant counts,
// offered loads, size-class mixes, both policies — replay through the
// indexed loop and the retained naive loop, and every Result must be
// byte-identical (reflect.DeepEqual over the full struct, floats
// included). The indexed loop's heap, tombstoned queue, admission-time
// prices, and PrefixPolicy veto are all on trial here: any divergence
// in event ordering, allocator lease sequence, restretch gating, or
// wait arithmetic shows up as a mismatch.
func TestNaiveIndexedEquivalence(t *testing.T) {
	m := cluster.Dardel()
	cases := []struct {
		tenants, users int
		load           float64
		classes        []SizeClass
	}{
		{tenants: 2, users: 1, load: 0.7, classes: nil},
		{tenants: 5, users: 3, load: 1.4, classes: nil},
		{tenants: 3, users: 2, load: 1.0, classes: DefaultClasses()[:2]},
		{tenants: 4, users: 2, load: 1.2, classes: nil},
	}
	for ci, c := range cases {
		pr := NewPricer(m, 7, 6)
		s := Synth{Tenants: c.tenants, Users: c.users, Classes: c.classes, Seed: xrand.SeedAt(11, uint64(ci))}
		mean, err := SubmitMeanForLoad(pr, m, s, c.load, 64)
		if err != nil {
			t.Fatalf("case %d: calibrate: %v", ci, err)
		}
		s.SubmitMeanHours = mean
		s.SpanHours = 180 * mean / float64(c.tenants*c.users)
		stream, err := Synthesize(m, s)
		if err != nil {
			t.Fatalf("case %d: synthesize: %v", ci, err)
		}
		for _, pol := range []Policy{FCFS{}, EASY{}} {
			cfg := Config{Machine: m, Nodes: 64, Seed: 7, Pricer: pr}
			indexed, err := Run(cfg, pol, stream)
			if err != nil {
				t.Fatalf("case %d %s: indexed: %v", ci, pol.Name(), err)
			}
			restore := ForceNaiveLoopForTesting()
			naive, err := Run(cfg, pol, stream)
			restore()
			if err != nil {
				t.Fatalf("case %d %s: naive: %v", ci, pol.Name(), err)
			}
			if !reflect.DeepEqual(indexed, naive) {
				t.Errorf("case %d (%d tenants, load %g) %s: indexed and naive loops diverged (%d jobs, %d timeline samples vs %d, %d)",
					ci, c.tenants, c.load, pol.Name(), len(indexed.Jobs), len(indexed.Timeline), len(naive.Jobs), len(naive.Timeline))
			}
			if len(indexed.Jobs) != len(stream) {
				t.Errorf("case %d %s: %d of %d jobs completed", ci, pol.Name(), len(indexed.Jobs), len(stream))
			}
		}
	}
}

// TestForceNaiveLoopRestores pins the hook contract: the restore
// function reinstates the previous loop choice, nesting included.
func TestForceNaiveLoopRestores(t *testing.T) {
	if forceNaiveLoop {
		t.Fatal("naive loop forced at test entry")
	}
	restore := ForceNaiveLoopForTesting()
	inner := ForceNaiveLoopForTesting()
	if !forceNaiveLoop {
		t.Fatal("hook did not force the naive loop")
	}
	inner()
	if !forceNaiveLoop {
		t.Fatal("nested restore cleared the outer force")
	}
	restore()
	if forceNaiveLoop {
		t.Fatal("restore did not clear the force")
	}
}

// TestEndHeapLazyInvalidation exercises the completion index around
// the restretch-epoch discipline directly: stale snapshots (epoch
// bumped after push) must be discarded on pop, a rebuild must re-key
// to the running set's current predictions, and min() must track the
// true earliest completion throughout.
func TestEndHeapLazyInvalidation(t *testing.T) {
	mk := func(touchH, remH, slowdown float64) *running {
		return &running{touchH: touchH, remH: remH, slowdown: slowdown}
	}
	a, b, c := mk(0, 10, 1), mk(0, 6, 1), mk(0, 8, 1)
	var h endHeap
	for _, rj := range []*running{a, b, c} {
		h.push(rj)
	}
	if got := h.min(); got != 6 {
		t.Fatalf("min = %g, want 6 (job b)", got)
	}
	// Retirement strands b's snapshot: bump its epoch and the heap must
	// skip it, surfacing c.
	b.epoch++
	if got := h.min(); got != 8 {
		t.Fatalf("min after retiring b = %g, want 8 (job c)", got)
	}
	// A restretch re-keys the survivors: a slows down 2x (endOf 20), c
	// speeds up (endOf 7.2). A lazy re-push would be wrong here — c's
	// stale key (8) overstates its true completion — which is exactly
	// why the engine rebuilds.
	a.touch(1)
	a.slowdown = 2
	a.epoch++
	c.touch(1)
	c.slowdown = 0.886
	c.epoch++
	h.rebuild([]*running{a, c})
	want := c.endOf()
	if want >= a.endOf() || math.Abs(want-7.2) > 0.01 {
		t.Fatalf("test setup broken: c.endOf = %g, a.endOf = %g", want, a.endOf())
	}
	if got := h.min(); got != want {
		t.Fatalf("min after rebuild = %g, want %g", got, want)
	}
	// Drain: retiring both leaves only stale snapshots, and min reports
	// an empty horizon.
	a.epoch++
	c.epoch++
	if got := h.min(); !math.IsInf(got, 1) {
		t.Fatalf("min of fully stale heap = %g, want +Inf", got)
	}
	if len(h.es) != 0 {
		t.Fatalf("stale snapshots survived draining: %d left", len(h.es))
	}
}

// TestTimelineCoalescing pins that the timeline never records two
// consecutive samples with the same busy count.
func TestTimelineCoalescing(t *testing.T) {
	m := cluster.Dardel()
	pr := NewPricer(m, 3, 6)
	s := Synth{Tenants: 3, Users: 2, Seed: 5}
	mean, err := SubmitMeanForLoad(pr, m, s, 1.1, 64)
	if err != nil {
		t.Fatal(err)
	}
	s.SubmitMeanHours = mean
	s.SpanHours = 150 * mean / 6
	stream, err := Synthesize(m, s)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Machine: m, Nodes: 64, Seed: 3, Pricer: pr}
	exact, err := Run(cfg, FCFS{}, stream)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(exact.Timeline); i++ {
		if exact.Timeline[i].Busy == exact.Timeline[i-1].Busy {
			t.Fatalf("timeline samples %d and %d share busy=%d: equal-busy steps must coalesce",
				i-1, i, exact.Timeline[i].Busy)
		}
		if exact.Timeline[i].Hours <= exact.Timeline[i-1].Hours {
			t.Fatalf("timeline not strictly increasing at %d", i)
		}
	}
}

// TestPrewarmMatchesSerialPricing pins Prewarm's contract: the cache a
// parallel Prewarm fills is byte-identical to the one cold serial
// Price calls build — same shapes, same prices, and no residual
// simulations triggered when the stream then prices on demand.
func TestPrewarmMatchesSerialPricing(t *testing.T) {
	m := cluster.Dardel()
	s := Synth{Tenants: 4, Users: 2, SubmitMeanHours: 8, SpanHours: 400, Seed: 9}
	stream, err := Synthesize(m, s)
	if err != nil {
		t.Fatal(err)
	}
	cold := NewPricer(m, 5, 6)
	warm := NewPricer(m, 5, 6)
	if err := warm.Prewarm(stream, 4); err != nil {
		t.Fatal(err)
	}
	shapes := warm.Shapes()
	if shapes == 0 {
		t.Fatal("Prewarm priced nothing")
	}
	for _, j := range stream {
		cp, err := cold.Price(j.Spec)
		if err != nil {
			t.Fatal(err)
		}
		wp, err := warm.Price(j.Spec)
		if err != nil {
			t.Fatal(err)
		}
		if cp != wp {
			t.Fatalf("job %d: prewarmed price %+v != serial price %+v", j.ID, wp, cp)
		}
	}
	if warm.Shapes() != shapes {
		t.Fatalf("pricing the prewarmed stream simulated %d extra shapes", warm.Shapes()-shapes)
	}
	if cold.Shapes() != shapes {
		t.Fatalf("serial pricing saw %d shapes, Prewarm saw %d", cold.Shapes(), shapes)
	}
	// Idempotence: a second Prewarm on a warmed cache is free.
	if err := warm.Prewarm(stream, 4); err != nil {
		t.Fatal(err)
	}
	if warm.Shapes() != shapes {
		t.Fatal("re-Prewarm grew the cache")
	}
}
