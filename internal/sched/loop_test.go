package sched

import (
	"testing"

	"picmcio/internal/cluster"
)

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
