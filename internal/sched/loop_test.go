package sched

import (
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"unsafe"

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
	exact, err := Run(cfg, FCFS, stream)
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

// TestRunLeavesStreamUntouched: Run reads the caller's stream in place —
// the engine and the policies' views point into it — and must leave it
// exactly as it was, also with two Runs on one stream at once (run under
// -race). The stream is handed over out of submission order, so Run's
// arrival sort has something to do, and with kills on, so continuations
// are requeued from it.
func TestRunLeavesStreamUntouched(t *testing.T) {
	c := realismCases(t)[0]
	if err := c.cfg.Pricer.Prewarm(c.stream, 1); err != nil {
		t.Fatal(err) // the shared pricer is read-only once warm
	}
	stream := slices.Clone(c.stream)
	slices.Reverse(stream)
	want := slices.Clone(stream)
	var res [2]*Result
	var errs [2]error
	var wg sync.WaitGroup
	for i := range res {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res[i], errs[i] = Run(c.cfg, FairShare, stream)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	if !reflect.DeepEqual(stream, want) {
		t.Fatal("Run changed the stream it was given")
	}
	if !reflect.DeepEqual(res[0], res[1]) {
		t.Fatal("two Runs on one stream diverged")
	}
	if res[0].Preemptions == 0 || res[0].FailureKills == 0 {
		t.Fatalf("%d preemptions and %d failure kills: the case requeues nothing", res[0].Preemptions, res[0].FailureKills)
	}
	for k, j := range res[0].Jobs {
		if j.ID != c.stream[k].ID {
			t.Fatalf("result %d is job %d, want job %d: results go in ID order", k, j.ID, c.stream[k].ID)
		}
	}
}

// TestPreemptRoundAllocs: a preemption round gathers and orders its
// candidates in a buffer the engine keeps, so a round allocates nothing.
// Three hog jobs of two nodes and a newbie's two-node job fill an 8-node
// partition; the newbie's 8-node head has waited past the threshold, the
// hog out-uses the newbie, and its 6 nodes cannot cover the head's 8:
// every round sorts three candidates and declines.
func TestPreemptRoundAllocs(t *testing.T) {
	m := cluster.Dardel()
	class := DefaultClasses()[0] // narrow: 2 nodes
	pr, _, _ := realismHarness(t, m, class, 2)
	cfg := Config{Machine: m, Nodes: 8, Seed: 7, Pricer: pr,
		Preempt: PreemptConfig{MaxHeadWaitHours: 1, CheckpointHours: 0.25}}
	stream := []Job{
		classJob(1, "hog", m, class, 2, 0),
		classJob(2, "hog", m, class, 2, 0),
		classJob(3, "hog", m, class, 2, 0),
		classJob(4, "newbie", m, class, 2, 0),
		classJob(5, "newbie", m, class, 8, 0),
	}
	e, err := newEngine(cfg, FCFS, stream)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range e.arrivals {
		if err := e.enqueue(st); err != nil {
			t.Fatal(err)
		}
	}
	e.next = len(e.arrivals)
	if err := e.schedule(); err != nil {
		t.Fatal(err)
	}
	e.advance(2)
	if len(e.run) != 4 || e.free() != 0 || e.headEnt().job.ID != 5 {
		t.Fatalf("%d running, %d free, head %d: not the state under test", len(e.run), e.free(), e.headEnt().job.ID)
	}
	if e.maybePreempt() || len(e.cands) != 3 {
		t.Fatalf("the round weighed %d candidates and preempted; want 3 weighed, none preempted", len(e.cands))
	}
	if n := testing.AllocsPerRun(20, func() { e.maybePreempt() }); n != 0 {
		t.Errorf("a preemption round allocates %v objects, want 0", n)
	}
}

// TestNodeLedgerAudit: the engine checks its node ledger after every
// event, and a breach is an error naming the time and the counts rather
// than a schedule quietly built on it.
func TestNodeLedgerAudit(t *testing.T) {
	m := cluster.Dardel()
	class := DefaultClasses()[0]
	pr, _, _ := realismHarness(t, m, class, 2)
	setup := func() *engine {
		e, err := newEngine(Config{Machine: m, Nodes: 4, Seed: 7, Pricer: pr}, FCFS, []Job{classJob(1, "a", m, class, 2, 0)})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.enqueue(e.arrivals[0]); err != nil {
			t.Fatal(err)
		}
		e.next = 1
		if err := e.schedule(); err != nil {
			t.Fatal(err)
		}
		e.advance(0.5)
		return e
	}
	if _, err := setup().nextEnd(); err != nil {
		t.Fatalf("a sound ledger fails its audit: %v", err)
	}
	for _, tc := range []struct {
		name   string
		breach func(e *engine) error
		want   []string
	}{
		{"busy drifts from the running set", func(e *engine) error { e.busy++; _, err := e.nextEnd(); return err },
			[]string{"t=0.5", "3 busy", "hold 2"}},
		{"busy and down overflow the partition", func(e *engine) error { e.downNodes = 3; _, err := e.nextEnd(); return err },
			[]string{"t=0.5", "3 down", "4-node"}},
		{"a job retires twice", func(e *engine) error { e.run[0].retired = true; return e.completeAt(e.run[0].endOf()) },
			[]string{"job 1 retired twice"}},
		{"a job never retires", func(e *engine) error { e.run, e.busy = nil, 0; return e.loop() },
			[]string{"0 of 1 jobs retired", "t=0.5"}},
	} {
		err := tc.breach(setup())
		for _, w := range tc.want {
			if err == nil || !strings.Contains(err.Error(), w) {
				t.Errorf("%s: err = %v, want it to name %q", tc.name, err, w)
			}
		}
	}
}

// TestJobStateSize pins the per-job record to the 128-byte size class:
// Run allocates one per job, in one slab, and a field that pushed it
// past 128 bytes would move every Run's slab into the next class.
func TestJobStateSize(t *testing.T) {
	if n := unsafe.Sizeof(jobState{}); n > 128 {
		t.Errorf("jobState is %d bytes, want at most 128", n)
	}
}
