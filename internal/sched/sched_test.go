package sched

import (
	"math"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"picmcio/internal/cluster"
	"picmcio/internal/fault"
	"picmcio/internal/units"
)

// passEngine sets up an engine for the direct pass tests: the clock at
// 10 h, the running set by hand with `free` nodes free beside its nodes,
// every tenant's usage from `usage`, and the queued jobs joined in the
// order given — through join, as enqueue and a kill's requeue put them,
// so the tenants' kept orders are the engine's own.
func passEngine(pol Policy, free int, queue, running []*jobState, usage map[string]float64) *engine {
	e := &engine{pol: pol, now: 10, run: running}
	for _, st := range running {
		e.busy += st.job.Nodes
	}
	e.cfg.Nodes = free + e.busy
	e.openLedger(queue)
	for _, st := range queue {
		st.tenant.usage = usage[st.job.Tenant]
		e.join(st)
	}
	return e
}

// pend is a queued job that has waited waitH at the 10 h clock, planned
// at svcH.
func pend(id, nodes int, waitH, svcH float64) *jobState {
	return &jobState{job: &Job{ID: id, Nodes: nodes}, enqH: 10 - waitH, price: Price{EstimateHours: svcH}}
}

// active is a running job predicted to release its nodes at endH.
func active(nodes int, endH float64) *jobState {
	return &jobState{job: &Job{Nodes: nodes}, touchH: endH, slowdown: 1}
}

// pickedIDs is the pass's picks as job IDs, in pick order, with each
// pick's backfill flag.
func pickedIDs(picks []pick) (ids []int, backfilled []bool) {
	for _, p := range picks {
		ids = append(ids, p.st.job.ID)
		backfilled = append(backfilled, p.backfilled)
	}
	return ids, backfilled
}

func TestFCFSHeadOfLineBlocking(t *testing.T) {
	// Queue: 4-node head fits, 8-node second blocks on 6 free, 2-node
	// third would fit but FCFS must not jump the blocker.
	e := passEngine(FCFS, 10, []*jobState{pend(1, 4, 1, 5), pend(2, 8, 1, 5), pend(3, 2, 1, 5)}, nil, nil)
	if ids, bf := pickedIDs(e.pass()); !slices.Equal(ids, []int{1}) || bf[0] {
		t.Fatalf("FCFS picked jobs %v (backfilled %v), want only job 1, not backfilled", ids, bf)
	}
}

func TestEASYBackfillsBehindReservation(t *testing.T) {
	// 6 free nodes; an 8-node job is blocked until the running 4-node
	// job releases at t=14 (shadow). A 2-node backfill that finishes by
	// then (service 3h < 4h) must start; a 2-node job that would overrun
	// the shadow may still start only on the spare nodes.
	e := passEngine(EASY, 6,
		[]*jobState{
			pend(1, 8, 10, 5), // blocked head (aged hardest: longest wait)
			pend(2, 2, 1, 3),  // finishes before shadow
			pend(3, 2, 1, 50), // overruns shadow: needs spare nodes
			pend(4, 2, 1, 50), // overruns shadow: no spare left after 3
		},
		[]*jobState{active(4, 14)}, nil)
	// Shadow: at t=14 avail = 6+4 = 10 ≥ 8, spare = 2. Job 2 backfills
	// (ends 13 ≤ 14); job 3 takes the 2 spare; job 4 must not start.
	ids, bf := pickedIDs(e.pass())
	if !slices.Equal(ids, []int{2, 3}) {
		t.Fatalf("EASY backfilled jobs %v, want [2 3]", ids)
	}
	if !bf[0] || !bf[1] {
		t.Fatalf("picks %v backfilled %v: both start behind a reservation", ids, bf)
	}
}

// TestEASYBackfillsTheLastFreeNode: the pass's walk ends only once no
// node is free, so a 1-node job late in the order still takes the last.
func TestEASYBackfillsTheLastFreeNode(t *testing.T) {
	// 3 free nodes; the 8-node job 2 (aged hardest) is blocked until the
	// running 8-node job releases at t=14, leaving 3 spare. Job 1 runs
	// past 14 on 2 of the spare nodes; job 3 ends at 11 on the last free
	// node.
	e := passEngine(EASY, 3, []*jobState{pend(1, 2, 5, 5), pend(2, 8, 10, 5), pend(3, 1, 0, 1)}, []*jobState{active(8, 14)}, nil)
	if ids, bf := pickedIDs(e.pass()); !slices.Equal(ids, []int{1, 3}) || !bf[0] || !bf[1] {
		t.Fatalf("EASY picked jobs %v (backfilled %v), want 1 and 3, both backfilled", ids, bf)
	}
}

func TestEASYAgingPrioritizesOldWideJobs(t *testing.T) {
	// A wide job that has waited long outranks a fresh narrow one:
	// score(wide) = 20/2 - log2(16) = 6 > score(narrow) = 0/2 - 1 = -1.
	e := passEngine(EASY, 16, []*jobState{pend(1, 2, 0, 5), pend(2, 16, 20, 5)}, nil, nil)
	if ids, bf := pickedIDs(e.pass()); !slices.Equal(ids, []int{2}) || bf[0] {
		t.Fatalf("EASY started jobs %v (backfilled %v), want only the aged wide job (id 2), not backfilled", ids, bf)
	}
}

// TestReservationSameInstantReleases pins the reservation's tie rule:
// releases are counted running set first, then this pass's picks, and
// the count stops at the first release that covers the blocked job's
// need — so two releases at the shadow instant leave a spare count that
// depends on their order, and with it whether a long job may backfill
// on the spare nodes. Counting every release at the shadow instant
// would give the same spare count in every order.
func TestReservationSameInstantReleases(t *testing.T) {
	// 3 free nodes; the 5-node head is blocked until t=14, when a 6-node
	// and a 2-node job both release. The 3-node job behind it runs past
	// 14 and may start only on spare nodes.
	queue := func() []*jobState { return []*jobState{pend(1, 5, 30, 5), pend(2, 3, 0, 50)} }
	for _, tc := range []struct {
		name    string
		running []*jobState
		want    []int
	}{
		// 3+6 covers the need at the 6-node release: 4 spare.
		{"wide release first", []*jobState{active(6, 14), active(2, 14)}, []int{2}},
		// 3+2 covers it at the 2-node release: none spare.
		{"narrow release first", []*jobState{active(2, 14), active(6, 14)}, nil},
	} {
		e := passEngine(EASY, 3, queue(), tc.running, nil)
		if ids, _ := pickedIDs(e.pass()); !slices.Equal(ids, tc.want) {
			t.Errorf("%s: picked jobs %v, want %v", tc.name, ids, tc.want)
		}
	}
	// A running job and a job this pass starts, both releasing at t=14:
	// the running job's 2 nodes count first, covering the 5-node need
	// with none spare, so the 3-node job behind it must not start.
	e := passEngine(EASY, 9, []*jobState{pend(1, 6, 40, 4), pend(2, 5, 30, 5), pend(3, 3, 0, 50)}, []*jobState{active(2, 14)}, nil)
	if ids, bf := pickedIDs(e.pass()); !slices.Equal(ids, []int{1}) || bf[0] {
		t.Errorf("running set then starts: picked jobs %v (backfilled %v), want only job 1, not backfilled", ids, bf)
	}
}

// TestPickAllocs pins the allocation-free pass: once the engine's pass
// memory has grown to a 1000-deep queue whose second-priority job is
// blocked — so starts, the reservation and the backfill walk all run — a
// pass allocates nothing, for every policy.
func TestPickAllocs(t *testing.T) {
	for _, pol := range []Policy{FCFS, EASY, FairShare} {
		queue := []*jobState{pend(1, 4, 1000, 5), pend(2, 64, 900, 5)}
		for id := 3; id <= 1000; id++ {
			queue = append(queue, pend(id, 1+id%2, float64(id%17), float64(1+id%40)))
		}
		for i, st := range queue {
			st.job.Tenant = "light"
			if i >= 2 {
				st.job.Tenant = []string{"mid", "hog"}[i%2]
			}
		}
		var running []*jobState
		for i := 0; i < 12; i++ {
			running = append(running, active(8, 12+float64(i%5)))
		}
		e := passEngine(pol, 10, queue, running, map[string]float64{"light": 0, "mid": 10, "hog": 100})
		picks := e.pass() // grow the pass memory to this queue's depth
		backfilled := 0
		for _, p := range picks {
			if p.backfilled {
				backfilled++
			}
		}
		if len(picks) == 0 || (pol != FCFS && backfilled == 0) {
			t.Fatalf("%s: picked %d jobs, %d backfilled — the pass under test did not run", pol.Name(), len(picks), backfilled)
		}
		if n := testing.AllocsPerRun(20, func() { e.pass() }); n != 0 {
			t.Errorf("%s: %v allocations per warmed pass, want 0", pol.Name(), n)
		}
	}
}

func TestPoliciesResolver(t *testing.T) {
	for _, pol := range []Policy{FCFS, EASY, FairShare} {
		if got, err := Policies(pol.Name()); err != nil || got != pol {
			t.Fatalf("Policies(%q) = %v, %v; want %v", pol.Name(), got, err, pol)
		}
	}
	for _, name := range []string{"lottery", "easy", "fair"} {
		if _, err := Policies(name); err == nil {
			t.Fatalf("Policies(%q) = nil error, want failure", name)
		}
	}
}

func TestPricerMemoizesShapes(t *testing.T) {
	m := cluster.Discoverer()
	pr := NewPricer(m, 42, 6)
	c := DefaultClasses()[0]
	p1, err := pr.Price(c.Spec(m))
	if err != nil {
		t.Fatal(err)
	}
	// A second job of the same shape — another name, a fault — must hit
	// the cache, and a warm Price is a map lookup that allocates nothing.
	s2 := c.Spec(m)
	s2.Name = "other-job"
	s2.Fault = &fault.Spec{KillEpoch: 1, KillFrac: 0.5}
	p2, err := pr.Price(s2)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Shapes() != 1 {
		t.Fatalf("Shapes() = %d after two same-shape prices, want 1", pr.Shapes())
	}
	if a := testing.AllocsPerRun(100, func() { pr.Price(s2) }); a != 0 {
		t.Errorf("a warm Price allocates %v objects, want 0", a)
	}
	if p1 != p2 {
		t.Fatalf("same shape priced differently: %+v vs %+v", p1, p2)
	}
	if p1.ServiceHours <= 0 || p1.DrainBps <= 0 {
		t.Fatalf("degenerate price %+v", p1)
	}
	if p1.IOFrac < 0 || p1.IOFrac > 1 {
		t.Fatalf("IOFrac %v outside [0,1]", p1.IOFrac)
	}
	// The event loop prices a job once, when it joins the queue, and
	// plans with that price at every later decision point: sound only if
	// a run leaves every price bit-identical.
	stream := testStream(t, m, 42)
	before := make([]Price, len(stream))
	for i, j := range stream {
		if before[i], err = pr.Price(j.Spec); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Run(Config{Machine: m, Nodes: 24, Seed: 42, Pricer: pr}, EASY, stream); err != nil {
		t.Fatal(err)
	}
	for i, j := range stream {
		after, err := pr.Price(j.Spec)
		if err != nil {
			t.Fatal(err)
		}
		if after != before[i] {
			t.Fatalf("job %d: price moved across a run: %+v -> %+v", j.ID, before[i], after)
		}
	}
}

func testStream(t *testing.T, m cluster.Machine, seed uint64) []Job {
	t.Helper()
	js, err := Synthesize(m, Synth{
		Tenants:         8,
		Users:           3,
		SubmitMeanHours: 6,
		SpanHours:       24,
		Seed:            seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(js) < 20 {
		t.Fatalf("synthesized only %d jobs; test wants a real queue", len(js))
	}
	return js
}

func TestRunCompletesEveryJob(t *testing.T) {
	m := cluster.Discoverer()
	cfg := Config{Machine: m, Nodes: 24, Seed: 7}
	stream := testStream(t, m, 7)
	res, err := Run(cfg, FCFS, stream)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != len(stream) {
		t.Fatalf("completed %d of %d jobs", len(res.Jobs), len(stream))
	}
	if res.LeaseOps != 2*len(stream) {
		t.Fatalf("LeaseOps = %d, want %d (one admission and one retirement per job)", res.LeaseOps, 2*len(stream))
	}
	for i, j := range res.Jobs {
		if j.ID != stream[i].ID {
			t.Fatalf("results not in submission-ID order at %d", i)
		}
		if j.StartHours < j.SubmitHours {
			t.Fatalf("job %d started before submission", j.ID)
		}
		if j.EndHours <= j.StartHours {
			t.Fatalf("job %d has non-positive runtime", j.ID)
		}
		if j.StretchX < 1-1e-9 {
			t.Fatalf("job %d finished faster than its isolated service time (stretch %v)", j.ID, j.StretchX)
		}
		if math.Abs(j.WaitHours-(j.StartHours-j.SubmitHours)) > 1e-9 {
			t.Fatalf("job %d wait inconsistent", j.ID)
		}
	}
	if u := res.Utilization(); u <= 0 || u > 1 {
		t.Fatalf("utilization %v outside (0,1]", u)
	}
	if res.Makespan <= 0 {
		t.Fatal("zero makespan")
	}
	if f := res.JainTenants(); f <= 0 || f > 1+1e-9 {
		t.Fatalf("Jain fairness %v outside (0,1]", f)
	}
	if got := len(res.TenantStats()); got != 8 {
		t.Fatalf("TenantStats has %d tenants, want 8", got)
	}
}

func TestRunDeterminism(t *testing.T) {
	m := cluster.Dardel()
	cfg := Config{Machine: m, Nodes: 24, Seed: 11}
	stream := testStream(t, m, 11)
	for _, pol := range []Policy{FCFS, EASY} {
		a, err := Run(cfg, pol, stream)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(cfg, pol, stream)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: two identical runs diverged", pol.Name())
		}
	}
}

func TestEASYBeatsFCFSOnMeanWait(t *testing.T) {
	// Under a queue with 16-node wide jobs mixed into narrow traffic,
	// EASY backfill must cut mean wait without losing utilization —
	// the property the figsched artifact reports at campaign scale.
	m := cluster.Discoverer()
	cfg := Config{Machine: m, Nodes: 24, Seed: 3}
	shared := NewPricer(m, cfg.Seed, 6)
	cfg.Pricer = shared
	s := Synth{Tenants: 8, Users: 4, SpanHours: 400, Seed: 3}
	mean, err := SubmitMeanForLoad(shared, m, s, 1.2, cfg.Nodes)
	if err != nil {
		t.Fatal(err)
	}
	s.SubmitMeanHours = mean
	js, err := Synthesize(m, s)
	if err != nil {
		t.Fatal(err)
	}
	if len(js) < 50 {
		t.Fatalf("only %d jobs at load 1.2 over %vh", len(js), s.SpanHours)
	}
	fcfs, err := Run(cfg, FCFS, js)
	if err != nil {
		t.Fatal(err)
	}
	easy, err := Run(cfg, EASY, js)
	if err != nil {
		t.Fatal(err)
	}
	if easy.Backfills == 0 {
		t.Fatal("EASY made no backfills on a congested queue")
	}
	if easy.MeanWaitHours() >= fcfs.MeanWaitHours() {
		t.Fatalf("EASY mean wait %.2fh not better than FCFS %.2fh",
			easy.MeanWaitHours(), fcfs.MeanWaitHours())
	}
	if easy.Utilization() < fcfs.Utilization()-1e-9 {
		t.Fatalf("EASY utilization %.3f below FCFS %.3f", easy.Utilization(), fcfs.Utilization())
	}
}

// TestEASYDeepBacklog is EASY backfill under a deep backlog: ~1300 jobs
// offered at 8× a 64-node partition's capacity, so the wait queue builds
// past 1000 entries and every decision point sorts priorities and
// reserves a shadow time at its worst realistic depth. The schedule is
// held exactly — peak queue depth, utilization and the delivered write
// bandwidth (the jobs' nominal bytes over the makespan), which moves if
// the scheduler or the contention model lengthens a schedule — and the
// run's allocations per job are bounded: they grow if a policy pass
// starts allocating per decision point again.
func TestEASYDeepBacklog(t *testing.T) {
	m := cluster.Dardel()
	pr := NewPricer(m, 1, 6)
	const partition = 64
	stream, err := streamAtLoad(pr, m, Synth{Tenants: 8, Users: 4, Seed: 1}, 8, partition, 1300)
	if err != nil {
		t.Fatal(err)
	}
	var totalBytes float64
	for _, j := range stream {
		sh := j.Spec.Workload.Shape()
		totalBytes += float64(sh.Epochs) * float64(sh.BytesPerNode) * float64(j.Nodes)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := Run(Config{Machine: m, Nodes: partition, Seed: 1, Pricer: pr}, EASY, stream)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if len(stream) != 1342 || len(res.Jobs) != len(stream) {
		t.Fatalf("scheduled %d of %d jobs, want 1342 of 1342", len(res.Jobs), len(stream))
	}
	if depth := peakQueueDepth(res); depth != 1223 {
		t.Errorf("backlog peaked at %d jobs, want 1223", depth)
	}
	f, err := frozen()
	if err != nil {
		t.Fatal(err)
	}
	// Exact where the frozen digests were recorded; elsewhere FMA fusion
	// may move the low bits (see frozen).
	if f.GOARCH == runtime.GOARCH {
		if u := res.Utilization(); u != 0.9725496472928296 {
			t.Errorf("utilization %v, want 0.9725496472928296", u)
		}
		if bw := totalBytes / (res.Makespan * 3600) / (1 << 20); bw != 0.4046929967906601 {
			t.Errorf("delivered %v MiB/s, want 0.4046929967906601", bw)
		}
	}
	perJob := float64(after.Mallocs-before.Mallocs) / float64(len(res.Jobs))
	t.Logf("allocations per scheduled job: %.2f", perJob)
	// Measured: 0.05 (every shape is priced before the run), and the same
	// under the race detector.
	if perJob > 0.17 {
		t.Errorf("%.2f allocations per scheduled job, want at most 0.17", perJob)
	}
}

// peakQueueDepth reconstructs the deepest backlog a run saw: +1 per
// submission, -1 per start, the largest prefix sum in time order, with a
// start at the instant of a submission taken first.
func peakQueueDepth(res *Result) int {
	type ev struct {
		at    float64
		delta int
	}
	evs := make([]ev, 0, 2*len(res.Jobs))
	for _, j := range res.Jobs {
		evs = append(evs, ev{j.SubmitHours, +1}, ev{j.StartHours, -1})
	}
	sort.Slice(evs, func(a, b int) bool {
		if evs[a].at != evs[b].at {
			return evs[a].at < evs[b].at
		}
		return evs[a].delta < evs[b].delta
	})
	depth, peak := 0, 0
	for _, e := range evs {
		depth += e.delta
		peak = max(peak, depth)
	}
	return peak
}

func TestRunValidation(t *testing.T) {
	m := cluster.Discoverer()
	cfg := Config{Machine: m, Nodes: 8, Seed: 1}
	c := DefaultClasses()[0]
	mk := func(id, nodes int, at float64) Job {
		s := c.Spec(m)
		s.Nodes = nodes
		return Job{ID: id, Tenant: "t", Class: c.Name, Nodes: nodes, SubmitHours: at, Spec: s}
	}
	if _, err := Run(cfg, FairShare+1, nil); err == nil || !strings.Contains(err.Error(), "unknown policy(3)") {
		t.Fatalf("policy 3: err = %v, want an unknown-policy error", err)
	}
	if _, err := Run(cfg, FCFS, []Job{mk(1, 2, 0), mk(1, 2, 1)}); err == nil {
		t.Fatal("duplicate job IDs accepted")
	}
	if _, err := Run(cfg, FCFS, []Job{mk(1, 9, 0)}); err == nil {
		t.Fatal("job wider than partition accepted")
	}
	// The partition checks cluster.Machine.Build makes, made without a build.
	for _, bad := range []Config{
		{Machine: m, Nodes: -1},
		{Machine: m, Nodes: m.MaxNodes + 1},
		{Machine: cluster.Machine{Name: "empty"}},
	} {
		if _, err := Run(bad, FCFS, []Job{mk(1, 1, 0)}); err == nil || !strings.HasPrefix(err.Error(), "sched: ") {
			t.Errorf("%d-node partition of %s: err = %v, want a config error", bad.Nodes, bad.Machine.Name, err)
		}
	}
	bad := mk(1, 2, 0)
	bad.Spec.Nodes = 4
	if _, err := Run(cfg, FCFS, []Job{bad}); err == nil {
		t.Fatal("spec/job node mismatch accepted")
	}
	// A non-finite submit time is the stream's fault, not the policy's:
	// the error must name the job rather than report a deadlock (NaN,
	// +Inf) or succeed with StartHours=-Inf and WaitHours=NaN (-Inf).
	for _, at := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, err := Run(cfg, FCFS, []Job{mk(1, 2, 0), mk(7, 2, at)})
		if err == nil || !strings.Contains(err.Error(), "job 7") || strings.Contains(err.Error(), "deadlocked") {
			t.Errorf("submit time %v: err = %v, want a validation error naming job 7", at, err)
		}
	}
}

// TestPolicyMisbehaviourIsAnError: the engine's own checks on what a
// pass leads to — a start wider than the free nodes, a queue no event
// can ever serve — fail the run with an error naming the policy, never
// a panic, never a spin. A sound pass cannot trip either, so each case
// breaks the engine's state by hand: nodes taken down behind the
// ledger's back, with no repair to bring them back.
func TestPolicyMisbehaviourIsAnError(t *testing.T) {
	m := cluster.Discoverer()
	cfg := Config{Machine: m, Nodes: 8, Seed: 1}
	c := DefaultClasses()[0]
	var stream []Job
	for id := 1; id <= 5; id++ {
		s := c.Spec(m)
		s.Nodes = 4
		stream = append(stream, Job{ID: id, Tenant: "t", Class: c.Name, Nodes: 4, SubmitHours: 0, Spec: s})
	}
	cases := []struct {
		name string
		run  func(e *engine) error
		want string
	}{
		{"wider than free", func(e *engine) error {
			if err := e.enqueue(e.arrivals[0]); err != nil {
				return err
			}
			e.downNodes = 6
			return e.admit(e.queue[0], false)
		}, "overcommitted: 2 free node(s), asked for 4"},
		{"nothing ever", func(e *engine) error { e.downNodes = 8; return e.loop() }, "deadlocked with 5 queued job(s)"},
	}
	for _, tc := range cases {
		e, err := newEngine(cfg, EASY, stream)
		if err != nil {
			t.Fatal(err)
		}
		if err := tc.run(e); err == nil || !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), "policy easy-backfill") {
			t.Errorf("%s: err = %v, want one naming policy easy-backfill and %q", tc.name, err, tc.want)
		}
	}
}

func TestJobResultSlowdown(t *testing.T) {
	r := JobResult{StartHours: 10, EndHours: 16, WaitHours: 2, ServiceHours: 4}
	if got, want := r.Slowdown(), 2.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("Slowdown = %v, want %v", got, want)
	}
	zero := JobResult{}
	if zero.Slowdown() != 1 {
		t.Fatalf("zero-service Slowdown = %v, want 1", zero.Slowdown())
	}
}

func TestWaitQuantileAndTimeline(t *testing.T) {
	r := &Result{Nodes: 10, Makespan: 10,
		Jobs: []JobResult{
			{WaitHours: 0}, {WaitHours: 1}, {WaitHours: 2}, {WaitHours: 3}, {WaitHours: 40},
		},
		Timeline: []UtilSample{{Hours: 0, Busy: 10}, {Hours: 5, Busy: 0}},
	}
	if got := r.WaitQuantile(0.5); got != 2 {
		t.Fatalf("median wait %v, want 2", got)
	}
	if got := r.WaitQuantile(1); got != 40 {
		t.Fatalf("max wait %v, want 40", got)
	}
	if got := r.Utilization(); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("utilization %v, want 0.5", got)
	}
}

func TestDefaultClassesWellFormed(t *testing.T) {
	m := cluster.Vega()
	for _, c := range DefaultClasses() {
		if c.Weight <= 0 || c.Nodes <= 0 {
			t.Fatalf("class %q degenerate: %+v", c.Name, c)
		}
		s := c.Spec(m)
		if s.Nodes != c.Nodes || s.Workload.Shape().BytesPerNode < 64*units.MiB {
			t.Fatalf("class %q spec malformed: %+v", c.Name, s)
		}
		if c.Direct && s.Burst.CapacityBytes != 0 {
			t.Fatalf("direct class %q still staging", c.Name)
		}
		if !c.Direct && s.Burst.CapacityBytes == 0 {
			t.Fatalf("staged class %q lost its burst preset", c.Name)
		}
	}
}

// TestPricerEstimateError: the padding multiplier stamps EstimateHours
// on both the first price and cache hits, without disturbing the cached
// ground truth.
func TestPricerEstimateError(t *testing.T) {
	m := cluster.Discoverer()
	pr := NewPricer(m, 42, 6)
	spec := DefaultClasses()[0].Spec(m)
	p0, err := pr.Price(spec)
	if err != nil {
		t.Fatal(err)
	}
	if p0.EstimateHours != p0.ServiceHours {
		t.Fatalf("oracle default: estimate %v != service %v", p0.EstimateHours, p0.ServiceHours)
	}
	pr.EstimateError = 0.5
	p1, err := pr.Price(spec) // cache hit: no re-simulation
	if err != nil {
		t.Fatal(err)
	}
	if pr.Shapes() != 1 {
		t.Fatalf("Shapes() = %d, want the cache hit", pr.Shapes())
	}
	if want := p0.ServiceHours * 1.5; math.Abs(p1.EstimateHours-want) > 1e-12 {
		t.Fatalf("padded estimate %v, want %v", p1.EstimateHours, want)
	}
	if p1.ServiceHours != p0.ServiceHours {
		t.Fatalf("padding disturbed ground truth: %v vs %v", p1.ServiceHours, p0.ServiceHours)
	}
}

// TestEstimateErrorShrinksBackfillAdvantage: backfill plans against the
// padded estimates, so inflating walltime requests must cost backfill
// opportunities and eat into EASY's mean-wait advantage over FCFS — the
// classic result that backfill quality degrades with estimate quality.
func TestEstimateErrorShrinksBackfillAdvantage(t *testing.T) {
	m := cluster.Discoverer()
	cfg := Config{Machine: m, Nodes: 32, Seed: 1}
	shared := NewPricer(m, cfg.Seed, 6)
	cfg.Pricer = shared
	s := Synth{Tenants: 8, Users: 4, SpanHours: 400, Seed: 1}
	mean, err := SubmitMeanForLoad(shared, m, s, 0.9, cfg.Nodes)
	if err != nil {
		t.Fatal(err)
	}
	s.SubmitMeanHours = mean
	js, err := Synthesize(m, s)
	if err != nil {
		t.Fatal(err)
	}
	fcfs, err := Run(cfg, FCFS, js)
	if err != nil {
		t.Fatal(err)
	}
	easyOracle, err := Run(cfg, EASY, js)
	if err != nil {
		t.Fatal(err)
	}
	shared.EstimateError = 3.0 // 4× walltime padding, the cache is reused
	easyPadded, err := Run(cfg, EASY, js)
	if err != nil {
		t.Fatal(err)
	}
	if easyPadded.Backfills >= easyOracle.Backfills {
		t.Errorf("padding grew backfills: %d with 4× estimates vs %d with the oracle",
			easyPadded.Backfills, easyOracle.Backfills)
	}
	advOracle := fcfs.MeanWaitHours() - easyOracle.MeanWaitHours()
	advPadded := fcfs.MeanWaitHours() - easyPadded.MeanWaitHours()
	if advOracle <= 0 {
		t.Fatalf("oracle EASY shows no advantage to shrink: %v", advOracle)
	}
	if advPadded >= advOracle {
		t.Errorf("EASY advantage grew under padded estimates: %.3fh vs %.3fh oracle",
			advPadded, advOracle)
	}
	// Padded estimates must not change any job's true service time.
	if easyPadded.Utilization() <= 0 {
		t.Errorf("padded run degenerate: utilization %v", easyPadded.Utilization())
	}
}
