package sched

import (
	"math"
	"slices"
	"testing"

	"picmcio/internal/cluster"
	"picmcio/internal/fault"
	"picmcio/internal/sim"
	"picmcio/internal/xrand"
)

// realismHarness prices one size class on a machine and returns the
// pieces the deterministic kill tests aim with: the stream-ready spec,
// the full-job service hours, and the per-epoch checkpoint spacing.
func realismHarness(t *testing.T, m cluster.Machine, class SizeClass, nodes int) (pr *Pricer, svcH, perEpochH float64) {
	t.Helper()
	pr = NewPricer(m, 7, 6)
	spec := class.Spec(m)
	spec.Nodes = nodes
	p, err := pr.Price(spec)
	if err != nil {
		t.Fatalf("price: %v", err)
	}
	epochs := class.Workload.Shape().Epochs
	if epochs <= 0 {
		t.Fatalf("harness class has no epochs")
	}
	return pr, p.ServiceHours, p.ServiceHours / float64(epochs)
}

func classJob(id int, tenant string, m cluster.Machine, class SizeClass, nodes int, submitH float64) Job {
	spec := class.Spec(m)
	spec.Nodes = nodes
	return Job{ID: id, Tenant: tenant, Class: class.Name, Nodes: nodes, SubmitHours: submitH, Spec: spec}
}

func near(got, want, tol float64) bool { return math.Abs(got-want) <= tol }

// TestFailureDuringFinalEpoch kills a lone job inside its final epoch:
// with NVMe-surviving staged state the continuation keeps both completed
// epochs, redoes only the final one (plus the restart overhead), and
// cannot restart until the failed node's repair window ends — the
// partition is exactly the job's width.
func TestFailureDuringFinalEpoch(t *testing.T) {
	m := cluster.Dardel()
	class := DefaultClasses()[0] // narrow: 2 nodes, 3 epochs
	pr, svcH, peH := realismHarness(t, m, class, 2)
	tKill := 2.5 * peH
	const repairH, overheadH = 5.0, 0.5
	cfg := Config{
		Machine: m, Nodes: 2, Seed: 7, Pricer: pr,
		Faults: FaultConfig{
			ArrivalHours:         []float64{tKill},
			RepairHours:          repairH,
			RestartOverheadHours: overheadH,
			Survival:             fault.SurviveNVMe,
		},
	}
	res, err := Run(cfg, FCFS, []Job{classJob(1, "a", m, class, 2, 0)})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	j := res.Jobs[0]
	if j.FailureKills != 1 || j.Segments != 2 || j.Preemptions != 0 {
		t.Fatalf("job absorbed %d failure kills in %d segments (%d preemptions), want 1 kill, 2 segments",
			j.FailureKills, j.Segments, j.Preemptions)
	}
	tol := 1e-6 * svcH
	// The kill lands half an epoch past the second checkpoint: 2 nodes ×
	// 0.5 epoch of service is redone.
	if wantLost := 2 * 0.5 * peH; !near(j.LostNodeHours, wantLost, tol) {
		t.Fatalf("lost %.6f node-hours, want %.6f (per-epoch %.4f)", j.LostNodeHours, wantLost, peH)
	}
	// Restart waits out the 2-wide partition's 1-node repair, then runs
	// overhead + the one lost epoch.
	if wantEnd := tKill + repairH + overheadH + peH; !near(j.EndHours, wantEnd, tol) {
		t.Fatalf("job ended at %.6f, want %.6f", j.EndHours, wantEnd)
	}
	if res.FailureKills != 1 || res.DownNodeHours != repairH {
		t.Fatalf("result counted %d kills, %.2f down node-hours, want 1, %.2f",
			res.FailureKills, res.DownNodeHours, repairH)
	}
	if res.RequeuedNodeHours <= 0 || res.LostNodeHours != j.LostNodeHours {
		t.Fatalf("requeued %.4f / lost %.4f node-hours inconsistent with the job's %.4f",
			res.RequeuedNodeHours, res.LostNodeHours, j.LostNodeHours)
	}
}

// TestPreemptZeroDrainedEpochs preempts a job before its first
// checkpoint: the continuation restarts from scratch (full service plus
// the checkpoint overhead) and every executed hour counts as lost.
func TestPreemptZeroDrainedEpochs(t *testing.T) {
	m := cluster.Dardel()
	class := DefaultClasses()[1] // medium: 4 nodes, 3 epochs
	pr, svcH, peH := realismHarness(t, m, class, 4)
	const tB, waitW, ckptH = 0.5, 1.0, 0.25
	if tB+waitW >= peH {
		t.Fatalf("trigger %.2f not inside the first epoch (%.2f)", tB+waitW, peH)
	}
	cfg := Config{
		Machine: m, Nodes: 4, Seed: 7, Pricer: pr,
		Preempt: PreemptConfig{MaxHeadWaitHours: waitW, CheckpointHours: ckptH},
	}
	stream := []Job{
		classJob(1, "hog", m, class, 4, 0),
		classJob(2, "newbie", m, class, 4, tB),
	}
	res, err := Run(cfg, FCFS, stream)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	hog, newbie := res.Jobs[0], res.Jobs[1]
	if hog.Preemptions != 1 || hog.Segments != 2 {
		t.Fatalf("hog absorbed %d preemptions in %d segments, want 1 in 2", hog.Preemptions, hog.Segments)
	}
	tol := 1e-6 * svcH
	// The preemption wake-up fires exactly when the head's wait crosses
	// the threshold, and the hog had banked no checkpoint.
	if wantStart := tB + waitW; !near(newbie.StartHours, wantStart, tol) {
		t.Fatalf("preempting job started at %.6f, want %.6f", newbie.StartHours, wantStart)
	}
	if wantLost := 4 * (tB + waitW); !near(hog.LostNodeHours, wantLost, tol) {
		t.Fatalf("hog lost %.6f node-hours, want %.6f (restart from scratch)", hog.LostNodeHours, wantLost)
	}
	// Continuation = checkpoint overhead + the full three epochs again,
	// starting after the preemptor's beneficiary finishes.
	if wantEnd := newbie.EndHours + ckptH + svcH; !near(hog.EndHours, wantEnd, tol) {
		t.Fatalf("hog ended at %.6f, want %.6f", hog.EndHours, wantEnd)
	}
	if res.Preemptions != 1 || res.FailureKills != 0 {
		t.Fatalf("result counted %d preemptions, %d failure kills, want 1, 0", res.Preemptions, res.FailureKills)
	}
}

// TestBackToBackKillsOfContinuation kills the same job twice — the
// second failure lands just after the continuation restarts, before any
// new checkpoint — so the job runs three segments and never banks an
// epoch until the third try.
func TestBackToBackKillsOfContinuation(t *testing.T) {
	m := cluster.Dardel()
	class := DefaultClasses()[0]
	pr, svcH, peH := realismHarness(t, m, class, 2)
	const repairH = 0.001
	t1 := 0.5 * peH
	t2 := t1 + repairH + 0.01 // shortly after the restart at t1+repairH
	cfg := Config{
		Machine: m, Nodes: 2, Seed: 7, Pricer: pr,
		Faults: FaultConfig{
			ArrivalHours: []float64{t1, t2},
			RepairHours:  repairH,
			Survival:     fault.SurviveNVMe,
		},
	}
	res, err := Run(cfg, FCFS, []Job{classJob(1, "a", m, class, 2, 0)})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	j := res.Jobs[0]
	if j.FailureKills != 2 || j.Segments != 3 {
		t.Fatalf("job absorbed %d kills in %d segments, want 2 in 3", j.FailureKills, j.Segments)
	}
	tol := 1e-6 * svcH
	// Neither segment reached a checkpoint: the final segment is the
	// whole job again, started at the second repair's end.
	if wantEnd := t2 + repairH + svcH; !near(j.EndHours, wantEnd, tol) {
		t.Fatalf("job ended at %.6f, want %.6f", j.EndHours, wantEnd)
	}
	if wantLost := 2 * (t1 + (t2 - (t1 + repairH))); !near(j.LostNodeHours, wantLost, tol) {
		t.Fatalf("lost %.6f node-hours, want %.6f", j.LostNodeHours, wantLost)
	}
}

// TestIdleFailureShrinksPool lands a failure on an empty partition: no
// job dies, but the node is out for the repair window and a
// full-partition job submitted meanwhile cannot start until it returns.
func TestIdleFailureShrinksPool(t *testing.T) {
	m := cluster.Dardel()
	class := DefaultClasses()[1]
	pr, svcH, _ := realismHarness(t, m, class, 4)
	const tFail, repairH, tSubmit = 1.0, 3.0, 2.0
	cfg := Config{
		Machine: m, Nodes: 4, Seed: 7, Pricer: pr,
		Faults: FaultConfig{ArrivalHours: []float64{tFail}, RepairHours: repairH},
	}
	res, err := Run(cfg, FCFS, []Job{classJob(1, "a", m, class, 4, tSubmit)})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.IdleFailures != 1 || res.FailureKills != 0 {
		t.Fatalf("counted %d idle failures, %d kills, want 1, 0", res.IdleFailures, res.FailureKills)
	}
	j := res.Jobs[0]
	tol := 1e-6 * svcH
	if wantStart := tFail + repairH; !near(j.StartHours, wantStart, tol) {
		t.Fatalf("job started at %.6f, want %.6f (after the repair window)", j.StartHours, wantStart)
	}
	if j.Segments != 1 || j.FailureKills != 0 {
		t.Fatalf("job ran %d segments with %d kills, want a clean single segment", j.Segments, j.FailureKills)
	}
}

// TestFairSharePickOrdersByUsage drives the pass directly: with equal
// waits, the job of the least-served tenant starts first regardless of
// queue position.
func TestFairSharePickOrdersByUsage(t *testing.T) {
	hog, light := pend(1, 4, 1, 5), pend(2, 4, 1, 5)
	hog.job.Tenant, light.job.Tenant = "hog", "light"
	e := passEngine(FairShare, 4, []*jobState{hog, light}, nil, map[string]float64{"hog": 100, "light": 1})
	if ids, bf := pickedIDs(e.pass()); !slices.Equal(ids, []int{2}) || bf[0] {
		t.Fatalf("FairShare picked jobs %v (backfilled %v), want only the light tenant's job 2, not backfilled", ids, bf)
	}
}

// TestRealismOffIsByteIdenticalToBaseline pins the refactor's
// no-feature path: a Config without preemption or failures must produce
// exactly the pre-realism result shape — one segment per job, no kill
// counters, wait arithmetic unchanged (covered byte-for-byte by the
// golden figsched test, spot-checked here).
func TestRealismOffIsByteIdenticalToBaseline(t *testing.T) {
	m := cluster.Dardel()
	pr := NewPricer(m, 7, 6)
	s := Synth{Tenants: 3, Users: 2, Seed: 5}
	mean, err := SubmitMeanForLoad(pr, m, s, 1.0, 32)
	if err != nil {
		t.Fatalf("calibrate: %v", err)
	}
	s.SubmitMeanHours = mean
	s.SpanHours = 60 * mean / 6
	stream, err := Synthesize(m, s)
	if err != nil {
		t.Fatalf("synthesize: %v", err)
	}
	res, err := Run(Config{Machine: m, Nodes: 32, Seed: 7, Pricer: pr}, EASY, stream)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, j := range res.Jobs {
		if j.Segments != 1 || j.Preemptions != 0 || j.FailureKills != 0 || j.LostNodeHours != 0 {
			t.Fatalf("clean run produced a multi-segment job: %+v", j)
		}
		if j.WaitHours != j.StartHours-j.SubmitHours {
			t.Fatalf("job %d wait %v != start-submit %v", j.ID, j.WaitHours, j.StartHours-j.SubmitHours)
		}
	}
	if res.Preemptions != 0 || res.FailureKills != 0 || res.DownNodeHours != 0 || res.LeaseOps != 2*len(stream) {
		t.Fatalf("clean run's failure accounting is not zero: %+v", res)
	}
	if res.UsageJain <= 0 || res.UsageJain > 1 {
		t.Fatalf("usage Jain %v outside (0, 1]", res.UsageJain)
	}
}

// TestKillAllocs: a kill counts its recovered epochs off the segment's
// nominal schedule without building one, so a preemption kill and a
// failure kill each allocate nothing. Each round re-admits the lone job
// with 2.5 of its 3 epochs done and kills it again.
func TestKillAllocs(t *testing.T) {
	m := cluster.Dardel()
	class := DefaultClasses()[0] // narrow: 2 nodes, 3 epochs
	pr, _, _ := realismHarness(t, m, class, 2)
	cfg := Config{Machine: m, Nodes: 4, Seed: 7, Pricer: pr,
		Preempt: PreemptConfig{MaxHeadWaitHours: 1, CheckpointHours: 0.25},
		Faults:  FaultConfig{RestartOverheadHours: 0.5, Survival: fault.SurviveNone}}
	e, err := newEngine(cfg, FCFS, []Job{classJob(1, "a", m, class, 2, 0)})
	if err != nil {
		t.Fatal(err)
	}
	st := e.arrivals[0]
	if err := e.enqueue(st); err != nil {
		t.Fatal(err)
	}
	e.next = 1
	if err := e.schedule(); err != nil {
		t.Fatal(err)
	}
	shape := st.price // the price the fresh job was admitted under
	for _, tc := range []struct {
		name      string
		byFailure bool
		kept      int32 // epochs the continuation keeps
	}{{"preemption", false, 2}, {"failure", true, 2 - drainLagEpochs}} {
		kill := func() {
			if len(e.queue) > 0 { // the previous round's continuation
				e.leave(st)
			}
			st.doneEpochs, st.segOverheadH, st.segSvcH, st.price = 0, 0, shape.ServiceHours, shape
			if err := e.admit(st, false); err != nil {
				t.Fatal(err)
			}
			st.remH = st.segSvcH - 2.5*st.perEpochH
			e.killRunning(st, tc.byFailure)
		}
		kill()
		if st.doneEpochs != tc.kept || len(e.run) != 0 || len(e.queue) != 1 {
			t.Fatalf("%s kill kept %d epochs, left %d running and %d queued; want %d kept, the job requeued",
				tc.name, st.doneEpochs, len(e.run), len(e.queue), tc.kept)
		}
		if n := testing.AllocsPerRun(20, kill); n != 0 {
			t.Errorf("a %s kill allocates %v objects, want 0", tc.name, n)
		}
	}
}

// TestRecoveredEpochsLedgerOracle: the engine's count of buffered
// checkpoints equals a fault.Ledger marked at the segment's nominal
// schedule — the k-th remaining checkpoint at overhead + k·perEpoch —
// on fixed cases and random ones, with t drawn exactly on a mark half
// the time.
func TestRecoveredEpochsLedgerOracle(t *testing.T) {
	e := &engine{}
	count := func(done, rem int, start, perEpoch, at float64) int {
		st := &jobState{epochs: int32(done + rem), doneEpochs: int32(done), segOverheadH: start, perEpochH: perEpoch}
		return int(e.recoveredEpochs(st, at, false))
	}
	ledger := func(rem int, start, perEpoch, at float64) int {
		l := &fault.Ledger{}
		for k := 1; k <= rem; k++ {
			l.Mark(sim.Time(start) + sim.Duration(k)*sim.Duration(perEpoch))
		}
		return l.BufferedEpochs(sim.Time(at))
	}
	// 3 epochs left after 4 done, the first checkpoint 0.5 h of overhead
	// plus one 2 h epoch in.
	for _, tc := range []struct {
		at   float64
		want int
	}{{0, 0}, {2.4, 0}, {2.5, 1}, {4.5, 2}, {6.5, 3}, {100, 3}} {
		if got := count(4, 3, 0.5, 2.0, tc.at); got != tc.want {
			t.Errorf("%d of 3 epochs buffered by t=%v, want %d", got, tc.at, tc.want)
		}
	}
	if got := count(4, 0, 1, 1, 100); got != 0 {
		t.Errorf("a segment with no epochs left recovers %d", got)
	}
	r := xrand.New(11)
	for i := 0; i < 2000; i++ {
		rem := r.Intn(65)
		start := []float64{0, 0.25, r.Float64() * 3}[r.Intn(3)]
		perEpoch := r.Float64() * 5
		at := r.Float64() * (start + float64(rem+1)*perEpoch)
		if rem > 0 && r.Intn(2) == 0 {
			at = start + float64(1+r.Intn(rem))*perEpoch
		}
		if got, want := count(r.Intn(4), rem, start, perEpoch, at), ledger(rem, start, perEpoch, at); got != want {
			t.Fatalf("rem=%d start=%v perEpoch=%v t=%v: engine counts %d, ledger %d", rem, start, perEpoch, at, got, want)
		}
	}
}
