package fault_test

import (
	"math"
	"testing"

	"picmcio/internal/burst"
	"picmcio/internal/fault"
	"picmcio/internal/lustre"
	"picmcio/internal/pfs"
	"picmcio/internal/sim"
	"picmcio/internal/xrand"
)

const dMB = 1_000_000

func TestSpecValidate(t *testing.T) {
	ok := fault.Spec{KillEpoch: 2, KillFrac: 0.5, Node: 1}
	if err := ok.Validate(4, 5); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
	for name, s := range map[string]fault.Spec{
		"epoch past end": {KillEpoch: 5},
		"negative epoch": {KillEpoch: -1},
		"frac at 1":      {KillFrac: 1},
		"node past end":  {Node: 4},
		"negative delay": {RestartDelay: -1},
	} {
		if err := s.Validate(4, 5); err == nil {
			t.Errorf("%s: invalid spec accepted", name)
		}
	}
	// WholeJob ignores the victim node field.
	whole := fault.Spec{WholeJob: true, Node: 99}
	if err := whole.Validate(4, 5); err != nil {
		t.Errorf("whole-job spec rejected: %v", err)
	}
}

// TestLedgerQueries exercises the ledger's buffered count and Assess's
// durable position: a PFS-durable epoch count is clamped to the buffered
// count, and a negative one (no staging tier) makes every buffered epoch
// durable.
func TestLedgerQueries(t *testing.T) {
	l := &fault.Ledger{}
	l.Mark(1.0)
	l.Mark(2.0)
	l.Mark(3.0)
	for _, tc := range []struct {
		t    sim.Time
		want int
	}{{0.5, 0}, {1.0, 1}, {2.5, 2}, {9, 3}} {
		if got := l.BufferedEpochs(tc.t); got != tc.want {
			t.Errorf("BufferedEpochs(%v) = %d, want %d", tc.t, got, tc.want)
		}
	}
	for _, tc := range []struct {
		t             sim.Time
		durable, want int
	}{{9, 0, 0}, {9, 1, 1}, {9, 2, 2}, {9, 3, 3}, {9, 5, 3}, {9, -1, 3}, {2.5, 3, 2}, {2.5, -1, 2}, {0.5, -1, 0}} {
		if got := fault.Assess(fault.Spec{KillEpoch: 2}, l, tc.t, tc.durable).DurableEpochs; got != tc.want {
			t.Errorf("Assess(t=%v, durable=%d).DurableEpochs = %d, want %d", tc.t, tc.durable, got, tc.want)
		}
	}
}

// TestAssess checks the lost-work math at both survivability levels.
func TestAssess(t *testing.T) {
	l := &fault.Ledger{}
	l.Mark(1.0)
	l.Mark(2.0)
	l.Mark(3.0)

	// Killed during epoch 2's compute (3 epochs buffered), with only
	// epoch 0 drained back: node loss rolls back two epochs, surviving
	// NVMe loses none.
	spec := fault.Spec{KillEpoch: 2, Survival: fault.SurviveNone}
	r := fault.Assess(spec, l, 3.5, 1)
	if r.BufferedEpochs != 3 || r.DurableEpochs != 1 {
		t.Fatalf("positions %d/%d, want 3 buffered / 1 durable", r.BufferedEpochs, r.DurableEpochs)
	}
	if r.LostEpochsBuffered != 0 || r.LostEpochsPFS != 2 {
		t.Fatalf("lost %d/%d, want 0 buffered / 2 PFS", r.LostEpochsBuffered, r.LostEpochsPFS)
	}
	if r.RestartEpoch != 1 {
		t.Fatalf("restart epoch %d under SurviveNone, want 1", r.RestartEpoch)
	}
	spec.Survival = fault.SurviveNVMe
	if r := fault.Assess(spec, l, 3.5, 1); r.RestartEpoch != 3 {
		t.Fatalf("restart epoch %d under SurviveNVMe, want 3", r.RestartEpoch)
	}

	// A straggler kill mid-write: epoch 1's writes incomplete, so even
	// buffered recovery loses an epoch.
	spec = fault.Spec{KillEpoch: 1}
	if r := fault.Assess(spec, l, 1.5, -1); r.LostEpochsBuffered != 1 || r.LostEpochsPFS != 1 {
		t.Fatalf("straggler lost %d/%d, want 1/1 (durable clamped to buffered)", r.LostEpochsBuffered, r.LostEpochsPFS)
	}
}

// TestArmEndToEnd injects a failure into a one-node staged writer: the
// victim dies mid-sleep, its queued staged bytes are destroyed, and the
// restart callback resumes from the PFS-durable epoch.
func TestArmEndToEnd(t *testing.T) {
	k := sim.NewKernel()
	back := lustre.New(k, lustre.DefaultParams())
	tier := burst.NewTier(k, burst.Spec{
		CapacityBytes: 64 * dMB, Rate: 1e12, DrainRate: 1e6, Policy: burst.PolicyEpochEnd,
	}, back)
	c := &pfs.Client{Node: 0, NIC: sim.NewServer(k, 25e9, 0)}
	led := &fault.Ledger{}

	write := func(p *sim.Proc, path string, n int64) {
		f, err := tier.FS().Create(p, c, path)
		if err != nil {
			t.Fatal(err)
		}
		f.WriteAt(p, c, 0, n, nil)
		f.Close(p, c)
	}

	epochsRun := 0
	victim := k.Spawn("writer", func(p *sim.Proc) {
		for e := 0; e < 4; e++ {
			write(p, pathOf(e), dMB)
			led.Mark(p.Now())
			tier.DrainEpoch(p)
			epochsRun++
			p.Sleep(1.5) // drains one segment per 1.5 s window at 1e6 B/s
		}
	})

	restartedFrom := -1
	var resumed int
	spec := fault.Spec{KillEpoch: 2, Survival: fault.SurviveNone, RestartDelay: 2.0}
	// Kill inside epoch 2's compute window. Epoch boundaries land near
	// t = 0, 1.5, 3.0 (writes and metadata cost only milliseconds), so
	// t = 3.5 is mid-epoch-2 with epoch 0 drained and epoch 1 in flight.
	// Every epoch stages dMB, so the drained counter counts whole epochs
	// written back.
	durable := func() int { return int(tier.NodeStats(0).DrainedBytes / dMB) }
	inj := fault.ArmWith(k, 3.5, spec, []fault.Victim{{Proc: victim, Node: 0}}, tier, led, durable,
		func(p *sim.Proc, from int) {
			restartedFrom = from
			for e := from; e < 4; e++ {
				write(p, pathOf(e), dMB)
				resumed++
			}
			tier.WaitDrained(p)
		})
	k.Run()

	if epochsRun != 3 {
		t.Errorf("victim ran %d epochs before dying, want 3 (killed mid-epoch 2)", epochsRun)
	}
	rep := inj.Report
	if rep == nil {
		t.Fatal("injection never fired")
	}
	if rep.BufferedEpochs != 3 {
		t.Errorf("buffered position %d, want 3", rep.BufferedEpochs)
	}
	// At t=3.5 the drain (started at the first nudge, one segment per
	// second) has completed epoch 0's and epoch 1's segments and holds
	// epoch 2's in flight or queued: durable position 2, one epoch lost.
	if rep.DurableEpochs != 2 || rep.LostEpochsPFS != 1 {
		t.Errorf("durable position %d lost %d, want 2 lost 1", rep.DurableEpochs, rep.LostEpochsPFS)
	}
	if restartedFrom != rep.DurableEpochs {
		t.Errorf("restarted from %d, want durable position %d", restartedFrom, rep.DurableEpochs)
	}
	if resumed != 4-rep.DurableEpochs {
		t.Errorf("restart re-ran %d epochs, want %d", resumed, 4-rep.DurableEpochs)
	}
	if got := tier.Durability(); got.PendingBytes != 0 {
		t.Errorf("pending %d after restart drain, want 0", got.PendingBytes)
	}
}

func pathOf(e int) string {
	return "/scratch/ckpt_" + string(rune('0'+e)) + ".dmp"
}

func TestExpectedFailures(t *testing.T) {
	// 1000 nodes for 24 h at a 480k-hour node MTBF: 24000/480000 = 0.05.
	got := fault.ExpectedFailures(480_000, 1000, 24*3600)
	if got < 0.0499 || got > 0.0501 {
		t.Errorf("ExpectedFailures = %v, want 0.05", got)
	}
	if fault.ExpectedFailures(0, 10, 100) != 0 || fault.ExpectedFailures(100, 0, 100) != 0 {
		t.Error("degenerate inputs must report 0")
	}
}

// TestExpectedFailuresEdgeCases pins the guard behavior campaign math
// relies on: degenerate inputs report an explicit 0 instead of leaking
// NaN/Inf into expected-loss aggregates, while legitimately extreme
// inputs (sub-hour MTBF) pass through finite.
func TestExpectedFailuresEdgeCases(t *testing.T) {
	inf := math.Inf(1)
	nan := math.NaN()
	cases := []struct {
		name  string
		mtbf  float64
		nodes int
		span  sim.Duration
		want  float64 // -1: any finite positive value
	}{
		{"zero span", 500e3, 1000, 0, 0},
		{"negative span", 500e3, 1000, -3600, 0},
		{"zero nodes", 500e3, 0, 24 * 3600, 0},
		{"negative nodes", 500e3, -4, 24 * 3600, 0},
		{"zero mtbf", 0, 1000, 24 * 3600, 0},
		{"negative mtbf", -1, 1000, 24 * 3600, 0},
		{"nan mtbf", nan, 1000, 24 * 3600, 0},
		{"inf mtbf", inf, 1000, 24 * 3600, 0},
		{"nan span", 500e3, 1000, sim.Duration(nan), 0},
		{"inf span", 500e3, 1000, sim.Duration(inf), 0},
		{"sub-hour mtbf", 0.5, 10, 3600, -1},
		{"everything degenerate", 0, 0, 0, 0},
	}
	for _, c := range cases {
		got := fault.ExpectedFailures(c.mtbf, c.nodes, c.span)
		if math.IsNaN(got) || math.IsInf(got, 0) {
			t.Errorf("%s: ExpectedFailures leaked %v", c.name, got)
			continue
		}
		if c.want == -1 {
			if got <= 0 {
				t.Errorf("%s: ExpectedFailures = %v, want finite positive", c.name, got)
			}
			continue
		}
		if got != c.want {
			t.Errorf("%s: ExpectedFailures = %v, want %v", c.name, got, c.want)
		}
	}
	// The sub-hour value itself: 10 node-hours at a 0.5 h MTBF = 20.
	if got := fault.ExpectedFailures(0.5, 10, 3600); got != 20 {
		t.Errorf("sub-hour MTBF expectation = %v, want 20", got)
	}
}

// TestArrivals pins the campaign sampler: guards mirror
// ExpectedFailures, times are strictly increasing inside the span, and
// the draw count tracks the analytic expectation.
func TestArrivals(t *testing.T) {
	// Degenerate inputs: no arrivals, never NaN-timed ones.
	for name, got := range map[string][]float64{
		"zero mtbf":  fault.Arrivals(xrand.New(1), 0, 10, 100),
		"zero nodes": fault.Arrivals(xrand.New(1), 100, 0, 100),
		"zero span":  fault.Arrivals(xrand.New(1), 100, 10, 0),
		"nan mtbf":   fault.Arrivals(xrand.New(1), math.NaN(), 10, 100),
		"inf span":   fault.Arrivals(xrand.New(1), 100, 10, math.Inf(1)),
	} {
		if got != nil {
			t.Errorf("%s: arrivals = %v, want nil", name, got)
		}
	}
	// λ = span·nodes/mtbf = 1000·10/100 = 100 expected arrivals.
	ts := fault.Arrivals(xrand.New(7), 100, 10, 1000)
	if len(ts) < 70 || len(ts) > 130 {
		t.Fatalf("arrivals = %d, want ~100", len(ts))
	}
	last := 0.0
	for _, x := range ts {
		if x <= last || x >= 1000 {
			t.Fatalf("arrival %v out of order or span (prev %v)", x, last)
		}
		last = x
	}
	// Same generator state ⇒ same draws (bit-reproducible campaigns).
	a := fault.Arrivals(xrand.New(9), 500e3, 2, 36)
	b := fault.Arrivals(xrand.New(9), 500e3, 2, 36)
	if len(a) != len(b) {
		t.Fatalf("replayed arrivals diverged: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replayed arrivals diverged at %d", i)
		}
	}
}

// TestArrivalsSchedulerScale exercises the sampler the way internal/sched
// reuses it — as a job-submission stream over large populations and long
// windows — where the failure campaigns never pushed it.
func TestArrivalsSchedulerScale(t *testing.T) {
	// Truncation: a population × span holding far more than 2^16 events
	// must clamp at exactly the documented cap, not allocate unboundedly.
	// λ = 10 000 nodes × 100 h / 1 h MTBF = 1e6 expected ≫ 65 536.
	ts := fault.Arrivals(xrand.New(3), 1, 10_000, 100)
	if len(ts) != 1<<16 {
		t.Fatalf("oversaturated draw returned %d arrivals, want the 1<<16 cap", len(ts))
	}
	last := 0.0
	for i, x := range ts {
		if x <= last || x >= 100 {
			t.Fatalf("arrival %d = %v out of order or span (prev %v)", i, x, last)
		}
		last = x
	}

	// Rate sanity at submission-sampler parameters: 32 users with a mean
	// gap of 4 h each over 400 h ⇒ λ = 32·400/(4·32)·... i.e. span·users/
	// meanGapTotal = 400·32/128 = 100 expected submissions.
	subs := fault.Arrivals(xrand.New(11), 128, 32, 400)
	if len(subs) < 70 || len(subs) > 130 {
		t.Fatalf("submission-scale draw = %d arrivals, want ~100", len(subs))
	}

	// SeedAt-derived streams: the scheduler gives every tenant its own
	// derived seed. Equal derivations replay identically; sibling indices
	// must not alias each other's streams.
	base := uint64(42)
	s0 := fault.Arrivals(xrand.New(xrand.SeedAt(base, 0)), 128, 32, 400)
	s0again := fault.Arrivals(xrand.New(xrand.SeedAt(base, 0)), 128, 32, 400)
	s1 := fault.Arrivals(xrand.New(xrand.SeedAt(base, 1)), 128, 32, 400)
	if len(s0) == 0 || len(s1) == 0 {
		t.Fatal("derived streams empty")
	}
	if len(s0) != len(s0again) {
		t.Fatalf("same derived seed diverged: %d vs %d arrivals", len(s0), len(s0again))
	}
	for i := range s0 {
		if s0[i] != s0again[i] {
			t.Fatalf("same derived seed diverged at %d", i)
		}
	}
	alias := len(s0) == len(s1)
	if alias {
		for i := range s0 {
			if s0[i] != s1[i] {
				alias = false
				break
			}
		}
	}
	if alias {
		t.Fatal("sibling SeedAt indices produced identical streams")
	}
}
