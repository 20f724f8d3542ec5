package jobs_test

import (
	"math"
	"testing"

	"picmcio/internal/burst"
	"picmcio/internal/cluster"
	"picmcio/internal/fault"
	"picmcio/internal/jobs"
	"picmcio/internal/units"
)

// testSpecs is the canonical two-job contention scenario: a checkpoint-
// heavy staged job and a neighbour writing directly to the shared PFS,
// both striped across every OST so their traffic genuinely collides.
func testSpecs(qos burst.QoS) []jobs.Spec {
	staged := jobs.Spec{
		Name:  "ckpt",
		Nodes: 2,
		Burst: burst.Spec{
			CapacityBytes: 2 << 30,
			Rate:          6e9,
			PerOp:         25e-6,
			DrainRate:     3e9,
			Policy:        burst.PolicyEpochEnd,
			QoS:           qos,
		},
		Workload: jobs.BulkWriter{
			Epochs:          3,
			CheckpointBytes: 96 * units.MiB,
			DiagBytes:       32 * units.MiB,
			ComputeSec:      0.02,
		},
		StripeCount: -1,
	}
	direct := jobs.Spec{
		Name:  "direct",
		Nodes: 2,
		Workload: jobs.BulkWriter{
			Epochs:          3,
			CheckpointBytes: 96 * units.MiB,
			DiagBytes:       32 * units.MiB,
			ComputeSec:      0.02,
		},
		StripeCount: -1,
	}
	return []jobs.Spec{staged, direct}
}

func TestContentionInterferenceIsNonzero(t *testing.T) {
	specs := testSpecs(burst.QoS{})
	res, err := jobs.Contention(cluster.Dardel(), specs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != 2 {
		t.Fatalf("jobs=%d", len(res.Jobs))
	}
	for i, r := range res.Jobs {
		iso, err := jobs.Run(cluster.Dardel(), specs[i:i+1], 1)
		if err != nil {
			t.Fatal(err)
		}
		if r.BytesWritten != iso[0].BytesWritten || r.BytesWritten == 0 {
			t.Fatalf("job %s wrote %d co-scheduled vs %d isolated", r.Name, r.BytesWritten, iso[0].BytesWritten)
		}
	}
	// Co-scheduling must cost something: the direct job's writes queue
	// behind the staged job's drain traffic on the shared OSTs/backbone.
	if s := res.Slowdown[1]; s <= 1.0 {
		t.Errorf("direct job slowdown %.4f, want > 1.0 (interference must be nonzero)", s)
	}
	if res.MaxSlowdown() <= 1.0 {
		t.Errorf("max slowdown %.4f, want > 1.0", res.MaxSlowdown())
	}
}

func TestContentionFairnessIndexInUnitInterval(t *testing.T) {
	res, err := jobs.Contention(cluster.Dardel(), testSpecs(burst.QoS{}), 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Jain <= 0 || res.Jain > 1 {
		t.Errorf("Jain index %.4f, want in (0, 1]", res.Jain)
	}
	// Both jobs move the same bytes; shares should not be degenerate.
	if res.Jain < 1.0/float64(len(res.Jobs)) {
		t.Errorf("Jain index %.4f below the 1/n floor", res.Jain)
	}
}

func TestIsolatedRunsAreDeterministic(t *testing.T) {
	a, err := jobs.Run(cluster.Dardel(), testSpecs(burst.QoS{})[:1], 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := jobs.Run(cluster.Dardel(), testSpecs(burst.QoS{})[:1], 1)
	if err != nil {
		t.Fatal(err)
	}
	if a[0].DurableSec != b[0].DurableSec || a[0].ClientBps != b[0].ClientBps {
		t.Fatalf("runs diverged: %+v vs %+v", a[0], b[0])
	}
}

func TestStagedJobAbsorbsAndDrains(t *testing.T) {
	res, err := jobs.Run(cluster.Dardel(), testSpecs(burst.QoS{}), 1)
	if err != nil {
		t.Fatal(err)
	}
	staged := res[0]
	if staged.Burst == nil {
		t.Fatal("staged job must carry tier stats")
	}
	if staged.Burst.AbsorbedBytes == 0 || staged.Burst.DrainedBytes != staged.Burst.AbsorbedBytes {
		t.Fatalf("absorbed=%d drained=%d", staged.Burst.AbsorbedBytes, staged.Burst.DrainedBytes)
	}
	if staged.DrainBps <= 0 {
		t.Fatal("staged job must report achieved drain bandwidth")
	}
	if direct := res[1]; direct.Burst != nil || direct.DrainBps != 0 {
		t.Fatalf("direct job must not carry tier stats: %+v", direct)
	}
	// Both lanes saw traffic: checkpoints and diagnostics drained.
	ck := staged.Burst.Class[burst.ClassCheckpoint].DrainedBytes
	dg := staged.Burst.Class[burst.ClassDiagnostic].DrainedBytes
	if ck == 0 || dg == 0 || ck+dg != staged.Burst.DrainedBytes {
		t.Fatalf("lane accounting: ckpt=%d diag=%d total=%d", ck, dg, staged.Burst.DrainedBytes)
	}
}

// TestRunRejectsDuplicateNames: job names key the per-job output
// directories, so two specs sharing a name would silently truncate each
// other's per-epoch files — Run must refuse up front. An unnamed spec
// is rejected for the same reason.
func TestRunRejectsDuplicateNames(t *testing.T) {
	specs := testSpecs(burst.QoS{})
	specs[1].Name = specs[0].Name
	_, err := jobs.Run(cluster.Dardel(), specs, 1)
	if err == nil {
		t.Fatal("duplicate job names accepted")
	}
	specs[1].Name = ""
	if _, err := jobs.Run(cluster.Dardel(), specs, 1); err == nil {
		t.Fatal("unnamed job accepted")
	}
}

func TestAllocationExhaustionFails(t *testing.T) {
	specs := testSpecs(burst.QoS{})
	specs[0].Nodes = cluster.Dardel().MaxNodes
	if _, err := jobs.Run(cluster.Dardel(), specs, 1); err == nil {
		t.Fatal("over-subscribed co-schedule must fail")
	}
}

func TestJainIndex(t *testing.T) {
	cases := []struct {
		name string
		xs   []float64
		want float64
	}{
		{"nil", nil, 0},
		{"empty non-nil", []float64{}, 0},
		{"all zero", []float64{0, 0, 0}, 1},
		{"single zero", []float64{0}, 1},
		{"single share", []float64{7}, 1},
		{"equal shares", []float64{5, 5, 5, 5}, 1},
		{"one taker of four", []float64{1, 0, 0, 0}, 0.25},
		{"one taker of eight", []float64{3, 0, 0, 0, 0, 0, 0, 0}, 0.125},
		{"skewed pair", []float64{3, 1}, 16.0 / 20.0},
		{"scale invariant", []float64{3e9, 1e9}, 16.0 / 20.0},
	}
	for _, c := range cases {
		if got := jobs.JainIndex(c.xs); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s: JainIndex(%v) = %v, want %v", c.name, c.xs, got, c.want)
		}
	}
	// Range invariant at larger n: any mix of non-negative shares lands
	// in [1/n, 1].
	mixed := []float64{0, 1, 2, 3, 4, 5, 6, 7}
	if j := jobs.JainIndex(mixed); j < 1.0/8 || j > 1 {
		t.Errorf("mixed shares: JainIndex = %v outside [1/8, 1]", j)
	}
}

// TestWithFault pins the campaign hook: the returned co-schedule carries
// the failure without mutating the caller's scenario declaration.
func TestWithFault(t *testing.T) {
	specs := []jobs.Spec{{Name: "victim", Nodes: 2}, {Name: "neighbour", Nodes: 2}}
	f := &fault.Spec{KillEpoch: 1, KillFrac: 0.5}
	out := jobs.WithFault(specs, 0, f)
	if out[0].Fault != f || out[1].Fault != nil {
		t.Fatalf("fault placement wrong: %+v", out)
	}
	if specs[0].Fault != nil {
		t.Fatal("WithFault mutated the caller's specs")
	}
	// An out-of-range index leaves the copy untouched rather than
	// panicking mid-campaign.
	for _, idx := range []int{-1, 2} {
		clean := jobs.WithFault(specs, idx, f)
		if clean[0].Fault != nil || clean[1].Fault != nil {
			t.Errorf("index %d stamped a fault", idx)
		}
	}
}

// TestLostNodeHours pins the campaign's loss accounting.
func TestLostNodeHours(t *testing.T) {
	// Clean run: nothing lost.
	if got := (jobs.Result{Nodes: 4}).LostNodeHours(6, 0.1); got != 0 {
		t.Errorf("clean run lost %v node-hours", got)
	}
	// One victim node redoes 3 epochs (kill in epoch 2, restart from 0)
	// at 6 h/epoch plus a 0.05 h reschedule.
	r := jobs.Result{Nodes: 4, Fault: &fault.Report{
		Spec:         fault.Spec{KillEpoch: 2},
		RestartEpoch: 0,
	}}
	if got, want := r.LostNodeHours(6, 0.05), 3*6.0+0.05; math.Abs(got-want) > 1e-12 {
		t.Errorf("single-victim loss = %v, want %v", got, want)
	}
	// Whole-job failure: every node pays.
	r.Fault.Spec.WholeJob = true
	if got, want := r.LostNodeHours(6, 0.05), 4*(3*6.0+0.05); math.Abs(got-want) > 1e-12 {
		t.Errorf("whole-job loss = %v, want %v", got, want)
	}
	// A restart position past the kill epoch (NVMe-surviving restart from
	// buffered state) cannot go negative.
	r.Fault.Spec.WholeJob = false
	r.Fault.RestartEpoch = 5
	if got := r.LostNodeHours(6, 0); got != 0 {
		t.Errorf("negative epoch loss leaked: %v", got)
	}
}
