package jobs_test

import (
	"math"
	"testing"

	"picmcio/internal/ckptopt"
	"picmcio/internal/cluster"
	"picmcio/internal/fault"
	"picmcio/internal/jobs"
	"picmcio/internal/units"
)

// probeWorkload is the cost-measurement scenario: chunked checkpoint
// writes with a real compute phase, sized like the fault grid's victim.
func probeWorkload() jobs.ChunkedWriter {
	return jobs.ChunkedWriter{
		Epochs:          6,
		CheckpointBytes: 128 * units.MiB,
		ComputeSec:      0.03,
		ChunkBytes:      16 * units.MiB,
	}
}

// TestMeasureCheckpointCosts: the probes price both durability levels
// on a staged machine — buffered saves strictly cheaper than synchronous
// PFS writes, a positive drain lag folded into the buffered restart —
// and only the PFS level on a machine without a staging tier.
func TestMeasureCheckpointCosts(t *testing.T) {
	m := cluster.Dardel()
	c, err := jobs.MeasureCheckpointCosts(m, probeWorkload(), 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !(c.BufferedSaveSec > 0 && c.DurableSaveSec > 0) {
		t.Fatalf("probe measured non-positive save costs: %+v", c)
	}
	if !(c.BufferedSaveSec < c.DurableSaveSec) {
		t.Errorf("buffered save %v not cheaper than PFS save %v — staging buys nothing",
			c.BufferedSaveSec, c.DurableSaveSec)
	}
	// One buffered 128 MiB save at the preset's 6 GB/s absorb rate takes
	// ~22 ms; the measurement must land in that physical neighbourhood.
	if c.BufferedSaveSec < 0.01 || c.BufferedSaveSec > 0.2 {
		t.Errorf("buffered save %v s implausible for 128 MiB at NVMe speed", c.BufferedSaveSec)
	}
	if c.DurableLagSec < 0 {
		t.Errorf("negative drain lag %v", c.DurableLagSec)
	}
	// Dardel's immediate drain keeps up inside the compute phase, so its
	// measured lag is ~0; Vega's watermark policy holds staged bytes back
	// and must show a real write-back debt.
	vc, err := jobs.MeasureCheckpointCosts(cluster.Vega(), probeWorkload(), 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if vc.DurableLagSec <= 0 {
		t.Error("Vega watermark probe measured no drain lag")
	}
	if want := m.NodeRestartSec + c.DurableLagSec; math.Abs(c.BufferedRestartSec-want) > 1e-12 {
		t.Errorf("buffered restart %v, want reschedule + redrain %v", c.BufferedRestartSec, want)
	}
	if want := m.NodeRestartSec + c.DurableSaveSec; math.Abs(c.DurableRestartSec-want) > 1e-12 {
		t.Errorf("durable restart %v, want reschedule + re-read %v", c.DurableRestartSec, want)
	}
	if c.MTBFSec != m.MTBFNodeHours*3600/2 || c.SurvivalProb != 0 {
		t.Errorf("availability inputs not threaded through: %+v", c)
	}

	// The whole pipeline prices into a plan whose buffered cadence is
	// shorter than the PFS one (cheap saves ⇒ checkpoint more often).
	p, err := ckptopt.Optimize(c)
	if err != nil {
		t.Fatal(err)
	}
	if p.Buffered == nil || !(p.Buffered.NumericSec < p.PFS.NumericSec) {
		t.Fatalf("plan did not prefer a shorter buffered cadence: %+v", p)
	}

	// No staging tier ⇒ single-level costs.
	dc, err := jobs.MeasureCheckpointCosts(cluster.Discoverer(), probeWorkload(), 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if dc.BufferedSaveSec != 0 || dc.DurableLagSec != 0 {
		t.Errorf("direct-only machine grew staged measurements: %+v", dc)
	}

	// A probe without epochs cannot price anything, and neither can one
	// without a workload.
	if _, err := jobs.MeasureCheckpointCosts(m, jobs.BulkWriter{}, 2, 1); err == nil {
		t.Error("epoch-less probe accepted")
	}
	if _, err := jobs.MeasureCheckpointCosts(m, nil, 2, 1); err == nil {
		t.Error("nil-workload probe accepted")
	}
}

// TestLostNodeHoursPartialEpoch: the campaign's loss accounting counts
// the kill epoch's partially computed phase — a buffered restart that
// loses no whole epoch still pays the work since its last checkpoint.
func TestLostNodeHoursPartialEpoch(t *testing.T) {
	r := jobs.Result{Nodes: 4, Fault: &fault.Report{
		Spec:         fault.Spec{KillEpoch: 2, KillFrac: 0.5},
		RestartEpoch: 3, // buffered restart: no whole epoch lost
	}}
	if got, want := r.LostNodeHours(6, 0.05), 0.5*6.0+0.05; math.Abs(got-want) > 1e-12 {
		t.Errorf("partial-epoch loss = %v, want %v", got, want)
	}
	// Whole epochs and the partial phase stack.
	r.Fault.RestartEpoch = 1
	if got, want := r.LostNodeHours(6, 0.05), 2.5*6.0+0.05; math.Abs(got-want) > 1e-12 {
		t.Errorf("stacked loss = %v, want %v", got, want)
	}
	// A victim that finished before the kill still reports nothing lost.
	r.Fault.RestartEpoch = 5
	if got := r.LostNodeHours(6, 0); got != 0 {
		t.Errorf("negative epoch loss leaked: %v", got)
	}
}
