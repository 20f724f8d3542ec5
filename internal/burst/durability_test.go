package burst_test

import (
	"fmt"
	"testing"

	"picmcio/internal/burst"
	"picmcio/internal/pfs"
	"picmcio/internal/sim"
)

// dMB is a decimal megabyte: at the test's 1e6 B/s drain cap one dMB
// drains in exactly one virtual second, so sleep windows map cleanly onto
// "how many whole segments have been written back". Lustre RPC/transfer
// costs add only milliseconds, well inside the half-second margins the
// expectations leave.
const dMB = 1_000_000

// durStep is one step of a durability scenario: write a file, nudge the
// epoch-end drain, sleep a window, crash the node, or force a full drain —
// then (when want != nil) compare the tier's durability snapshot.
type durStep struct {
	write    int64 // create a fresh file of this many bytes
	rewrite  bool  // ... at a fixed shared path (truncate semantics)
	nudge    bool  // DrainEpoch (epoch boundary)
	sleep    sim.Duration
	crash    bool  // crash node 0
	survive  bool  // ... with NVMe-survivable staged state
	wantLost int64 // expected CrashReport.LostBytes (crash steps only)
	wantSurv int64 // expected CrashReport.SurvivingBytes (survive crashes)
	wait     bool  // WaitDrained barrier
	want     *burst.Durability
}

// TestDurabilityAccounting drives the buffered/PFS-durable ledger through
// epoch boundaries, partial drains, crashes at both survivability levels,
// and capacity fallback, asserting the exact snapshot after each step.
// This is the accounting the fault layer's lost-work math depends on.
func TestDurabilityAccounting(t *testing.T) {
	cases := []struct {
		name  string
		spec  burst.Spec
		steps []durStep
	}{
		{
			// Three 1 dMB files in epoch 0, two more in epoch 1, drain
			// running continuously from the first nudge: snapshots catch
			// the drain mid-backlog on both sides of the epoch boundary.
			name: "partial drain across epoch boundary",
			spec: burst.Spec{CapacityBytes: 64 * dMB, Rate: 1e12, DrainRate: 1e6, Policy: burst.PolicyEpochEnd},
			steps: []durStep{
				{write: dMB}, {write: dMB}, {write: dMB},
				{nudge: true, sleep: 1.5, want: &burst.Durability{
					BufferedBytes: 3 * dMB, DurableBytes: 1 * dMB, PendingBytes: 2 * dMB}},
				{write: dMB}, {write: dMB},
				{nudge: true, sleep: 2.2, want: &burst.Durability{
					BufferedBytes: 5 * dMB, DurableBytes: 3 * dMB, PendingBytes: 2 * dMB}},
				{wait: true, want: &burst.Durability{
					BufferedBytes: 5 * dMB, DurableBytes: 5 * dMB}},
			},
		},
		{
			// Node loss 1.5 s into a 3 dMB backlog: the first segment is
			// durable, the second dies mid-transfer with the node (its
			// device time streamed nowhere), the queued third is destroyed
			// outright — everything not yet written back is gone.
			name: "node loss destroys in-flight and queued staged state",
			spec: burst.Spec{CapacityBytes: 64 * dMB, Rate: 1e12, DrainRate: 1e6, Policy: burst.PolicyEpochEnd},
			steps: []durStep{
				{write: dMB}, {write: dMB}, {write: dMB},
				{nudge: true, sleep: 1.5},
				{crash: true, wantLost: 2 * dMB, want: &burst.Durability{
					BufferedBytes: 3 * dMB, DurableBytes: 1 * dMB, LostBytes: 2 * dMB}},
				{wait: true, want: &burst.Durability{
					BufferedBytes: 3 * dMB, DurableBytes: 1 * dMB, LostBytes: 2 * dMB}},
			},
		},
		{
			// The same kill with NVMe survival: the aborted in-flight
			// segment is requeued for retransmission, nothing is lost, and
			// the redrain makes everything durable.
			name: "nvme survival requeues the aborted in-flight transfer",
			spec: burst.Spec{CapacityBytes: 64 * dMB, Rate: 1e12, DrainRate: 1e6, Policy: burst.PolicyEpochEnd},
			steps: []durStep{
				{write: dMB}, {write: dMB}, {write: dMB},
				{nudge: true, sleep: 1.5},
				{crash: true, survive: true, wantSurv: 2 * dMB, want: &burst.Durability{
					BufferedBytes: 3 * dMB, DurableBytes: 1 * dMB, PendingBytes: 2 * dMB}},
				{wait: true, want: &burst.Durability{
					BufferedBytes: 3 * dMB, DurableBytes: 3 * dMB}},
			},
		},
		{
			// NVMe-survivable crash: nothing is lost, the staged bytes stay
			// owed to the PFS and the forced drain (the redrain a restart
			// pays) makes them durable.
			name: "nvme survival preserves staged state for redrain",
			spec: burst.Spec{CapacityBytes: 64 * dMB, Rate: 1e12, DrainRate: 1e6, Policy: burst.PolicyEpochEnd},
			steps: []durStep{
				{write: 2 * dMB, sleep: 1.0, want: &burst.Durability{
					BufferedBytes: 2 * dMB, PendingBytes: 2 * dMB}},
				{crash: true, survive: true, wantSurv: 2 * dMB, want: &burst.Durability{
					BufferedBytes: 2 * dMB, PendingBytes: 2 * dMB}},
				{wait: true, want: &burst.Durability{
					BufferedBytes: 2 * dMB, DurableBytes: 2 * dMB}},
			},
		},
		{
			// Overwrite-in-place: re-creating a path truncate-cancels its
			// undrained staged backlog — those bytes are neither durable
			// nor lost, they were deliberately discarded.
			name: "truncate cancels undrained staged state",
			spec: burst.Spec{CapacityBytes: 64 * dMB, Rate: 1e12, DrainRate: 1e6, Policy: burst.PolicyEpochEnd},
			steps: []durStep{
				{write: 2 * dMB, rewrite: true, want: &burst.Durability{
					BufferedBytes: 2 * dMB, PendingBytes: 2 * dMB}},
				{write: dMB, rewrite: true, want: &burst.Durability{
					BufferedBytes: 3 * dMB, PendingBytes: 1 * dMB, CancelledBytes: 2 * dMB}},
				{wait: true, want: &burst.Durability{
					BufferedBytes: 3 * dMB, DurableBytes: 1 * dMB, CancelledBytes: 2 * dMB}},
			},
		},
		{
			// Overflow past a 1 dMB buffer: fallback bytes go straight to
			// the PFS and are durable the moment the write returns.
			name: "capacity fallback is immediately durable",
			spec: burst.Spec{CapacityBytes: 1 * dMB, Rate: 1e12, Policy: burst.PolicyEpochEnd},
			steps: []durStep{
				{write: 3 * dMB, want: &burst.Durability{
					BufferedBytes: 3 * dMB, DurableBytes: 2 * dMB, PendingBytes: 1 * dMB}},
				{wait: true, want: &burst.Durability{
					BufferedBytes: 3 * dMB, DurableBytes: 3 * dMB}},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(tc.spec)
			r.run(func(p *sim.Proc) {
				for i, s := range tc.steps {
					if s.write > 0 {
						path := fmt.Sprintf("/x/f%03d", i)
						if s.rewrite {
							path = "/x/rw"
						}
						f, err := r.tier.FS().Create(p, r.c, path)
						if err != nil {
							t.Fatalf("step %d: %v", i, err)
						}
						f.WriteAt(p, r.c, 0, s.write, nil)
						f.Close(p, r.c)
					}
					if s.nudge {
						r.tier.DrainEpoch(p)
					}
					if s.sleep > 0 {
						p.Sleep(s.sleep)
					}
					if s.crash {
						rep := r.tier.Crash(p, 0, s.survive)
						if rep.LostBytes != s.wantLost {
							t.Errorf("step %d: crash lost %d bytes, want %d", i, rep.LostBytes, s.wantLost)
						}
						if rep.SurvivingBytes != s.wantSurv {
							t.Errorf("step %d: crash surviving %d bytes, want %d", i, rep.SurvivingBytes, s.wantSurv)
						}
					}
					if s.wait {
						r.tier.WaitDrained(p)
					}
					d := r.tier.Durability()
					if sum := d.DurableBytes + d.PendingBytes + d.LostBytes + d.CancelledBytes; d.BufferedBytes != sum {
						t.Errorf("step %d: invariant broken: buffered %d != durable+pending+lost+cancelled %d", i, d.BufferedBytes, sum)
					}
					if s.want != nil && d != *s.want {
						t.Errorf("step %d: durability %+v, want %+v", i, d, *s.want)
					}
				}
			})
		})
	}
}

// TestNodeStatsAndCrashByClass checks the per-node drained/lost split and
// the per-lane crash accounting on a two-node tier.
func TestNodeStatsAndCrashByClass(t *testing.T) {
	r := newRig(burst.Spec{CapacityBytes: 64 * dMB, Rate: 1e12, DrainRate: 1e6, Policy: burst.PolicyEpochEnd})
	c1 := &pfs.Client{Node: 1, NIC: sim.NewServer(r.k, 25e9, 0)}
	r.run(func(p *sim.Proc) {
		write := func(c *pfs.Client, path string, n int64) {
			f, err := r.tier.FS().Create(p, c, path)
			if err != nil {
				t.Fatal(err)
			}
			f.WriteAt(p, c, 0, n, nil)
			f.Close(p, c)
		}
		write(r.c, "/x/ckpt_000.dmp", dMB)
		write(r.c, "/x/diag_000.dat", dMB)
		write(c1, "/x/ckpt_001.dmp", dMB)

		// Node 1 dies before anything drained: its one dMB is lost.
		rep := r.tier.Crash(p, 1, false)
		if rep.LostBytes != dMB {
			t.Errorf("node 1 crash report %+v, want 1 dMB lost", rep)
		}
		r.tier.WaitDrained(p)

		if ns := r.tier.NodeStats(0); ns.DrainedBytes != 2*dMB || ns.LostBytes != 0 || ns.PendingBytes != 0 {
			t.Errorf("node 0 stats %+v, want 2 dMB drained", ns)
		}
		if ns := r.tier.NodeStats(1); ns.DrainedBytes != 0 || ns.LostBytes != dMB || ns.PendingBytes != 0 {
			t.Errorf("node 1 stats %+v, want 1 dMB lost", ns)
		}
		if ns := r.tier.NodeStats(99); ns != (burst.NodeStats{}) {
			t.Errorf("unknown node stats %+v, want zero", ns)
		}
	})
}
