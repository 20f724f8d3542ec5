package cluster

import (
	"testing"

	"picmcio/internal/fault"
	"picmcio/internal/mpisim"
	"picmcio/internal/pfs"
	"picmcio/internal/sim"
)

func TestPresetsMatchPaper(t *testing.T) {
	d := Discoverer()
	if d.Lustre.NumOSTs != 4 {
		t.Errorf("Discoverer OSTs=%d, want 4", d.Lustre.NumOSTs)
	}
	da := Dardel()
	if da.Lustre.NumOSTs != 48 {
		t.Errorf("Dardel OSTs=%d, want 48", da.Lustre.NumOSTs)
	}
	v := Vega()
	if v.Lustre.NumOSTs != 80 {
		t.Errorf("Vega OSTs=%d, want 80", v.Lustre.NumOSTs)
	}
	if v.Lustre.JitterFrac <= 0 {
		t.Error("Vega must be jittered (erratic scaling)")
	}
	for _, m := range Machines() {
		if m.MaxNodes < 200 {
			t.Errorf("%s max nodes=%d", m.Name, m.MaxNodes)
		}
	}
}

func TestBuildAndClients(t *testing.T) {
	k := sim.NewKernel()
	sys, err := Dardel().Build(k, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sys.Lustre == nil || sys.FS == nil {
		t.Fatal("lustre not attached")
	}
	if len(sys.Clients) != 3 {
		t.Fatalf("clients=%d", len(sys.Clients))
	}
	// Launch lays ranks out block-wise: 128 to a node, none past the last.
	w, envOf, err := sys.Launch(128, nil)
	if err != nil {
		t.Fatal(err)
	}
	if w.Size != 3*128 {
		t.Fatalf("ranks=%d", w.Size)
	}
	clientOf := func(rank int) *pfs.Client { return envOf(&mpisim.Rank{ID: rank}).Client }
	if clientOf(0) != sys.Clients[0] || clientOf(129) != sys.Clients[1] || clientOf(3*128-1) != sys.Clients[2] {
		t.Fatal("rank->node mapping wrong")
	}
	// LaunchN with fewer tasks than nodes: one per node, the tail idle.
	w, envOf, err = sys.LaunchN(2, nil)
	if err != nil || w.Size != 2 {
		t.Fatalf("LaunchN(2): size=%v err=%v", w, err)
	}
	if clientOf(0) != sys.Clients[0] || clientOf(1) != sys.Clients[1] {
		t.Fatal("sparse rank->node mapping wrong")
	}
	if env := envOf(&mpisim.Rank{ID: 1}); env.FS != sys.FS || env.Stage != sys.StagedFS() || env.Rank != 1 || env.Monitor != nil {
		t.Fatalf("rank environment wrong: %+v", env)
	}
}

func TestBuildValidation(t *testing.T) {
	k := sim.NewKernel()
	if _, err := Dardel().Build(k, 0, 1); err == nil {
		t.Error("0 nodes accepted")
	}
	if _, err := Dardel().Build(k, 99999, 1); err == nil {
		t.Error("oversubscription accepted")
	}
}

func TestStorageKindString(t *testing.T) {
	if StorageLustre.String() != "lustre" || StorageNFS.String() != "nfs" || StorageCephFS.String() != "cephfs" {
		t.Fatal("StorageKind strings wrong")
	}
}

func TestBurstBufferPresets(t *testing.T) {
	if !Dardel().Burst.Enabled() || !Vega().Burst.Enabled() {
		t.Error("Dardel and Vega presets must carry a burst-buffer spec")
	}
	if Discoverer().Burst.Enabled() {
		t.Error("Discoverer has no burst buffer; its spec must be zero")
	}
	k := sim.NewKernel()
	sys, err := Dardel().Build(k, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sys.Burst == nil || sys.StagedFS() == nil {
		t.Fatal("building a machine with a burst spec must attach a tier")
	}
	if got, want := sys.Burst.FS().Name(), "burst+"+sys.FS.Name(); got != want {
		t.Errorf("the tier stages for %s, want the machine's file system: %s", got, want)
	}
	k2 := sim.NewKernel()
	sys2, err := Discoverer().Build(k2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sys2.Burst != nil || sys2.StagedFS() != nil {
		t.Error("a machine without a burst spec must not get a tier")
	}
}

func TestAllocateSlicesNodes(t *testing.T) {
	k := sim.NewKernel()
	sys, err := Dardel().Build(k, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	a, err := sys.Allocate(4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sys.Allocate(6)
	if err != nil {
		t.Fatal(err)
	}
	if a.NodeIDs[0] != 0 || a.Nodes != 4 || b.NodeIDs[0] != 4 || b.Nodes != 6 {
		t.Fatalf("allocations overlap or misplace: %+v %+v", a, b)
	}
	if len(a.Clients) != 4 || len(b.Clients) != 6 {
		t.Fatalf("client slices: %d %d", len(a.Clients), len(b.Clients))
	}
	if a.Clients[3] == b.Clients[0] {
		t.Fatal("allocations must not share clients")
	}
	if a.Clients[0] != sys.Clients[0] || b.Clients[0] != sys.Clients[4] {
		t.Fatal("allocation clients must alias the system's per-node clients")
	}
	if sys.FreeNodes() != 0 {
		t.Fatalf("free nodes=%d, want 0", sys.FreeNodes())
	}
	if _, err := sys.Allocate(1); err == nil {
		t.Fatal("allocating past the build size must fail")
	}
	if _, err := sys.Allocate(0); err == nil {
		t.Fatal("zero-node allocation must fail")
	}
}

func TestAvailabilityKnobs(t *testing.T) {
	for _, m := range Machines() {
		if m.MTBFNodeHours <= 0 || m.NodeRestartSec <= 0 {
			t.Errorf("%s: availability knobs unset: MTBF=%v restart=%v", m.Name, m.MTBFNodeHours, m.NodeRestartSec)
		}
	}
	// Dardel's on-board NVMe dies with the node; Vega's enclosures do not.
	if Dardel().NVMeSurvival != fault.SurviveNone {
		t.Error("Dardel must model node-loss NVMe")
	}
	if Vega().NVMeSurvival != fault.SurviveNVMe {
		t.Error("Vega must model NVMe-surviving staging")
	}
}

// TestSizingRanges pins the buffer-sizing sweep declarations: machines
// with a burst tier declare usable capacity × drain-rate ranges, and
// the ranges stay sane (positive, burst-backed).
func TestSizingRanges(t *testing.T) {
	for _, m := range Machines() {
		if !m.Sizing.Enabled() {
			if m.Burst.Enabled() {
				t.Errorf("%s: burst tier without sizing ranges", m.Name)
			}
			continue
		}
		if !m.Burst.Enabled() {
			t.Errorf("%s: sizing ranges without a burst tier to size", m.Name)
		}
		for _, c := range m.Sizing.CapacityEpochs {
			if c <= 0 {
				t.Errorf("%s: non-positive capacity multiple %v", m.Name, c)
			}
		}
		for _, d := range m.Sizing.DrainScale {
			if d <= 0 {
				t.Errorf("%s: non-positive drain scale %v", m.Name, d)
			}
		}
	}
	// The sweepable fleet is exactly the burst-carrying presets.
	if !Dardel().Sizing.Enabled() || !Vega().Sizing.Enabled() {
		t.Error("Dardel and Vega must declare sizing ranges")
	}
	if Discoverer().Sizing.Enabled() {
		t.Error("Discoverer has no burst tier to size")
	}
}

// TestCheckpointCosts pins the availability-derived optimizer inputs:
// job-level MTBF scales inversely with node count, the survival
// probability mirrors the NVMe survivability model, and the reschedule
// delay seeds both restart paths while the measured fields stay zero.
func TestCheckpointCosts(t *testing.T) {
	m := Dardel()
	c := m.CheckpointCosts(4)
	if want := m.MTBFNodeHours * 3600 / 4; c.MTBFSec != want {
		t.Errorf("4-node MTBF %v, want %v", c.MTBFSec, want)
	}
	if c.SurvivalProb != 0 {
		t.Errorf("Dardel survival probability %v, want 0 (on-board NVMe)", c.SurvivalProb)
	}
	if c.BufferedRestartSec != m.NodeRestartSec || c.DurableRestartSec != m.NodeRestartSec {
		t.Errorf("restart bases (%v, %v), want the preset delay %v",
			c.BufferedRestartSec, c.DurableRestartSec, m.NodeRestartSec)
	}
	if c.BufferedSaveSec != 0 || c.DurableSaveSec != 0 || c.DurableLagSec != 0 {
		t.Error("measured fields must stay zero until a probe fills them")
	}
	if got := Vega().CheckpointCosts(1).SurvivalProb; got != 1 {
		t.Errorf("Vega survival probability %v, want 1 (fabric-attached)", got)
	}
	// A degenerate node count falls back to one node rather than
	// dividing by zero.
	if got := m.CheckpointCosts(0).MTBFSec; got != m.MTBFNodeHours*3600 {
		t.Errorf("0-node MTBF %v, want the single-node value", got)
	}
	if fault.SurviveNone.Prob() != 0 || fault.SurviveNVMe.Prob() != 1 {
		t.Error("survivability probabilities must be the enum endpoints")
	}
}

// TestLeaseChurnMatrix is the scheduler-grade lease matrix: the batch
// scheduler (internal/sched) allocates and frees node sets millions of
// times per campaign, so exhaustion, double-free and interleaved
// release patterns must all behave — one node handed to two jobs would
// silently corrupt every queue metric downstream.
func TestLeaseChurnMatrix(t *testing.T) {
	build := func(nodes int) *System {
		sys, err := Dardel().Build(sim.NewKernel(), nodes, 1)
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}

	t.Run("exhaustion-and-refill", func(t *testing.T) {
		sys := build(8)
		a, err := sys.Allocate(5)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Allocate(4); err == nil {
			t.Fatal("over-allocation past the free count must fail")
		}
		// A failed Allocate must not leak nodes.
		if got := sys.FreeNodes(); got != 3 {
			t.Fatalf("free after failed allocate = %d, want 3", got)
		}
		if err := sys.Free(a); err != nil {
			t.Fatal(err)
		}
		if got := sys.FreeNodes(); got != 8 {
			t.Fatalf("free after release = %d, want 8", got)
		}
		// The whole machine is allocatable again after the release.
		if _, err := sys.Allocate(8); err != nil {
			t.Fatalf("full re-allocation after release: %v", err)
		}
	})

	t.Run("double-free", func(t *testing.T) {
		sys := build(4)
		a, err := sys.Allocate(2)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.Free(a); err != nil {
			t.Fatal(err)
		}
		if err := sys.Free(a); err == nil {
			t.Fatal("double free must be rejected")
		}
		// Free of a stale lease whose nodes were re-issued must fail too.
		b, err := sys.Allocate(2)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.Free(a); err == nil {
			t.Fatal("free of a superseded lease must be rejected")
		}
		if err := sys.Free(b); err != nil {
			t.Fatal(err)
		}
		if err := sys.Free(nil); err == nil {
			t.Fatal("nil free must be rejected")
		}
		other := build(4)
		c, err := other.Allocate(1)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.Free(c); err == nil {
			t.Fatal("free of another system's allocation must be rejected")
		}
	})

	t.Run("interleaved-reuse", func(t *testing.T) {
		sys := build(10)
		a, _ := sys.Allocate(3) // nodes 0-2
		b, _ := sys.Allocate(4) // nodes 3-6
		c, _ := sys.Allocate(3) // nodes 7-9
		if err := sys.Free(b); err != nil {
			t.Fatal(err)
		}
		// The next lease reuses b's released nodes before any fresh ones.
		d, err := sys.Allocate(2)
		if err != nil {
			t.Fatal(err)
		}
		if d.NodeIDs[0] != 3 || d.NodeIDs[1] != 4 {
			t.Fatalf("reuse lease nodes %v, want [3 4]", d.NodeIDs)
		}
		if err := sys.Free(a); err != nil {
			t.Fatal(err)
		}
		// A lease spanning scattered released nodes: 0-2 from a, 5-6 from
		// b's remainder. NodeIDs stay ascending and clients alias the
		// system's per-node clients at the matching global indices.
		e, err := sys.Allocate(5)
		if err != nil {
			t.Fatal(err)
		}
		want := []int{0, 1, 2, 5, 6}
		for i, id := range e.NodeIDs {
			if id != want[i] {
				t.Fatalf("scattered lease nodes %v, want %v", e.NodeIDs, want)
			}
			if e.Clients[i] != sys.Clients[id] {
				t.Fatalf("client %d does not alias system client for node %d", i, id)
			}
		}
		if sys.FreeNodes() != 0 {
			t.Fatalf("free nodes = %d, want 0", sys.FreeNodes())
		}
		// No node is leased twice across the live allocations.
		seen := map[int]bool{}
		for _, al := range []*Allocation{c, d, e} {
			for _, id := range al.NodeIDs {
				if seen[id] {
					t.Fatalf("node %d leased twice", id)
				}
				seen[id] = true
			}
		}
	})

	t.Run("heavy-churn-conserves-nodes", func(t *testing.T) {
		// A scheduler-shaped workload: a rolling window of live leases of
		// mixed widths, freed oldest-first, for thousands of cycles. The
		// free count must be exact at every step and the machine fully
		// reusable at the end.
		sys := build(32)
		var live []*Allocation
		liveNodes := 0
		for i := 0; i < 5000; i++ {
			n := 1 + i%7
			if n <= sys.FreeNodes() {
				a, err := sys.Allocate(n)
				if err != nil {
					t.Fatalf("cycle %d: %v", i, err)
				}
				live = append(live, a)
				liveNodes += n
			} else if len(live) > 0 {
				a := live[0]
				live = live[1:]
				if err := sys.Free(a); err != nil {
					t.Fatalf("cycle %d: %v", i, err)
				}
				liveNodes -= a.Nodes
			}
			if got := sys.FreeNodes(); got != 32-liveNodes {
				t.Fatalf("cycle %d: free=%d, want %d", i, got, 32-liveNodes)
			}
		}
		for _, a := range live {
			if err := sys.Free(a); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := sys.Allocate(32); err != nil {
			t.Fatalf("machine not fully reusable after churn: %v", err)
		}
	})
}

func TestByName(t *testing.T) {
	if m, err := ByName("DARDEL"); err != nil || m.Name != "Dardel" {
		t.Fatalf("ByName(DARDEL) = %q, %v", m.Name, err)
	}
	if _, err := ByName("summit"); err == nil {
		t.Fatal("unknown machine accepted")
	}
}
