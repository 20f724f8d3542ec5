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

// TestBackboneRatePerPreset holds every preset to a positive Lustre
// backbone rate: the scheduler's contention model divides by it.
func TestBackboneRatePerPreset(t *testing.T) {
	for _, m := range Machines() {
		if bw := m.Lustre.BackboneRate; bw <= 0 {
			t.Errorf("%s: Lustre.BackboneRate = %v, want > 0", m.Name, bw)
		}
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
	if a.Nodes != 4 || b.Nodes != 6 || len(a.Clients) != 4 || len(b.Clients) != 6 {
		t.Fatalf("allocation sizes: %d nodes/%d clients and %d/%d", a.Nodes, len(a.Clients), b.Nodes, len(b.Clients))
	}
	// Leases are consecutive windows of the system's per-node clients, and
	// a window ends where the next begins: appending to one cannot write
	// into its neighbour.
	for i, c := range a.Clients {
		if c != sys.Clients[i] {
			t.Fatalf("first lease's client %d is not the system's node-%d client", i, i)
		}
	}
	for i, c := range b.Clients {
		if c != sys.Clients[4+i] {
			t.Fatalf("second lease's client %d is not the system's node-%d client", i, 4+i)
		}
	}
	if cap(a.Clients) != len(a.Clients) {
		t.Fatalf("first lease's window has capacity %d, want %d", cap(a.Clients), len(a.Clients))
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

func TestByName(t *testing.T) {
	if m, err := ByName("DARDEL"); err != nil || m.Name != "Dardel" {
		t.Fatalf("ByName(DARDEL) = %q, %v", m.Name, err)
	}
	if _, err := ByName("summit"); err == nil {
		t.Fatal("unknown machine accepted")
	}
}
