package experiments

import (
	"testing"

	"picmcio/internal/burst"
	"picmcio/internal/fault"
	"picmcio/internal/units"
)

// TestFigFaultPolicySeparation is the artifact's headline claim: on node
// loss, deferring write-back costs restart work — per kill time under the
// plain scheduler, epoch-end draining loses strictly more epochs than
// immediate draining, and watermark (deepest backlog) at least as much as
// epoch-end.
func TestFigFaultPolicySeparation(t *testing.T) {
	st, err := Options{Seed: 1}.FigFaultSweep()
	if err != nil {
		t.Fatal(err)
	}
	_, cells := faultTable(st)
	lost := map[burst.Policy]map[float64]int{}
	for _, c := range cells {
		if c.QoS != "qos-off" {
			continue
		}
		if lost[c.Policy] == nil {
			lost[c.Policy] = map[float64]int{}
		}
		lost[c.Policy][c.KillFrac] = c.Report.LostEpochsPFS
	}
	total := map[burst.Policy]int{}
	for pol, byFrac := range lost {
		for _, n := range byFrac {
			total[pol] += n
		}
	}
	if got, want := [3]int{total[burst.PolicyImmediate], total[burst.PolicyEpochEnd], total[burst.PolicyWatermark]}, [3]int{0, 2, 8}; got != want {
		t.Errorf("epochs lost over the kill times under immediate, epoch-end and watermark draining: %v, want %v", got, want)
	}
	for _, frac := range FaultKillFracs {
		imm, ee, wm := lost[burst.PolicyImmediate][frac], lost[burst.PolicyEpochEnd][frac], lost[burst.PolicyWatermark][frac]
		if ee <= imm {
			t.Errorf("kill@%.2f: epoch-end lost %d epochs, immediate %d — must be strictly more", frac, ee, imm)
		}
		if wm < ee {
			t.Errorf("kill@%.2f: watermark lost %d epochs, epoch-end %d — must be at least as much", frac, wm, ee)
		}
	}
	for _, c := range cells {
		if c.Report.BufferedEpochs < c.Report.DurableEpochs {
			t.Errorf("%s/%s@%.2f: durable position %d past buffered %d", c.Policy, c.QoS, c.KillFrac,
				c.Report.DurableEpochs, c.Report.BufferedEpochs)
		}
		if c.VictimDurable < c.CleanDurable {
			t.Errorf("%s/%s@%.2f: faulted durable %.4fs beat the clean run's %.4fs", c.Policy, c.QoS, c.KillFrac,
				c.VictimDurable, c.CleanDurable)
		}
	}
}

// TestFigFaultSurvival: the same kill either destroys the staged backlog
// (restart from PFS-durable state) or preserves it for redrain (restart
// from buffered state) — and the NVMe-surviving restart resumes from at
// least as late an epoch.
func TestFigFaultSurvival(t *testing.T) {
	o := Options{Seed: 1}
	sc, err := o.FigFaultSurvival()
	if err != nil {
		t.Fatal(err)
	}
	nl, nk := sc.NodeLoss.Fault, sc.NVMeKeep.Fault
	if nl.Spec.Survival != fault.SurviveNone || nk.Spec.Survival != fault.SurviveNVMe {
		t.Fatalf("comparison mislabeled: %v vs %v", nl.Spec.Survival, nk.Spec.Survival)
	}
	if nl.LostBytes == 0 || nl.RedrainBytes != 0 {
		t.Errorf("node loss: lost=%d redrain=%d, want destroyed staged bytes", nl.LostBytes, nl.RedrainBytes)
	}
	if nk.LostBytes != 0 || nk.RedrainBytes == 0 {
		t.Errorf("NVMe survival: lost=%d redrain=%d, want redrained staged bytes", nk.LostBytes, nk.RedrainBytes)
	}
	if nk.RestartEpoch < nl.RestartEpoch {
		t.Errorf("NVMe survival restarts from %d, behind node loss's %d", nk.RestartEpoch, nl.RestartEpoch)
	}
	// The surviving staged state redrains at real drain bandwidth.
	if nl.LostBytes != 512<<20 || nk.RedrainBytes != 512<<20 {
		t.Errorf("node loss destroyed %d bytes and NVMe survival redrained %d, want 512 MiB each", nl.LostBytes, nk.RedrainBytes)
	}
	pinned(t, "redrain GiB/s", units.GiBps(sc.NVMeKeep.DrainBps), "10.2219")
}
