package experiments

import (
	"strings"
	"testing"

	"picmcio/internal/cluster"
)

// TestFigSizingKnee is the new artifact's headline claim: on each swept
// machine, staging with generous capacity and the preset drain rate
// clearly beats direct writes, while starving either knob erodes the
// win — the knee the sizing grid exists to locate.
func TestFigSizingKnee(t *testing.T) {
	o := Options{Seed: 1}
	tab, err := o.FigSizing()
	if err != nil {
		t.Fatal(err)
	}
	byCell := map[[3]any]SizingPoint{}
	for _, p := range tab.Points {
		pt := p.Extra.(SizingPoint)
		byCell[[3]any{pt.Machine, pt.CapacityEpochs, pt.DrainScale}] = pt
	}
	for _, m := range []cluster.Machine{cluster.Dardel(), cluster.Vega()} {
		caps := m.Sizing.CapacityEpochs
		drains := m.Sizing.DrainScale
		big := byCell[[3]any{m.Name, caps[len(caps)-1], 1.0}]
		if big.AppSpeedup <= 1.1 {
			t.Errorf("%s: generous staging speedup %.3fx, want > 1.1x", m.Name, big.AppSpeedup)
		}
		small := byCell[[3]any{m.Name, caps[0], drains[0]}]
		if small.AppSpeedup >= big.AppSpeedup {
			t.Errorf("%s: starved cell (%.3fx) not below generous cell (%.3fx) — no knee",
				m.Name, small.AppSpeedup, big.AppSpeedup)
		}
		// Undersized capacity must show PFS fallback somewhere on the
		// smallest-capacity row: that is the mechanism behind the knee.
		var fallback bool
		for _, d := range drains {
			if byCell[[3]any{m.Name, caps[0], d}].FallbackFrac > 0 {
				fallback = true
			}
		}
		if !fallback {
			t.Errorf("%s: no PFS fallback at %.2g-epoch capacity", m.Name, caps[0])
		}
	}
	var bestDrain, bestSpeedup float64
	for _, p := range tab.Points {
		if v, ok := p.Get("drain_gibps"); ok {
			bestDrain = max(bestDrain, v)
		}
		if v, ok := p.Get("app_speedup_x"); ok {
			bestSpeedup = max(bestSpeedup, v)
		}
	}
	if len(tab.Points) != 32 {
		t.Errorf("%d grid points, want 32", len(tab.Points))
	}
	pinned(t, "best write-back GiB/s of the grid", bestDrain, "6.0100")
	pinned(t, "best staging speedup of the grid", bestSpeedup, "2.3035")
	// Cells outside a machine's declared range stay empty (rectangular
	// union grid, no fabricated measurements): Vega declares no 0.25x
	// drain scale.
	if pt, ok := byCell[[3]any{"Vega", 0.5, 0.25}]; !ok || pt.AppSpeedup != 0 {
		t.Errorf("out-of-range Vega cell not empty: %+v", pt)
	}
	// The knee summary names every (machine, drain) pair of the sweep.
	knees := SizingKnees(tab)
	joined := strings.Join(knees, "\n")
	for _, want := range []string{"Dardel drain", "Vega drain", "epoch(s) of capacity"} {
		if !strings.Contains(joined, want) {
			t.Errorf("knee summary missing %q:\n%s", want, joined)
		}
	}
}

// TestCampaignFailure exercises the stochastic campaign at an
// accelerated MTBF so every cell observes failures, and pins the
// ordering the campaign exists to quantify: deferring write-back costs
// more expected node-hours per failure.
func TestCampaignFailure(t *testing.T) {
	o := Options{Seed: 1, CampaignRuns: 1200, CampaignMTBFHours: 500}
	tab, err := o.CampaignFailure()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Points) != len(FaultDrainPolicies)*len(FaultQoSPolicies) {
		t.Fatalf("cells=%d, want %d", len(tab.Points), len(FaultDrainPolicies)*len(FaultQoSPolicies))
	}
	lost := map[string]float64{}
	for _, p := range tab.Points {
		cell := p.Extra.(CampaignCell)
		if cell.Runs != 1200 {
			t.Errorf("%s/%s: runs=%d, want 1200", cell.Policy, cell.QoS, cell.Runs)
		}
		if cell.ExpectedPerRun <= 0 {
			t.Errorf("%s/%s: analytic expectation %v", cell.Policy, cell.QoS, cell.ExpectedPerRun)
		}
		if cell.Failures == 0 {
			t.Errorf("%s/%s: accelerated campaign observed no failures", cell.Policy, cell.QoS)
			continue
		}
		if cell.MeanLostPerFail <= 0 || cell.LostPerKiloRun <= 0 {
			t.Errorf("%s/%s: loss accounting empty: %+v", cell.Policy, cell.QoS, cell)
		}
		if cell.QoS == "qos-off" {
			lost[cell.Policy.String()] = cell.MeanLostPerFail
		}
	}
	if !(lost["immediate"] < lost["epoch-end"] && lost["epoch-end"] < lost["watermark"]) {
		t.Errorf("policy ordering violated: immediate %.2f, epoch-end %.2f, watermark %.2f",
			lost["immediate"], lost["epoch-end"], lost["watermark"])
	}
	pinned(t, "node-hours lost per failure, immediate", lost["immediate"], "6.2146")
	pinned(t, "node-hours lost per failure, watermark", lost["watermark"], "23.5560")
}

// TestCampaignAtPresetMTBF: at the real 500k-hour MTBF the analytic
// expectation is tiny; the auto-sizer must still draw enough runs to
// measure failures rather than reporting an empty campaign.
func TestCampaignAtPresetMTBF(t *testing.T) {
	o := Options{Seed: 1}
	tab, err := o.CampaignFailure()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range tab.Points {
		cell := p.Extra.(CampaignCell)
		if cell.ExpectedPerRun >= 0.01 {
			t.Errorf("%s/%s: preset-MTBF expectation %v suspiciously high", cell.Policy, cell.QoS, cell.ExpectedPerRun)
		}
		if cell.Failures == 0 {
			t.Errorf("%s/%s: auto-sized campaign (%d runs) observed no failures", cell.Policy, cell.QoS, cell.Runs)
		}
	}
}
