package experiments

import (
	"strings"
	"testing"

	"picmcio/internal/ckptopt"
)

// TestFigInterval pins the interval figure's structure: the analytic
// optimum is marked exactly once per (machine, policy, durability)
// curve, the waste curve is minimal at the mark, and the buffered
// cadence is shorter than the PFS one on every staging machine — cheap
// saves shift the Young/Daly optimum toward more frequent checkpoints,
// which is the point of the staging tier.
func TestFigInterval(t *testing.T) {
	o := Options{Seed: 1}
	st, err := o.FigIntervalSweep()
	if err != nil {
		t.Fatal(err)
	}
	type curve struct{ machine, policy, durability string }
	marks := map[curve]int{}
	atOpt := map[curve]float64{}
	minWaste := map[curve]float64{}
	numeric := map[curve]float64{}
	for _, p := range st.Points {
		cell := p.Extra.(IntervalCell)
		k := curve{cell.Machine, cell.Policy, cell.Durability}
		if cell.Scale == 1 {
			marks[k]++
			atOpt[k] = cell.WasteFrac
			numeric[k] = cell.Level.NumericSec
		}
		if w, ok := minWaste[k]; !ok || cell.WasteFrac < w {
			minWaste[k] = cell.WasteFrac
		}
		if cell.IntervalSec <= 0 || cell.WasteFrac <= 0 || cell.WasteFrac >= 1 {
			t.Errorf("%v scale %v: degenerate cell (interval %v, waste %v)",
				k, cell.Scale, cell.IntervalSec, cell.WasteFrac)
		}
		// The closed forms must bracket the numeric optimum tightly in
		// this δ ≪ M regime.
		if cell.Scale == 1 {
			for _, closed := range []float64{cell.Level.YoungSec, cell.Level.DalySec} {
				if rel := (closed - cell.Level.NumericSec) / cell.Level.NumericSec; rel > 0.02 || rel < -0.02 {
					t.Errorf("%v: closed form %v vs numeric %v diverge by %.3f", k, closed, cell.Level.NumericSec, rel)
				}
			}
		}
	}
	// What the cost probes measured on Dardel under immediate draining, as
	// the bandwidth of a 128 MiB checkpoint at each durability level, and
	// the cadence that prices into.
	dardel := func(durability string) ckptopt.Level {
		for _, p := range st.Points {
			if cell := p.Extra.(IntervalCell); cell.Machine == "Dardel" && cell.Policy == "immediate" && cell.Durability == durability && cell.Scale == 1 {
				return cell.Level
			}
		}
		t.Fatalf("no Dardel/immediate/%s cell", durability)
		return ckptopt.Level{}
	}
	pinned(t, "buffered checkpoint GiB/s", 128/1024.0/dardel("buffered").SaveSec, "5.5116")
	pinned(t, "PFS checkpoint GiB/s", 128/1024.0/dardel("pfs").SaveSec, "2.2732")
	pinned(t, "buffered optimal interval s", dardel("buffered").NumericSec, "6389.3108")
	pinned(t, "PFS optimal interval s", dardel("pfs").NumericSec, "9948.9070")
	if len(marks) != 2*3*2 {
		t.Fatalf("expected 12 curves, saw %d", len(marks))
	}
	for k, n := range marks {
		if n != 1 {
			t.Errorf("%v: optimum marked %d times", k, n)
		}
		if atOpt[k] > minWaste[k]+1e-15 {
			t.Errorf("%v: waste at the mark (%v) above the grid minimum (%v)", k, atOpt[k], minWaste[k])
		}
	}
	for _, m := range []string{"Dardel", "Vega"} {
		for _, pol := range []string{"immediate", "epoch-end", "watermark"} {
			buf := numeric[curve{m, pol, "buffered"}]
			pfs := numeric[curve{m, pol, "pfs"}]
			if !(buf > 0 && buf < pfs) {
				t.Errorf("%s/%s: buffered optimum %v not shorter than PFS %v", m, pol, buf, pfs)
			}
		}
	}
	// Survival-weighted Young: diverged (0) on Dardel whose NVMe dies
	// with the node, equal to plain Young on Vega whose staging survives.
	for _, p := range st.Points {
		cell := p.Extra.(IntervalCell)
		if cell.Durability != "buffered" || cell.Scale != 1 {
			continue
		}
		sw, _ := p.Get("young_surv_s")
		switch cell.Machine {
		case "Dardel":
			if sw != 0 {
				t.Errorf("Dardel survival-weighted Young %v, want 0 (s=0 diverges)", sw)
			}
		case "Vega":
			if sw != cell.Level.YoungSec {
				t.Errorf("Vega survival-weighted Young %v, want plain Young %v", sw, cell.Level.YoungSec)
			}
		}
	}
}

// TestCampaignOptimalValidates is the PR's acceptance criterion: on
// both staging presets, the empirical waste at the ckptopt-recommended
// interval is no worse than every fixed-interval baseline in the grid.
// The accelerated MTBF keeps the Monte-Carlo campaign small enough for
// a unit test while still observing enough failures per cell to settle
// the comparison.
func TestCampaignOptimalValidates(t *testing.T) {
	o := Options{Seed: 1, CampaignMTBFHours: 500}
	st, err := o.CampaignOptimum()
	if err != nil {
		t.Fatal(err)
	}
	verdicts := OptimalVerdicts(st)
	if len(verdicts) != 2 {
		t.Fatalf("expected verdicts for both staging presets, got %v", verdicts)
	}
	for m, ok := range verdicts {
		if !ok {
			t.Errorf("%s: a fixed baseline beat the ckptopt recommendation", m)
		}
	}
	for _, p := range st.Points {
		cell := p.Extra.(OptimalCell)
		if cell.Failures == 0 {
			t.Errorf("%s scale %v observed no failures — the comparison is vacuous", cell.Machine, cell.Scale)
		}
		if cell.OverheadNH <= 0 || cell.WastePerKNH <= 0 {
			t.Errorf("%s scale %v: degenerate accounting %+v", cell.Machine, cell.Scale, cell)
		}
	}
	if !strings.Contains(renderOptimal(st), "recommendation validated") {
		t.Error("render lost the verdict line")
	}

	// Bit-identical under the worker pool, like every sweep artifact.
	po := o
	po.Parallel = 4
	pst, err := po.CampaignOptimum()
	if err != nil {
		t.Fatal(err)
	}
	if renderOptimal(st) != renderOptimal(pst) {
		t.Fatal("campopt diverged between serial and -parallel 4")
	}
}
