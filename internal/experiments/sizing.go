package experiments

import (
	"fmt"
	"sort"
	"strings"

	"picmcio/internal/cluster"
	"picmcio/internal/jobs"
	"picmcio/internal/sweep"
	"picmcio/internal/units"
)

// sizingWorkload is the fixed staged workload every sizing cell runs: a
// checkpoint-heavy writer whose per-node epoch output the capacity axis
// is expressed against.
func sizingWorkload() jobs.ChunkedWriter {
	return jobs.ChunkedWriter{
		Epochs:          4,
		CheckpointBytes: 96 * units.MiB,
		DiagBytes:       32 * units.MiB,
		ComputeSec:      0.02,
		ChunkBytes:      16 * units.MiB,
	}
}

// sizingEpochBytes is one node's output per epoch under sizingWorkload.
func sizingEpochBytes() int64 {
	return sizingWorkload().Shape().BytesPerNode
}

// SizingPoint is one cell of the buffer-sizing grid.
type SizingPoint struct {
	Machine        string
	CapacityEpochs float64 // NVMe capacity in units of per-node epoch output
	DrainScale     float64 // drain rate as a fraction of the preset's

	AppSpeedup   float64 // direct AppSec / staged AppSec: the staging win
	DurableX     float64 // staged DurableSec / direct DurableSec: the write-back debt
	FallbackFrac float64 // share of staged bytes that fell back to the PFS
	DrainGiBs    float64 // achieved write-back bandwidth
}

// FigSizing is the buffer-sizing sweep (ROADMAP: FigBurst
// generalization): per machine preset carrying sizing ranges, a burst
// capacity × drain-rate grid over a fixed staged workload, each cell
// compared against the same workload writing directly to the PFS. The
// apparent-speedup surface locates the knee where staging stops helping:
// undersized capacity sends absorbs into PFS fallback (speedup → 1),
// and a throttled drain stretches the durable tail past the direct run.
func (o Options) FigSizing() (sweep.Table, error) {
	o = o.WithDefaults()
	var machines []cluster.Machine
	for _, m := range cluster.Machines() {
		if m.Burst.Enabled() && m.Sizing.Enabled() {
			machines = append(machines, m)
		}
	}
	if len(machines) == 0 {
		return sweep.Table{}, fmt.Errorf("figsizing: no machine preset declares sizing ranges")
	}
	// The grid crosses the union of the presets' declared ranges so one
	// rectangular table covers every machine; a cell outside its own
	// machine's range stays empty rather than fabricating a measurement.
	mAxis := sweep.Axis{Name: "machine"}
	caps := map[float64]bool{}
	drains := map[float64]bool{}
	for _, m := range machines {
		mAxis.Values = append(mAxis.Values, m.Name)
		for _, c := range m.Sizing.CapacityEpochs {
			caps[c] = true
		}
		for _, d := range m.Sizing.DrainScale {
			drains[d] = true
		}
	}
	byName := map[string]cluster.Machine{}
	for _, m := range machines {
		byName[m.Name] = m
	}
	g := sweep.Grid{
		mAxis,
		sweep.Floats("capacity_epochs", sortedKeys(caps)),
		sweep.Floats("drain_scale", sortedKeys(drains)),
	}
	wl := sizingWorkload()
	epochBytes := sizingEpochBytes()
	return sweep.Run(g, o.sweepOptions("Fig S: burst capacity × drain-rate sizing grid (staged vs direct, isolated job)"),
		func(c sweep.Config) (sweep.Point, error) {
			m := byName[c.Str("machine")]
			capEpochs := c.Float("capacity_epochs")
			drainScale := c.Float("drain_scale")
			if !inRange(m.Sizing.CapacityEpochs, capEpochs) || !inRange(m.Sizing.DrainScale, drainScale) {
				// Outside the machine's declared range: an empty point keeps
				// the grid rectangular without fabricating a measurement.
				return sweep.Point{Extra: SizingPoint{Machine: m.Name, CapacityEpochs: capEpochs, DrainScale: drainScale}}, nil
			}
			spec := m.Burst
			spec.CapacityBytes = int64(capEpochs * float64(epochBytes))
			spec.DrainRate = m.Burst.DrainRate * drainScale
			staged := jobs.Spec{Name: "staged", Nodes: 2, Burst: spec, Workload: wl, StripeCount: -1}
			direct := jobs.Spec{Name: "direct", Nodes: 2, Workload: wl, StripeCount: -1}
			rs, err := jobs.Run(m, []jobs.Spec{staged}, o.Seed)
			if err != nil {
				return sweep.Point{}, fmt.Errorf("figsizing staged: %w", err)
			}
			rd, err := jobs.Run(m, []jobs.Spec{direct}, o.Seed)
			if err != nil {
				return sweep.Point{}, fmt.Errorf("figsizing direct: %w", err)
			}
			pt := SizingPoint{
				Machine:        m.Name,
				CapacityEpochs: capEpochs,
				DrainScale:     drainScale,
			}
			if rs[0].AppSec > 0 {
				pt.AppSpeedup = rd[0].AppSec / rs[0].AppSec
			}
			if rd[0].DurableSec > 0 {
				pt.DurableX = rs[0].DurableSec / rd[0].DurableSec
			}
			if st := rs[0].Burst; st != nil {
				if total := st.AbsorbedBytes + st.FallbackBytes; total > 0 {
					pt.FallbackFrac = float64(st.FallbackBytes) / float64(total)
				}
				pt.DrainGiBs = units.GiBps(rs[0].DrainBps)
			}
			return sweep.Point{
				Values: []sweep.Value{
					sweep.V("app_speedup_x", pt.AppSpeedup),
					sweep.V("durable_x", pt.DurableX),
					sweep.V("fallback_frac", pt.FallbackFrac),
					sweep.V("drain_gibps", pt.DrainGiBs),
				},
				Extra: pt,
			}, nil
		})
}

// SizingKnees summarizes the sizing table per machine and drain scale:
// the smallest capacity (in epochs of output) at which the staging
// speedup reaches 95% of that drain rate's best — below it, staging has
// stopped helping. Rows render in table point order.
func SizingKnees(t sweep.Table) []string {
	type key struct {
		machine string
		drain   float64
	}
	best := map[key]float64{}
	var order []key
	for _, p := range t.Points {
		pt := p.Extra.(SizingPoint)
		if pt.AppSpeedup == 0 {
			continue
		}
		k := key{pt.Machine, pt.DrainScale}
		if _, ok := best[k]; !ok {
			order = append(order, k)
		}
		if pt.AppSpeedup > best[k] {
			best[k] = pt.AppSpeedup
		}
	}
	knee := map[key]float64{}
	for _, p := range t.Points {
		pt := p.Extra.(SizingPoint)
		if pt.AppSpeedup == 0 {
			continue
		}
		k := key{pt.Machine, pt.DrainScale}
		if pt.AppSpeedup >= 0.95*best[k] {
			if cur, ok := knee[k]; !ok || pt.CapacityEpochs < cur {
				knee[k] = pt.CapacityEpochs
			}
		}
	}
	var out []string
	for _, k := range order {
		out = append(out, fmt.Sprintf("%s drain %gx: staging needs >= %g epoch(s) of capacity (best speedup %.3fx)",
			k.machine, k.drain, knee[k], best[k]))
	}
	return out
}

// sortedKeys returns the map's keys ascending.
func sortedKeys(m map[float64]bool) []float64 {
	out := make([]float64, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Float64s(out)
	return out
}

// inRange reports whether v is one of the declared range values.
func inRange(vs []float64, v float64) bool {
	for _, x := range vs {
		if x == v {
			return true
		}
	}
	return false
}

// renderSizing builds the artifact's text block: the grid table plus the
// per-machine knee summary.
func renderSizing(t sweep.Table) string {
	var b strings.Builder
	b.WriteString(t.Render())
	for _, line := range SizingKnees(t) {
		b.WriteString(line)
		b.WriteByte('\n')
	}
	b.WriteByte('\n')
	return b.String()
}
