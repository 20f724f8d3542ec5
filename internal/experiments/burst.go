package experiments

import (
	"fmt"
	"strings"

	"picmcio/internal/bit1"
	"picmcio/internal/cluster"
	"picmcio/internal/sweep"
	"picmcio/internal/units"
)

// BurstPoint is one node count of the burst-buffer figure: the direct vs
// staged apparent client throughput, plus the drain accounting that shows
// write-back overlapping compute.
type BurstPoint struct {
	Nodes        int
	DirectGiBs   float64 // openPMD+BP4 straight to the PFS
	StagedGiBs   float64 // openPMD+BP4 through the burst tier
	DrainSec     float64 // cumulative drain-worker busy time (all nodes)
	DrainTailSec float64 // wall-clock drain left after the last rank finished
	OverlapFrac  float64 // share of drain busy time accrued while ranks ran

	AbsorbedBytes, FallbackBytes, DrainedBytes int64
}

// bp4Staged is the BP4 default routed through the burst tier: the
// burst_buffer key is what lets the core adaptor select staged I/O.
var bp4Staged = Config{Label: "BIT1 openPMD + BP4, staged", Mode: bit1.IOOpenPMD, TOML: func(nodes int) (string, error) {
	toml, err := BP4.TOML(nodes)
	return "burst_buffer = true\n" + toml, err
}}

// FigBurstSweep is the burst-buffer staging figure (new scenario axis
// beyond the paper's §IV tuning surface) as a grid declaration: on Dardel,
// BIT1 openPMD+BP4 writing directly to Lustre vs staging through the
// node-local burst tier, one axis (node count), one trial measuring the
// direct and staged runs back to back. Staged runs charge compute between
// epochs so the asynchronous drain has something to overlap with. The
// Extra payload carries the typed BurstPoint the figure's table builders
// use.
func (o Options) FigBurstSweep() (sweep.Table, error) {
	o = o.WithDefaults()
	// ~20 ms of compute per 100-step epoch gap: enough window for the
	// drain scheduler to overlap write-back with the next phase.
	o.computePerStep = 200e-6
	m := cluster.Dardel()
	g := sweep.Grid{sweep.Ints("nodes", o.NodeCounts)}
	return sweep.Run(g, o.sweepOptions("Fig B: direct vs burst-buffer-staged openPMD+BP4 on Dardel (GiB/s)"),
		func(c sweep.Config) (sweep.Point, error) {
			nodes := c.Int("nodes")
			rd, err := o.RunBIT1(Run{Machine: m, Nodes: nodes, Config: BP4})
			if err != nil {
				return sweep.Point{}, fmt.Errorf("figburst direct: %w", err)
			}
			pt := BurstPoint{Nodes: nodes, DirectGiBs: rd.ThroughputGiBs}
			rd.release() // before the staged run, which takes its records
			rs, err := o.RunBIT1(Run{Machine: m, Nodes: nodes, Config: bp4Staged})
			if err != nil {
				return sweep.Point{}, fmt.Errorf("figburst staged: %w", err)
			}
			defer rs.release()
			pt.StagedGiBs = rs.ThroughputGiBs
			if rs.Burst != nil {
				pt.DrainSec = rs.Burst.DrainBusySec
				pt.DrainTailSec = rs.DrainTailSec
				if pt.DrainSec > 0 {
					pt.OverlapFrac = rs.DrainOverlapSec / pt.DrainSec
					if pt.OverlapFrac > 1 {
						pt.OverlapFrac = 1
					}
				}
				pt.AbsorbedBytes = rs.Burst.AbsorbedBytes
				pt.FallbackBytes = rs.Burst.FallbackBytes
				pt.DrainedBytes = rs.Burst.DrainedBytes
			}
			return sweep.Point{
				Values: []sweep.Value{
					sweep.V("direct_gibps", pt.DirectGiBs),
					sweep.V("staged_gibps", pt.StagedGiBs),
					sweep.V("drain_busy_s", pt.DrainSec),
					sweep.V("drain_tail_s", pt.DrainTailSec),
					sweep.V("overlap_frac", pt.OverlapFrac),
					sweep.V("absorbed_bytes", float64(pt.AbsorbedBytes)),
					sweep.V("fallback_bytes", float64(pt.FallbackBytes)),
				},
				Extra: pt,
			}, nil
		})
}

// burstSeriesAndPoints derives the figure's series and typed points from
// the sweep table.
func burstSeriesAndPoints(t sweep.Table) ([]Series, []BurstPoint) {
	direct := Series{Label: "openPMD+BP4 direct"}
	staged := Series{Label: "openPMD+BP4 staged"}
	var pts []BurstPoint
	for _, p := range t.Points {
		pt := p.Extra.(BurstPoint)
		pts = append(pts, pt)
		direct.X = append(direct.X, float64(pt.Nodes))
		direct.Y = append(direct.Y, pt.DirectGiBs)
		staged.X = append(staged.X, float64(pt.Nodes))
		staged.Y = append(staged.Y, pt.StagedGiBs)
	}
	return []Series{direct, staged}, pts
}

// renderBurst builds the artifact's text block: the direct and staged
// series plus the drain accounting table.
func renderBurst(st sweep.Table) string {
	ss, pts := burstSeriesAndPoints(st)
	var b strings.Builder
	b.WriteString(RenderSeries(st.Title, "nodes", ss) + "\n")
	t := Table{
		Title:  "Fig B drain accounting (Dardel burst tier)",
		Header: []string{"nodes", "drain busy", "drain tail", "overlap", "absorbed", "fallback"},
	}
	for _, pt := range pts {
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(pt.Nodes),
			units.Seconds(pt.DrainSec),
			units.Seconds(pt.DrainTailSec),
			fmt.Sprintf("%.1f%%", 100*pt.OverlapFrac),
			units.Bytes(pt.AbsorbedBytes),
			units.Bytes(pt.FallbackBytes),
		})
	}
	b.WriteString(t.Render() + "\n")
	return b.String()
}
