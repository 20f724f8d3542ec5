package experiments

import (
	"fmt"
	"strings"

	"picmcio/internal/burst"
	"picmcio/internal/cluster"
	"picmcio/internal/jobs"
	"picmcio/internal/sweep"
	"picmcio/internal/units"
)

// qosSetting is one named drain-QoS setting of the staged scenarios: a
// sweep axis value that prints as its name.
type qosSetting struct {
	name string
	qos  burst.QoS
}

func (q qosSetting) String() string { return q.name }

// The drain-QoS settings the staged scenarios share: the plain
// scheduler, the checkpoint priority lane, and a per-node write-back cap
// well under the PFS-limited burst rate (write-back yields bandwidth to
// the neighbour at the cost of a longer tail, and a backlog that spans
// epochs leaves the durable position further behind the buffered one).
var (
	qosOff       = qosSetting{"qos-off", burst.QoS{}}
	qosPriority  = qosSetting{"priority", burst.QoS{PriorityLanes: true}}
	qosRateLimit = qosSetting{"rate-limit", burst.QoS{DrainLimit: 1.5e9}}
)

// ContentionQoSPolicies is the drain-QoS grid of FigContention, in table
// order: the shared settings plus drain-by-next-epoch deadline pacing,
// whose window is one epoch interval — absorb (~22 ms at NVMe speed)
// plus the compute phase.
var ContentionQoSPolicies = []qosSetting{qosOff, qosPriority, qosRateLimit, {"deadline", burst.QoS{Deadline: 0.04}}}

// settingsAxis builds a sweep axis over typed settings, each printed by
// its String method.
func settingsAxis[T fmt.Stringer](name string, vs []T) sweep.Axis {
	a := sweep.Axis{Name: name}
	for _, v := range vs {
		a.Values = append(a.Values, v)
	}
	return a
}

// ContentionRow is one QoS policy's measurement of the two-job scenario.
type ContentionRow struct {
	Policy string
	Result *jobs.ContentionResult
}

// stagedTier is the node-local NVMe tier of the extension scenarios
// (figcontention, figworkload, figfault, campfail): 2 GiB a node
// absorbing at 6 GB/s, draining at drainRate (0: PFS-limited) under the
// given policy and QoS.
func stagedTier(drainRate float64, policy burst.Policy, qos burst.QoS) burst.Spec {
	return burst.Spec{
		CapacityBytes: 2 << 30,
		Rate:          6e9,
		PerOp:         25e-6,
		DrainRate:     drainRate,
		Policy:        policy,
		QoS:           qos,
	}
}

// contentionSpecs builds the canonical two-job scenario on machine m: a
// checkpoint-heavy job staging through a per-node burst tier (epoch-end
// drain, so write-back bursts right when the neighbour writes) next to a
// job writing directly to the shared PFS. Both stripe across every OST.
func contentionSpecs(qos burst.QoS, epochs int) []jobs.Spec {
	wl := jobs.BulkWriter{
		Epochs:          epochs,
		CheckpointBytes: 96 * units.MiB,
		DiagBytes:       32 * units.MiB,
		ComputeSec:      0.02,
	}
	return []jobs.Spec{
		{
			Name:  "staged",
			Nodes: 4,
			// PFS-limited drain: write-back bursts at full fabric speed
			// unless a QoS knob reins it in.
			Burst:       stagedTier(0, burst.PolicyEpochEnd, qos),
			Workload:    wl,
			StripeCount: -1,
		},
		{Name: "direct", Nodes: 4, Workload: wl, StripeCount: -1},
	}
}

// FigContentionSweep is the multi-job contention artifact as a grid
// declaration: the two-job scenario on Dardel, one axis (the drain-QoS
// policy), one jobs.Contention run per cell, reporting per-job slowdown vs
// an isolated run, apparent and write-back bandwidths, the per-lane drain
// split, and Jain's fairness index per policy. The Extra payload carries
// the ContentionRow the figure's table builder uses.
func (o Options) FigContentionSweep() (sweep.Table, error) {
	o = o.WithDefaults()
	m := cluster.Dardel()
	g := sweep.Grid{settingsAxis("policy", ContentionQoSPolicies)}
	return sweep.Run(g, o.sweepOptions("Fig C: multi-job contention on Dardel (staged ckpt-heavy job vs direct neighbour)"),
		func(c sweep.Config) (sweep.Point, error) {
			q := c.Value("policy").(qosSetting)
			res, err := jobs.Contention(m, contentionSpecs(q.qos, 3), o.Seed)
			if err != nil {
				return sweep.Point{}, fmt.Errorf("figcontention: %w", err)
			}
			vals := []sweep.Value{
				sweep.V("max_slowdown_x", res.MaxSlowdown()),
				sweep.V("jain", res.Jain),
			}
			for i, j := range res.Jobs {
				vals = append(vals,
					sweep.V(j.Name+"_slowdown_x", res.Slowdown[i]),
					sweep.V(j.Name+"_client_gibps", units.GiBps(j.ClientBps)))
			}
			return sweep.Point{Values: vals, Extra: ContentionRow{Policy: q.name, Result: res}}, nil
		})
}

// contentionTable builds the figure's text table and typed rows from the
// sweep table. The text table inherits the sweep's title, so text and JSON cannot drift.
func contentionTable(st sweep.Table) (Table, []ContentionRow) {
	t := Table{Title: st.Title, Header: append([]string{"policy", "job", "nodes"}, jobCellsHeader...)}
	var rows []ContentionRow
	for _, p := range st.Points {
		row := p.Extra.(ContentionRow)
		rows = append(rows, row)
		for i, j := range row.Result.Jobs {
			t.Rows = append(t.Rows, append([]string{row.Policy, j.Name, fmt.Sprint(j.Nodes)}, jobCells(row.Result, i)...))
		}
	}
	return t, rows
}

// jobCellsHeader heads the columns of jobCells.
var jobCellsHeader = []string{"durable", "slowdown", "client GiB/s", "drain GiB/s", "ckpt drained", "diag drained", "Jain"}

// jobCells formats job i of a co-schedule as the per-job columns the
// contention and workload tables share: durable time, slowdown, client
// and drain bandwidth, bytes drained per lane ("-" for a direct writer)
// and the run's Jain index.
func jobCells(res *jobs.ContentionResult, i int) []string {
	j := res.Jobs[i]
	ck, dg, drain := "-", "-", "-"
	if j.Burst != nil {
		ck = units.Bytes(j.Burst.Class[burst.ClassCheckpoint].DrainedBytes)
		dg = units.Bytes(j.Burst.Class[burst.ClassDiagnostic].DrainedBytes)
		drain = fmt.Sprintf("%.3f", units.GiBps(j.DrainBps))
	}
	return []string{
		units.Seconds(j.DurableSec),
		fmt.Sprintf("%.3fx", res.Slowdown[i]),
		fmt.Sprintf("%.3f", units.GiBps(j.ClientBps)),
		drain, ck, dg,
		fmt.Sprintf("%.4f", res.Jain),
	}
}

// renderContention builds the artifact's text block: the grid table plus
// each policy's worst slowdown and Jain index.
func renderContention(st sweep.Table) string {
	t, rows := contentionTable(st)
	var b strings.Builder
	b.WriteString(t.Render() + "\n")
	for _, row := range rows {
		res := row.Result
		fmt.Fprintf(&b, "%-10s  max slowdown %.3fx  Jain %.4f\n", row.Policy, res.MaxSlowdown(), res.Jain)
	}
	b.WriteString("\n")
	return b.String()
}
