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

// WorkloadKinds is the workload axis of figworkload, in table order: the
// flat chunked per-node writer and the mpisim rank schedule with
// aggregator fan-in. Both emit the same logical volume per node per
// epoch (96 MiB checkpoint + 32 MiB diagnostics), so every difference
// between their rows is traffic shape, not traffic volume.
var WorkloadKinds = []string{"chunked", "ranks"}

// WorkloadQoSPolicies is the drain-QoS axis (a subset of the contention
// grid's policies: the deadline pacer needs a per-workload window and is
// left to FigContention).
var WorkloadQoSPolicies = []qosSetting{qosOff, qosPriority, qosRateLimit}

// WorkloadAggregators is the aggregator-count axis for the rank
// workload: how many writer groups the node leaders gather into. The
// chunked workload has no aggregation stage, so its cells are invariant
// along this axis.
var WorkloadAggregators = []int{1, 2, 4}

const (
	workloadEpochs = 3
	workloadNodes  = 4
	workloadRanks  = 4 // ranks per node in the rank schedule
)

// workloadSpecs builds the two-job co-schedule of one figworkload cell
// on Dardel: the workload under test staging through an epoch-end burst
// tier next to a direct flat writer, both striped across every OST.
func workloadSpecs(kind string, aggr int, qos burst.QoS) ([]jobs.Spec, error) {
	var wl jobs.Workload
	switch kind {
	case "chunked":
		wl = jobs.ChunkedWriter{
			Epochs:          workloadEpochs,
			CheckpointBytes: 96 * units.MiB,
			DiagBytes:       32 * units.MiB,
			ComputeSec:      0.02,
			ChunkBytes:      16 * units.MiB,
		}
	case "ranks":
		// 4 ranks × 24 MiB checkpoint and 4 × 8 MiB diagnostics per node:
		// the chunked workload's volume, funnelled through aggr writers.
		wl = jobs.RankWorkload{
			Epochs:                 workloadEpochs,
			RanksPerNode:           workloadRanks,
			Aggregators:            aggr,
			CheckpointBytesPerRank: 24 * units.MiB,
			DiagBytesPerRank:       8 * units.MiB,
			ComputeSec:             0.02,
			ChunkBytes:             16 * units.MiB,
		}
	default:
		return nil, fmt.Errorf("figworkload: unknown workload kind %q", kind)
	}
	return []jobs.Spec{
		{
			Name:        "staged",
			Nodes:       workloadNodes,
			Burst:       stagedTier(0, burst.PolicyEpochEnd, qos), // PFS-limited unless a QoS knob caps it
			Workload:    wl,
			StripeCount: -1,
		},
		{
			Name:  "direct",
			Nodes: workloadNodes,
			Workload: jobs.BulkWriter{
				Epochs:          workloadEpochs,
				CheckpointBytes: 96 * units.MiB,
				DiagBytes:       32 * units.MiB,
				ComputeSec:      0.02,
			},
			StripeCount: -1,
		},
	}, nil
}

// WorkloadCell is one grid cell of the workload-composition figure.
type WorkloadCell struct {
	Kind string
	QoS  string
	Aggr int

	Result *jobs.ContentionResult
}

// FigWorkloadSweep is the workload-composition artifact as a grid
// declaration: every workload kind through the same staged two-job
// scenario under every drain QoS, with the rank schedule additionally
// swept over aggregator counts — workload kind × drain QoS × aggregator
// count, one jobs.Contention run per cell; the composition the Workload
// interface exists to make a grid instead of a per-combination rewrite. The
// chunked workload has no aggregation stage, so its cells depend only on
// the QoS axis; they are precomputed once per policy into an immutable
// map the trials read (the FigFault baseline pattern), keeping trials
// pure for parallel determinism without re-simulating identical cells.
func (o Options) FigWorkloadSweep() (sweep.Table, error) {
	o = o.WithDefaults()
	m := cluster.Dardel()
	chunked := map[string]*jobs.ContentionResult{}
	for _, q := range WorkloadQoSPolicies {
		specs, err := workloadSpecs("chunked", 1, q.qos)
		if err != nil {
			return sweep.Table{}, err
		}
		res, err := jobs.Contention(m, specs, o.Seed)
		if err != nil {
			return sweep.Table{}, fmt.Errorf("figworkload chunked/%s: %w", q, err)
		}
		chunked[q.name] = res
	}
	g := sweep.Grid{
		sweep.Strings("workload", WorkloadKinds),
		settingsAxis("qos", WorkloadQoSPolicies),
		sweep.Ints("aggregators", WorkloadAggregators),
	}
	return sweep.Run(g, o.sweepOptions("Fig W: workload composition on Dardel (staged workload-under-test vs direct neighbour)"),
		func(c sweep.Config) (sweep.Point, error) {
			kind := c.Str("workload")
			q := c.Value("qos").(qosSetting)
			aggr := c.Int("aggregators")
			res := chunked[q.name]
			if kind != "chunked" {
				specs, err := workloadSpecs(kind, aggr, q.qos)
				if err != nil {
					return sweep.Point{}, err
				}
				res, err = jobs.Contention(m, specs, o.Seed)
				if err != nil {
					return sweep.Point{}, fmt.Errorf("figworkload %s/%s/%d: %w", kind, q, aggr, err)
				}
			}
			staged := res.Jobs[0]
			cell := WorkloadCell{Kind: kind, QoS: q.name, Aggr: aggr, Result: res}
			return sweep.Point{
				Values: []sweep.Value{
					sweep.V("staged_slowdown_x", res.Slowdown[0]),
					sweep.V("direct_slowdown_x", res.Slowdown[1]),
					sweep.V("jain", res.Jain),
					sweep.V("staged_durable_s", staged.DurableSec),
					sweep.V("staged_drain_gibps", units.GiBps(staged.DrainBps)),
					sweep.V("ckpt_drained_bytes", float64(staged.Burst.Class[burst.ClassCheckpoint].DrainedBytes)),
					sweep.V("diag_drained_bytes", float64(staged.Burst.Class[burst.ClassDiagnostic].DrainedBytes)),
				},
				Extra: cell,
			}, nil
		})
}

// workloadTable builds the figure's text table and typed cells from the
// sweep table. Chunked cells are identical along the aggregator axis, so
// the text table prints them once per QoS (the JSON keeps every cell);
// the dash in the aggr column marks the axis as not applicable.
func workloadTable(st sweep.Table) (Table, []WorkloadCell) {
	t := Table{Title: st.Title, Header: append([]string{"workload", "qos", "aggr", "job"}, jobCellsHeader...)}
	var cells []WorkloadCell
	for _, p := range st.Points {
		cell := p.Extra.(WorkloadCell)
		cells = append(cells, cell)
		aggr := fmt.Sprint(cell.Aggr)
		if cell.Kind == "chunked" {
			if cell.Aggr != WorkloadAggregators[0] {
				continue
			}
			aggr = "-"
		}
		for i, j := range cell.Result.Jobs {
			t.Rows = append(t.Rows, append([]string{cell.Kind, cell.QoS, aggr, j.Name}, jobCells(cell.Result, i)...))
		}
	}
	return t, cells
}

// renderWorkload builds the artifact's text block: the grid table plus
// the line the aggregator axis exists to show — funnelling the same
// volume through fewer writer nodes changes when it is durable.
func renderWorkload(st sweep.Table) string {
	t, cells := workloadTable(st)
	var b strings.Builder
	b.WriteString(t.Render() + "\n")
	for _, q := range WorkloadQoSPolicies {
		fmt.Fprintf(&b, "rank schedule, %-11s staged durable by aggregator count:", q.name+":")
		for _, c := range cells {
			if c.Kind == "ranks" && c.QoS == q.name {
				fmt.Fprintf(&b, "  %d aggr %s", c.Aggr, units.Seconds(c.Result.Jobs[0].DurableSec))
			}
		}
		b.WriteString("\n")
	}
	b.WriteString("\n")
	return b.String()
}
