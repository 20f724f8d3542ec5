package experiments

import (
	"fmt"
	"strings"

	"picmcio/internal/fault"
	"picmcio/internal/sweep"
	"picmcio/internal/units"
)

// Output is one rendered artifact: the text block cmd/experiments
// prints, plus — for sweep-backed artifacts — the machine-readable
// sweep table the -json emitter serializes.
type Output struct {
	Text  string
	Table *sweep.Table // nil for artifacts without a sweep form
}

// Artifact is one named entry of the evaluation catalogue.
type Artifact struct {
	Name string
	Desc string
	// Run renders the artifact; nodes is the fixed-scale node count the
	// node-parameterized artifacts (fig5, fig6, fig8, fig9) use.
	Run func(o Options, nodes int) (Output, error)
}

// Catalog lists every artifact in run-all order. cmd/experiments -list
// prints it; -run resolves names against it.
func Catalog() []Artifact { return catalog }

// Lookup finds an artifact by name.
func Lookup(name string) (Artifact, bool) {
	for _, a := range catalog {
		if a.Name == name {
			return a, true
		}
	}
	return Artifact{}, false
}

// scalingArtifact declares a paper figure that plots series against the
// node count under the given title.
func scalingArtifact(name, desc, title string, run func(Options) ([]Series, error)) Artifact {
	return Artifact{name, desc, func(o Options, _ int) (Output, error) {
		ss, err := run(o)
		if err != nil {
			return Output{}, err
		}
		return Output{Text: RenderSeries(title, "nodes", ss) + "\n"}, nil
	}}
}

// gridArtifact declares a sweep-backed artifact: its text is what render
// makes of the sweep table, and -json serializes the table itself.
func gridArtifact(name, desc string, run func(Options) (sweep.Table, error), render func(sweep.Table) string) Artifact {
	return Artifact{name, desc, func(o Options, _ int) (Output, error) {
		st, err := run(o)
		if err != nil {
			return Output{}, err
		}
		return Output{Text: render(st), Table: &st}, nil
	}}
}

var catalog = []Artifact{
	scalingArtifact("fig2", "BIT1 original file I/O write throughput on all three machines",
		"Fig 2: BIT1 original file I/O write throughput (GiB/s)", Options.Fig2),
	scalingArtifact("fig3", "original I/O vs openPMD+BP4 scaling on Dardel",
		"Fig 3: original vs openPMD+BP4 on Dardel (GiB/s)", Options.Fig3),
	scalingArtifact("fig4", "BIT1 configurations vs the IOR reference lines on Dardel",
		"Fig 4: BIT1 vs IOR on Dardel (GiB/s)", Options.Fig4),
	{"fig5", "per-process read/metadata/write cost decomposition (full-run equivalent)", func(o Options, nodes int) (Output, error) {
		r, err := o.Fig5(nodes)
		if err != nil {
			return Output{}, err
		}
		var b strings.Builder
		fmt.Fprintf(&b, "# Fig 5: avg I/O cost per process on Dardel, %d nodes (full-run equivalent)\n", nodes)
		fmt.Fprintf(&b, "%-24s  %-12s %-12s %-12s\n", "configuration", "read", "metadata", "write")
		fmt.Fprintf(&b, "%-24s  %-12s %-12s %-12s\n", Original.Label,
			units.Seconds(r.Original.ReadSec), units.Seconds(r.Original.MetaSec), units.Seconds(r.Original.WriteSec))
		fmt.Fprintf(&b, "%-24s  %-12s %-12s %-12s\n", BP4.Label,
			units.Seconds(r.OpenPMD.ReadSec), units.Seconds(r.OpenPMD.MetaSec), units.Seconds(r.OpenPMD.WriteSec))
		if r.Original.MetaSec > 0 {
			fmt.Fprintf(&b, "metadata reduction: %.2f%%\n", 100*(1-r.OpenPMD.MetaSec/r.Original.MetaSec))
		}
		if r.Original.WriteSec > 0 {
			fmt.Fprintf(&b, "write reduction:    %.2f%%\n\n", 100*(1-r.OpenPMD.WriteSec/r.Original.WriteSec))
		}
		return Output{Text: b.String()}, nil
	}},
	{"fig6", "BP4 aggregator-count sweep at fixed node allocation", func(o Options, nodes int) (Output, error) {
		s, err := o.Fig6(nodes, nil)
		if err != nil {
			return Output{}, err
		}
		return Output{Text: RenderSeries(
			fmt.Sprintf("Fig 6: aggregator sweep on Dardel, %d nodes (GiB/s)", nodes), "aggregators", []Series{s}) + "\n"}, nil
	}},
	scalingArtifact("fig7", "openPMD+BP4+Blosc with one aggregator vs original I/O",
		"Fig 7: Blosc + 1 AGGR vs original on Dardel (GiB/s)", Options.Fig7),
	{"fig8", "BP4 memcpy elimination under compression (profiling.json)", func(o Options, nodes int) (Output, error) {
		r, err := o.Fig8(nodes)
		if err != nil {
			return Output{}, err
		}
		var b strings.Builder
		fmt.Fprintf(&b, "# Fig 8: BP4 memcpy time from profiling.json, %d nodes\n", nodes)
		fmt.Fprintf(&b, "without compression: %.1f µs total memcpy\n", r.MemcpyMicrosNoComp)
		fmt.Fprintf(&b, "with Blosc:          %.1f µs total memcpy (compress: %.1f µs)\n\n",
			r.MemcpyMicrosBlosc, r.CompressMicrosBlosc)
		return Output{Text: b.String()}, nil
	}},
	{"fig9", "Lustre stripe size × OST count write-time grid", func(o Options, nodes int) (Output, error) {
		t, _, err := o.Fig9(nodes, nil, nil)
		if err != nil {
			return Output{}, err
		}
		return Output{Text: t.Render() + "\n"}, nil
	}},
	gridArtifact("figburst", "direct vs burst-buffer-staged openPMD+BP4 with drain accounting",
		Options.FigBurstSweep, renderBurst),
	gridArtifact("figcontention", "two-job contention under each drain-QoS policy (slowdown, Jain)",
		Options.FigContentionSweep, renderContention),
	gridArtifact("figworkload", "workload × drain-QoS × aggregator-count composition grid (chunked writer vs BIT1 rank schedule)",
		Options.FigWorkloadSweep, renderWorkload),
	{"figfault", "node-loss grid: kill-time × drain-policy × QoS, plus survivability", func(o Options, _ int) (Output, error) {
		st, err := o.FigFaultSweep()
		if err != nil {
			return Output{}, err
		}
		t, cells := faultTable(st)
		m := FaultMachine()
		var b strings.Builder
		fmt.Fprintf(&b, "# %s node MTBF %.0fk h: a 24 h full-machine run expects %.2f node failures\n",
			m.Name, m.MTBFNodeHours/1e3, fault.ExpectedFailures(m.MTBFNodeHours, m.MaxNodes, 24*3600))
		b.WriteString(t.Render() + "\n")
		// Sanity line the grid exists to show: deferring write-back
		// raises what a node loss costs.
		lost := map[string]int{}
		for _, c := range cells {
			if c.QoS == "qos-off" {
				lost[c.Policy.String()] += c.Report.LostEpochsPFS
			}
		}
		fmt.Fprintf(&b, "lost epochs on node loss (qos-off, summed over kill times): immediate %d < epoch-end %d <= watermark %d\n",
			lost["immediate"], lost["epoch-end"], lost["watermark"])
		sc, err := o.FigFaultSurvival()
		if err != nil {
			return Output{}, err
		}
		nl, nk := sc.NodeLoss.Fault, sc.NVMeKeep.Fault
		fmt.Fprintf(&b, "survivability (watermark drain, kill e%d+%.0f%%): node loss restarts from epoch %d (%s destroyed); "+
			"NVMe-surviving state restarts from epoch %d (%s redrained)\n\n",
			nl.Spec.KillEpoch, 100*nl.Spec.KillFrac, nl.RestartEpoch, units.Bytes(nl.LostBytes),
			nk.RestartEpoch, units.Bytes(nk.RedrainBytes))
		return Output{Text: b.String(), Table: &st}, nil
	}},
	gridArtifact("figsizing", "burst capacity × drain-rate sizing grid per machine (the staging knee)",
		Options.FigSizing, renderSizing),
	gridArtifact("figinterval", "expected checkpoint waste vs epoch length, Young/Daly optima on measured costs",
		Options.FigIntervalSweep, renderInterval),
	gridArtifact("campfail", "stochastic MTBF failure campaign: expected lost node-hours per policy/QoS",
		Options.CampaignFailure, renderCampaign),
	gridArtifact("campopt", "failure campaign at the ckptopt-recommended interval vs fixed baselines: validate the recommendation",
		Options.CampaignOptimum, renderOptimal),
	gridArtifact("figsched", "batch-scheduling campaign: FCFS vs EASY backfill over multi-tenant job streams",
		Options.FigSched, renderSched),
	gridArtifact("figfair", "fairness-under-failures campaign: fair-share vs FCFS/EASY with preemption and node failures",
		Options.FigFair, renderFair),
	{"tab1", "IOR command lines of Table I", func(Options, int) (Output, error) {
		return Output{Text: Tab1().Render() + "\n"}, nil
	}},
	{"tab2", "written file counts and sizes per configuration (Table II)", func(o Options, _ int) (Output, error) {
		t, err := o.Tab2()
		if err != nil {
			return Output{}, err
		}
		return Output{Text: t.Render() + "\n"}, nil
	}},
	{"lst1", "lfs getstripe on a simulated striped file (Listing 1)", func(Options, int) (Output, error) {
		out, err := Listing1()
		if err != nil {
			return Output{}, err
		}
		return Output{Text: "# Listing 1: lfs getstripe on simulated Dardel\n" +
			"$ lfs getstripe io_openPMD/dat_file.bp4/data.0\n" + out + "\n"}, nil
	}},
}
