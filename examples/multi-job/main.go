// Multi-job contention: two jobs co-scheduled on one simulated Dardel —
// a checkpoint-heavy job staging through node-local burst buffers next to
// a neighbour writing directly to the shared Lustre — so the staged job's
// drain traffic and the neighbour's writes fight over the same OSTs and
// backbone. The demo runs the co-schedule twice, with the drain
// scheduler's QoS off and with the checkpoint priority lane on, and
// prints what each job paid for sharing the machine (slowdown vs running
// alone, Jain's fairness index) and when each drain lane became
// PFS-durable: under priority QoS, checkpoint bytes jump the write-back
// backlog ahead of diagnostics.
package main

import (
	"fmt"
	"io"
	"os"

	"picmcio/internal/burst"
	"picmcio/internal/cluster"
	"picmcio/internal/jobs"
	"picmcio/internal/units"
)

// specs is the two-job scenario. The staged job's write-back is
// rate-limited to 1 GB/s, so a backlog builds across epochs — exactly the
// condition where lane priority matters: without it, early diagnostics
// block later checkpoints from becoming restart-safe.
func specs(qos burst.QoS) []jobs.Spec {
	wl := jobs.BulkWriter{
		Epochs:          4,
		CheckpointBytes: 96 * units.MiB,
		DiagBytes:       32 * units.MiB,
		ComputeSec:      0.02,
	}
	return []jobs.Spec{
		{
			Name:  "ckpt-heavy",
			Nodes: 4,
			Burst: burst.Spec{
				CapacityBytes: 2 << 30,
				Rate:          6e9,
				PerOp:         25e-6,
				Policy:        burst.PolicyEpochEnd,
				QoS:           qos,
			},
			Workload:    wl,
			StripeCount: -1,
		},
		{Name: "neighbour", Nodes: 4, Workload: wl, StripeCount: -1},
	}
}

// contend runs the co-schedule of js and prints what each job paid.
func contend(stdout io.Writer, label string, js []jobs.Spec) (*jobs.ContentionResult, error) {
	res, err := jobs.Contention(cluster.Dardel(), js, 1)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", label, err)
	}
	fmt.Fprintf(stdout, "=== %s ===\n", label)
	for i, j := range res.Jobs {
		fmt.Fprintf(stdout, "  %-11s %d nodes  wrote %-8s durable in %-10s slowdown %.3fx vs isolated\n",
			j.Name, j.Nodes, units.Bytes(j.BytesWritten), units.Seconds(j.DurableSec), res.Slowdown[i])
	}
	staged := res.Jobs[0]
	ck := staged.Burst.Class[burst.ClassCheckpoint]
	dg := staged.Burst.Class[burst.ClassDiagnostic]
	fmt.Fprintf(stdout, "  drain lanes: checkpoint %s durable at %s, diagnostics %s at %s\n",
		units.Bytes(ck.DrainedBytes), units.Seconds(float64(ck.LastDrainEnd)),
		units.Bytes(dg.DrainedBytes), units.Seconds(float64(dg.LastDrainEnd)))
	fmt.Fprintf(stdout, "  Jain fairness index over achieved bandwidth: %.4f\n\n", res.Jain)
	return res, nil
}

// rankJob swaps the staged job's flat writer for a BIT1-style rank
// schedule: 4 ranks per node funnel through aggr aggregator groups, so
// only the aggregator nodes physically write — same logical volume per
// node (4×24 MiB checkpoints + 4×8 MiB diagnostics), different traffic
// shape. Every other experiment axis (staging tier, QoS, contention
// accounting) composes with it unchanged.
func rankJob(qos burst.QoS, aggr int) []jobs.Spec {
	s := specs(qos)
	s[0].Workload = jobs.RankWorkload{
		Epochs:                 4,
		RanksPerNode:           4,
		Aggregators:            aggr,
		CheckpointBytesPerRank: 24 * units.MiB,
		DiagBytesPerRank:       8 * units.MiB,
		ComputeSec:             0.02,
	}
	return s
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the example on its arguments and output streams. It returns the
// exit status: 0, 1 on an error, 2 on any argument.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) != 0 {
		fmt.Fprintln(stderr, "usage: multi-job (no arguments)")
		return 2
	}
	if err := compare(stdout); err != nil {
		fmt.Fprintln(stderr, "multi-job:", err)
		return 1
	}
	return 0
}

// compare runs the co-schedule under both QoS settings, then with the
// rank-level workload at two aggregator counts.
func compare(stdout io.Writer) error {
	base := burst.QoS{DrainLimit: 1e9} // backlogged write-back, one FIFO lane
	prio := burst.QoS{DrainLimit: 1e9, PriorityLanes: true}

	off, err := contend(stdout, "QoS off (FIFO write-back)", specs(base))
	if err != nil {
		return err
	}
	on, err := contend(stdout, "checkpoint priority lane", specs(prio))
	if err != nil {
		return err
	}

	offCk := off.Jobs[0].Burst.Class[burst.ClassCheckpoint].LastDrainEnd
	onCk := on.Jobs[0].Burst.Class[burst.ClassCheckpoint].LastDrainEnd
	fmt.Fprintf(stdout, "last checkpoint byte PFS-durable: %s (FIFO) -> %s (priority lane)\n",
		units.Seconds(float64(offCk)), units.Seconds(float64(onCk)))
	if onCk < offCk {
		fmt.Fprintln(stdout, "priority QoS makes checkpoints restart-safe sooner; diagnostics absorb the wait ✔")
	}
	fmt.Fprintln(stdout)

	// The same co-schedule with a rank-level workload under test: the
	// drain rate is per node, so funnelling every group through one
	// aggregator defers PFS durability vs spreading over four writers.
	one, err := contend(stdout, "rank schedule, 1 aggregator group", rankJob(base, 1))
	if err != nil {
		return err
	}
	four, err := contend(stdout, "rank schedule, 4 aggregator groups", rankJob(base, 4))
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "staged job durable: %s (1 aggregator) -> %s (4 aggregators)\n",
		units.Seconds(one.Jobs[0].DurableSec), units.Seconds(four.Jobs[0].DurableSec))
	if four.Jobs[0].DurableSec < one.Jobs[0].DurableSec {
		fmt.Fprintln(stdout, "spreading aggregators across nodes drains in parallel and is durable sooner ✔")
	}
	return nil
}
