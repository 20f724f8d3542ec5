// RankWorkload runs an mpisim/BIT1-style rank schedule inside a
// co-scheduled job: every node hosts RanksPerNode ranks whose epoch
// output funnels through an intra-node fan-in to the node-leader rank,
// the node leaders gatherv across nodes into Aggregators writer groups,
// and each group's aggregator node writes the group's combined
// checkpoint (.dmp) and diagnostic (.dat) files — so the drain lanes,
// QoS policies, fault ledger and scheduler pricing all see the traffic
// shape aggregator placement actually produces, instead of the uniform
// per-node pattern the flat writers emit.
package jobs

import (
	"fmt"

	"picmcio/internal/mpisim"
	"picmcio/internal/posix"
	"picmcio/internal/sim"
)

// RankWorkload is a coordinated (lockstep) Workload: the job's per-node
// writer processes attach to a private mpisim world, so collectives
// synchronize the nodes exactly as MPI would. Faults against it must be
// WholeJob, and a restart binds a fresh world.
type RankWorkload struct {
	Epochs       int
	RanksPerNode int // ranks each node hosts (>= 1)
	// Aggregators is the number of writer groups the node leaders gather
	// into (<= nodes; 0 = 1). Groups are contiguous node ranges and may
	// be uneven when Aggregators does not divide the node count; the
	// lowest node of each group is its aggregator (writer).
	Aggregators int

	CheckpointBytesPerRank int64 // checkpoint bytes per rank per epoch
	DiagBytesPerRank       int64 // diagnostic bytes per rank per epoch
	ComputeSec             sim.Duration
	// ChunkBytes chunks the aggregated file writes like an ADIOS2
	// aggregator's flush loop (<= 0: one call per file).
	ChunkBytes int64
}

// The alpha-beta network model of the fan-in and gather collectives: 1 µs
// latency, 10 GB/s.
const (
	rankNetAlpha = 1e-6
	rankNetBeta  = 1.0 / 10e9
)

// aggr is the effective writer-group count.
func (w RankWorkload) aggr() int {
	if w.Aggregators < 1 {
		return 1
	}
	return w.Aggregators
}

// perNodeBytes is one node's logical output per epoch.
func (w RankWorkload) perNodeBytes() int64 {
	return int64(w.RanksPerNode) * (w.CheckpointBytesPerRank + w.DiagBytesPerRank)
}

// Shape implements Workload.
func (w RankWorkload) Shape() Shape {
	return Shape{
		Epochs:       w.Epochs,
		BytesPerNode: w.perNodeBytes(),
		ComputeSec:   w.ComputeSec,
		Coordinated:  true,
	}
}

// Validate implements Workload.
func (w RankWorkload) Validate(nodes int) error {
	if w.RanksPerNode < 1 {
		return fmt.Errorf("rank workload needs at least one rank per node, got %d", w.RanksPerNode)
	}
	if w.aggr() > nodes {
		return fmt.Errorf("rank workload has %d aggregator groups but only %d node(s)", w.aggr(), nodes)
	}
	if w.CheckpointBytesPerRank < 0 || w.DiagBytesPerRank < 0 {
		return fmt.Errorf("rank workload has negative per-rank bytes")
	}
	return nil
}

// Bind implements Workload: a fresh mpisim world per job incarnation,
// so a whole-job restart re-enters collectives from a clean slate.
func (w RankWorkload) Bind(b Binding) EpochWriter {
	cost := mpisim.AlphaBeta(rankNetAlpha, rankNetBeta)
	return &rankWriter{
		wl:     w,
		dir:    b.Dir,
		nodes:  b.Nodes,
		cost:   cost,
		world:  mpisim.NewWorld(b.K, b.Nodes, cost),
		ranks:  make([]*mpisim.Rank, b.Nodes),
		groups: make([]*mpisim.Comm, b.Nodes),
	}
}

// rankWriter is one incarnation's bound epoch body. The per-node writer
// process stands in for the node's leader rank in the mpisim world; the
// node's other ranks contribute through the fan-in cost, keeping event
// counts proportional to nodes rather than ranks.
type rankWriter struct {
	wl    RankWorkload
	dir   string
	nodes int
	cost  mpisim.CostModel
	world *mpisim.World

	ranks  []*mpisim.Rank // lazily attached node-leader ranks
	groups []*mpisim.Comm // per node: its writer-group communicator
}

// group maps a node to its contiguous writer group.
func (rw *rankWriter) group(node int) int {
	return node * rw.wl.aggr() / rw.nodes
}

// WriteEpoch implements EpochWriter. Per epoch and node: intra-node
// fan-in to the leader rank, a gatherv of checkpoint then diagnostic
// bytes onto the group's aggregator, and — on the aggregator only — the
// group's combined .dmp/.dat files through env. Non-aggregator nodes
// return after the gathers and overlap their compute with the
// aggregator's writes, exactly the skew ADIOS2 aggregation produces.
func (rw *rankWriter) WriteEpoch(p *sim.Proc, env *posix.Env, node, epoch int) error {
	r := rw.ranks[node]
	if r == nil {
		// First epoch of this incarnation: attach the writer process as
		// the node's world rank and split off the writer-group
		// communicator (a collective, so it doubles as the startup
		// barrier).
		r = rw.world.Attach(node, p)
		rw.ranks[node] = r
		rw.groups[node] = r.Comm.Split(rw.group(node), node)
	}
	gc := rw.groups[node]
	ck := rw.wl.CheckpointBytesPerRank * int64(rw.wl.RanksPerNode)
	dg := rw.wl.DiagBytesPerRank * int64(rw.wl.RanksPerNode)
	if rw.wl.RanksPerNode > 1 {
		// Intra-node fan-in: the node's ranks funnel their buffers to the
		// leader before it enters the cross-node gather.
		p.Sleep(rw.cost(rw.wl.RanksPerNode, ck+dg))
	}
	// dg is the same on every node, so either all gather it or none do.
	var chunks []mpisim.GatherChunk
	if dg > 0 {
		chunks = gc.GathervPair(ck, nil, dg, nil, 0)
	} else {
		chunks = gc.GathervBytes(ck, nil, 0)
	}
	if gc.Rank() != 0 {
		return nil
	}
	var ckTotal, dgTotal int64
	for _, c := range chunks[:gc.Size()] {
		ckTotal += c.N
	}
	for _, c := range chunks[gc.Size():] {
		dgTotal += c.N
	}
	g := rw.group(node)
	if ckTotal > 0 {
		path := fmt.Sprintf("%s/ckpt_agg%03d_e%03d.dmp", rw.dir, g, epoch)
		if err := writeFile(p, env, path, ckTotal, rw.wl.ChunkBytes); err != nil {
			return err
		}
	}
	if dgTotal > 0 {
		path := fmt.Sprintf("%s/diag_agg%03d_e%03d.dat", rw.dir, g, epoch)
		if err := writeFile(p, env, path, dgTotal, rw.wl.ChunkBytes); err != nil {
			return err
		}
	}
	return nil
}

// StagedBytes implements EpochWriter: a group's aggregator (its lowest
// node) writes the whole group's epoch bytes, every other node none.
func (rw *rankWriter) StagedBytes(node int) int64 {
	g := rw.group(node)
	if node > 0 && rw.group(node-1) == g {
		return 0
	}
	n := int64(0)
	for m := node; m < rw.nodes && rw.group(m) == g; m++ {
		n++
	}
	return n * rw.wl.perNodeBytes()
}
