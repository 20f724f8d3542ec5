// Package cluster describes the simulated HPC machines used in the paper's
// evaluation — Discoverer, Dardel and Vega — as parameter presets: node
// counts, cores per node, per-node injection bandwidth, collective network
// coefficients, and the attached Lustre file system.
//
// Build instantiates a machine on a simulation kernel, producing the file
// system and one pfs.Client per allocated node. Numerical values are
// calibrated so that the experiment harness reproduces the throughput
// *shapes* (and approximate magnitudes) the paper reports; they are not
// claims about the real hardware.
package cluster

import (
	"fmt"
	"strings"

	"picmcio/internal/burst"
	"picmcio/internal/ckptopt"
	"picmcio/internal/fault"
	"picmcio/internal/lustre"
	"picmcio/internal/mpisim"
	"picmcio/internal/pfs"
	"picmcio/internal/posix"
	"picmcio/internal/sim"
)

// Machine is a cluster preset.
type Machine struct {
	Name     string
	MaxNodes int
	NICRate  float64 // bytes/second injection bandwidth per node

	// Collective network model: time = Alpha*ceil(log2 P) + bytes*Beta.
	NetAlpha float64 // seconds per hop
	NetBeta  float64 // seconds per byte

	// StdioWriteOverhead is the synchronous client-side cost each stdio
	// buffer flush pays in BIT1's original writer (formatting + VFS +
	// sync RPC); bulk POSIX writes (BP4, IOR) do not pay it.
	StdioWriteOverhead float64 // seconds

	Lustre lustre.Params

	// Burst describes an optional node-local burst-buffer tier (NVMe
	// capacity + bandwidth per node). The zero value means the machine
	// has no staging tier; workloads opt in per engine (burst_buffer
	// TOML option), so presets carrying a spec change nothing by default.
	Burst burst.Spec

	// Availability knobs for the fault-injection subsystem
	// (internal/fault). MTBFNodeHours is the per-node mean time between
	// failures — fault.ExpectedFailures turns it into the failure count a
	// run of a given scale should plan for. NVMeSurvival says whether the
	// machine's staged burst-buffer state outlives a node failure
	// (on-board drives die with the node; fabric-attached enclosures do
	// not). NodeRestartSec is the reboot/reschedule delay before a victim
	// node resumes. Like the burst spec, these change nothing by default:
	// only a jobs.Spec carrying a fault.Spec exercises them.
	MTBFNodeHours  float64
	NVMeSurvival   fault.Survivability
	NodeRestartSec float64

	// Sizing declares the machine's buffer-sizing sweep ranges — the
	// capacity × drain-rate grid a FigSizing run explores to locate the
	// knee where staging stops helping. Empty ranges exclude the machine
	// from the sweep (no burst tier, nothing to size).
	Sizing Sizing
}

// NewKernel constructs the kernel for an n-node run of this machine.
// Every scale runs on the same kernel, so nodes is unused; the method
// stays because jobs, sched, experiments and the benchmark harness all
// build their kernels through the machine.
func (m Machine) NewKernel(nodes int) *sim.Kernel {
	return sim.NewKernel()
}

// Sizing is a machine's buffer-sizing sweep declaration, relative rather
// than absolute so one grid serves any workload scale: capacities as
// multiples of one epoch's per-node output, drain rates as fractions of
// the preset drain rate.
type Sizing struct {
	CapacityEpochs []float64 // NVMe capacity / (per-node bytes per epoch)
	DrainScale     []float64 // drain rate / preset burst.Spec.DrainRate
}

// Enabled reports whether the machine declares a sizing sweep.
func (s Sizing) Enabled() bool {
	return len(s.CapacityEpochs) > 0 && len(s.DrainScale) > 0
}

// CheckpointCosts derives the availability-side inputs of the
// checkpoint-interval optimizer from the preset's knobs, for a job of
// the given node count: the job-level MTBF (any of the job's nodes
// failing forces a restart, so the per-node MTBF divides by the node
// count), the NVMe survival probability, and the reboot/reschedule
// delay as the base of both restart paths. The measured fields —
// per-level save costs, drain lag — stay zero here;
// jobs.MeasureCheckpointCosts fills them from probe runs through the
// staging tier rather than hand-fed constants.
func (m Machine) CheckpointCosts(nodes int) ckptopt.Costs {
	if nodes < 1 {
		nodes = 1
	}
	return ckptopt.Costs{
		MTBFSec:            m.MTBFNodeHours * 3600 / float64(nodes),
		SurvivalProb:       m.NVMeSurvival.Prob(),
		BufferedRestartSec: m.NodeRestartSec,
		DurableRestartSec:  m.NodeRestartSec,
	}
}

// Discoverer is the petascale EuroHPC system: 1128 nodes, 2×64-core EPYC,
// Lustre with only 4 OSTs (2.1 PB). The tiny OST count plus a modest MDS
// is what makes its file-per-process throughput decline with scale.
func Discoverer() Machine {
	lp := lustre.DefaultParams()
	lp.NumOSTs = 4
	lp.OSTRate = 1.4e9
	lp.OSTPerOp = 60e-6
	lp.MDSThreads = 8
	lp.MDSCreate = 90e-6
	lp.MDSOpen = 45e-6
	lp.MDSStat = 30e-6
	lp.MDSClose = 25e-6
	lp.RPCLatency = 40e-6
	lp.BackboneRate = 6e9
	return Machine{
		Name:               "Discoverer",
		MaxNodes:           1128,
		NICRate:            10e9,
		StdioWriteOverhead: 500e-6,
		NetAlpha:           2.0e-6,
		NetBeta:            1.0 / 25e9,
		Lustre:             lp,
		// Availability: an older EuroHPC fleet without node-local staging —
		// a failure rolls back to whatever the PFS holds.
		MTBFNodeHours:  300e3,
		NVMeSurvival:   fault.SurviveNone,
		NodeRestartSec: 300,
	}
}

// Dardel is the HPE Cray EX system: 1270 nodes, 2×64-core EPYC Zen2,
// Slingshot network, Lustre with 48 OSTs (12 PB). It is the system every
// tuning experiment of the paper runs on.
func Dardel() Machine {
	lp := lustre.DefaultParams()
	lp.NumOSTs = 48
	lp.OSTRate = 0.65e9
	lp.OSTPerOp = 220e-6
	lp.MDSThreads = 16
	lp.MDSCreate = 70e-6
	lp.MDSOpen = 40e-6
	lp.MDSStat = 30e-6
	lp.MDSClose = 25e-6
	lp.RPCLatency = 40e-6
	lp.BackboneRate = 18.2e9
	return Machine{
		Name:               "Dardel",
		MaxNodes:           1270,
		NICRate:            25e9,
		StdioWriteOverhead: 5e-3,
		NetAlpha:           1.3e-6,
		NetBeta:            1.0 / 50e9,
		Lustre:             lp,
		// Cray EX nodes carry local NVMe usable as a burst buffer:
		// ~6 GB/s absorb, drain capped by the NVMe read side sharing the
		// injection path with foreground traffic.
		Burst: burst.Spec{
			CapacityBytes: 1536 << 30,
			Rate:          6e9,
			PerOp:         25e-6,
			DrainRate:     3e9,
			Policy:        burst.PolicyImmediate,
		},
		// Availability: on-board node NVMe dies with its node, so a node
		// loss destroys staged-only checkpoints; warm spares keep the
		// reschedule delay short.
		MTBFNodeHours:  500e3,
		NVMeSurvival:   fault.SurviveNone,
		NodeRestartSec: 120,
		// Sizing sweep: the on-board NVMe is generous, so the interesting
		// range is undersized capacity and throttled drain — where the
		// staging win collapses.
		Sizing: Sizing{
			CapacityEpochs: []float64{0.5, 1, 2, 4},
			DrainScale:     []float64{0.25, 0.5, 1, 2},
		},
	}
}

// Vega is the petascale EuroHPC system: 960 nodes, Lustre with 80 OSTs
// (1 PB); the machine also mounts a large CephFS, which is not modelled.
// Its Lustre partition is heavily shared, which we model with a large
// jitter fraction — hence the erratic scaling the paper observes.
func Vega() Machine {
	lp := lustre.DefaultParams()
	lp.NumOSTs = 80
	lp.OSTRate = 0.40e9
	lp.OSTPerOp = 260e-6
	lp.MDSThreads = 12
	lp.MDSCreate = 110e-6
	lp.MDSOpen = 60e-6
	lp.MDSStat = 40e-6
	lp.MDSClose = 30e-6
	lp.RPCLatency = 60e-6
	lp.BackboneRate = 11e9
	lp.JitterFrac = 0.75
	return Machine{
		Name:               "Vega",
		MaxNodes:           960,
		NICRate:            12.5e9,
		StdioWriteOverhead: 2.5e-3,
		NetAlpha:           1.6e-6,
		NetBeta:            1.0 / 60e9,
		Lustre:             lp,
		// Vega's heavily shared Lustre makes batched write-back the
		// sensible default: buffer until the high watermark, then burst.
		Burst: burst.Spec{
			CapacityBytes: 1 << 40,
			Rate:          4e9,
			PerOp:         30e-6,
			DrainRate:     2e9,
			Policy:        burst.PolicyWatermark,
			HighWater:     0.6,
			LowWater:      0.2,
		},
		// Availability: Vega's staging sits in fabric-attached enclosures
		// that outlive individual nodes, so restarts resume from buffered
		// state at the price of redraining it.
		MTBFNodeHours:  400e3,
		NVMeSurvival:   fault.SurviveNVMe,
		NodeRestartSec: 180,
		// Sizing sweep: the watermark policy holds more back, so the grid
		// reaches deeper capacities before the drain-rate axis bites.
		Sizing: Sizing{
			CapacityEpochs: []float64{0.5, 1, 2, 4},
			DrainScale:     []float64{0.5, 1, 2},
		},
	}
}

// Machines returns the three evaluation systems in paper order.
func Machines() []Machine { return []Machine{Discoverer(), Dardel(), Vega()} }

// ByName finds an evaluation system by its name, in any letter case.
func ByName(name string) (Machine, error) {
	for _, m := range Machines() {
		if strings.EqualFold(m.Name, name) {
			return m, nil
		}
	}
	return Machine{}, fmt.Errorf("cluster: unknown machine %q", name)
}

// System is an instantiated machine: a file system plus per-node clients.
type System struct {
	Machine Machine
	K       *sim.Kernel
	FS      pfs.FileSystem
	Lustre  *lustre.FS  // FS, typed for SetStripe, GetStripe and Namespace
	Burst   *burst.Tier // non-nil when the machine has a burst-buffer spec
	Nodes   int
	Clients []*pfs.Client // one per node, shared by the node's ranks

	allocated int // nodes leased via Allocate so far, from index 0 up
}

// Allocation is a set of a system's nodes leased to one job: the
// node-level scheduling unit of a multi-job co-schedule. Jobs never share
// nodes, but every allocation shares the machine's file system (and
// backbone), which is where cross-job contention lives.
type Allocation struct {
	Nodes   int
	Clients []*pfs.Client // the leased nodes' clients, a window of System.Clients
}

// Allocate leases the next n nodes to a job. Leases are contiguous and
// never overlap, and nothing returns them: Allocate fails once the
// machine is full.
func (s *System) Allocate(n int) (*Allocation, error) {
	if n < 1 {
		return nil, fmt.Errorf("cluster: allocation needs at least one node")
	}
	if free := s.Nodes - s.allocated; n > free {
		return nil, fmt.Errorf("cluster: %s build has %d free node(s), asked for %d",
			s.Machine.Name, free, n)
	}
	a := &Allocation{Nodes: n, Clients: s.Clients[s.allocated : s.allocated+n : s.allocated+n]}
	s.allocated += n
	return a, nil
}

// StagedFS returns the burst-buffer staging file system, or nil when the
// machine has none. Attach it to posix.Env.Stage so engines can opt in.
func (s *System) StagedFS() pfs.FileSystem {
	if s.Burst == nil {
		return nil
	}
	return s.Burst.FS()
}

// Build instantiates the machine with the given node allocation on kernel
// k. Seed perturbs the storage system's stochastic elements.
func (m Machine) Build(k *sim.Kernel, nodes int, seed uint64) (*System, error) {
	if nodes < 1 {
		return nil, fmt.Errorf("cluster: need at least one node")
	}
	if nodes > m.MaxNodes {
		return nil, fmt.Errorf("cluster: %s has only %d nodes (asked for %d)", m.Name, m.MaxNodes, nodes)
	}
	s := &System{Machine: m, K: k, Nodes: nodes}
	lp := m.Lustre
	lp.Seed = seed
	s.Lustre = lustre.New(k, lp)
	s.FS = s.Lustre
	if m.Burst.Enabled() {
		s.Burst = burst.NewTier(k, m.Burst, s.FS)
	}
	s.Clients = make([]*pfs.Client, nodes)
	for i := range s.Clients {
		s.Clients[i] = &pfs.Client{Node: i, NIC: sim.NewServer(k, m.NICRate, 0)}
	}
	return s, nil
}

// Launch starts the MPI job the paper's runs are: ranksPerNode ranks on
// every allocated node (`srun --ntasks-per-node`).
func (s *System) Launch(ranksPerNode int, mon posix.Monitor) (*mpisim.World, func(*mpisim.Rank) *posix.Env, error) {
	if ranksPerNode < 1 {
		return nil, nil, fmt.Errorf("cluster: need at least one rank per node (got %d)", ranksPerNode)
	}
	return s.LaunchN(s.Nodes*ranksPerNode, mon)
}

// LaunchN is the one place an MPI job is put on a system (`srun -n
// tasks`): it creates the world on the system's kernel with the machine's
// α-β collective cost model, lays the ranks out block-wise —
// ceil(tasks/nodes) to a node, so fewer tasks than nodes leaves the tail
// nodes idle and no rank maps past the last node — and returns, with the
// world, the function that builds each rank's POSIX environment: the
// shared file system and staging tier, the rank's node client, and mon
// (nil: unmonitored) as its Darshan hook.
func (s *System) LaunchN(tasks int, mon posix.Monitor) (*mpisim.World, func(*mpisim.Rank) *posix.Env, error) {
	if tasks < 1 {
		return nil, nil, fmt.Errorf("cluster: need at least one rank (got %d)", tasks)
	}
	m, perNode, stage := s.Machine, (tasks+s.Nodes-1)/s.Nodes, s.StagedFS()
	w := mpisim.NewWorld(s.K, tasks, mpisim.AlphaBeta(m.NetAlpha, m.NetBeta))
	envs := make([]posix.Env, tasks) // one block a job, filled in as each rank asks
	return w, func(r *mpisim.Rank) *posix.Env {
		e := &envs[r.ID]
		*e = posix.Env{FS: s.FS, Stage: stage, Client: s.Clients[r.ID/perNode], Rank: r.ID, Monitor: mon}
		return e
	}, nil
}
