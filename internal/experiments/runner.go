// Package experiments regenerates every table and figure of the paper's
// evaluation (§IV) on the simulated substrate: one runner per artifact,
// shared machinery for launching BIT1 under Darshan on a simulated
// machine, and plain-text series/table output.
//
// Runs use full rank counts (128 ranks/node up to 25 600) and full payload
// sizes, but a reduced number of output epochs; quantities that accumulate
// over the whole 200 K-step production run (per-process times, metadata
// log sizes) are extrapolated by the epoch ratio and labelled as
// "full-run equivalent" — see DESIGN.md §6.
package experiments

import (
	"fmt"
	"strings"
	"sync"

	"picmcio/internal/adios2"
	"picmcio/internal/bit1"
	"picmcio/internal/burst"
	"picmcio/internal/cluster"
	"picmcio/internal/compress"
	"picmcio/internal/darshan"
	"picmcio/internal/mpisim"
	"picmcio/internal/pfs"
	"picmcio/internal/posix"
	"picmcio/internal/sim"
	"picmcio/internal/sweep"
	"picmcio/internal/units"
	"picmcio/internal/workload"
)

// Options scales the experiments.
type Options struct {
	Seed         uint64
	RanksPerNode int   // default 128, as on the paper's machines
	NodeCounts   []int // default: the Table II node set

	DiagEpochs       int // simulated diagnostic outputs (paper: 200)
	CheckpointEpochs int // simulated checkpoints (paper: 20)

	// ComputePerStep charges virtual compute time per PIC step between
	// output epochs (0 for pure-I/O experiments). The burst-buffer
	// figure sets it so asynchronous drain overlaps compute.
	ComputePerStep sim.Duration

	// BurstPolicy overrides the machine preset's drain policy for the
	// burst-buffer figure ("immediate", "watermark", "epoch-end";
	// "" keeps the preset).
	BurstPolicy string

	FullDiagEpochs       int // production-run diagnostic outputs
	FullCheckpointEpochs int // production-run checkpoints

	// Parallel bounds the sweep engine's trial worker pool (<= 1:
	// serial). Every artifact is bit-identical at any width: trials are
	// pure functions of their sweep.Config, and per-trial seeds derive
	// from Seed × trial index rather than evaluation order.
	Parallel int

	// CampaignRuns is the stochastic failure campaign's Monte-Carlo draw
	// count per grid cell (0: auto-size so the cell expects
	// campaignTargetFailures failures at the preset MTBF).
	CampaignRuns int
	// CampaignEpochHours is how many production hours one simulated
	// epoch stands for in the campaign's failure-arrival clock
	// (default 6: a checkpoint interval of a quarter day).
	CampaignEpochHours float64
	// CampaignMTBFHours overrides the machine preset's per-node MTBF in
	// the campaign (0: keep the preset). Accelerated MTBFs make tiny
	// smoke campaigns actually observe failures.
	CampaignMTBFHours float64
	// CampaignOptimal switches the campfail artifact to its validation
	// mode: run the stochastic campaign at the ckptopt-recommended
	// checkpoint interval and at fixed baselines bracketing it, and
	// report whether the recommendation's empirical waste wins
	// (CampaignOptimum).
	CampaignOptimal bool

	// SchedJobs is the expected job count per figsched campaign cell
	// (default 240: comfortably past the 200-job bar with Poisson
	// arrival-count jitter, still sub-second to schedule).
	SchedJobs int
}

// WithDefaults fills unset fields with the paper-faithful defaults.
func (o Options) WithDefaults() Options {
	if o.RanksPerNode == 0 {
		o.RanksPerNode = 128
	}
	if len(o.NodeCounts) == 0 {
		o.NodeCounts = []int{1, 2, 5, 10, 20, 30, 40, 50, 100, 200}
	}
	if o.DiagEpochs == 0 {
		o.DiagEpochs = 5
	}
	if o.CheckpointEpochs == 0 {
		o.CheckpointEpochs = 1
	}
	if o.FullDiagEpochs == 0 {
		o.FullDiagEpochs = 200
	}
	if o.FullCheckpointEpochs == 0 {
		o.FullCheckpointEpochs = 20
	}
	if o.CampaignEpochHours == 0 {
		o.CampaignEpochHours = 6
	}
	if o.SchedJobs == 0 {
		o.SchedJobs = 240
	}
	return o
}

// sweepOptions builds the engine options every artifact sweep shares.
func (o Options) sweepOptions(title string) sweep.Options {
	return sweep.Options{Title: title, Seed: o.Seed, Parallel: o.Parallel}
}

// EpochFactor is the full-run / simulated-run extrapolation ratio.
func (o Options) EpochFactor() float64 {
	return float64(o.FullDiagEpochs) / float64(o.DiagEpochs)
}

// deck builds the scaled input deck for the options.
func (o Options) deck() bit1.InputDeck {
	d := bit1.DefaultDeck()
	d.MVStep = 100
	d.MVFlag = 1
	d.LastStep = o.DiagEpochs * 100
	d.DMPStep = o.DiagEpochs * 100 / o.CheckpointEpochs
	return d
}

// FileStats summarizes the files a run left on the file system, in the
// shape of Table II.
type FileStats struct {
	Count      int
	TotalBytes int64
	AvgBytes   int64
	MaxBytes   int64
}

// RunResult is one (machine, nodes, config) measurement.
type RunResult struct {
	Machine string
	Nodes   int
	Ranks   int
	Label   string

	ThroughputGiBs float64 // aggregate write throughput (Darshan, elapsed window)
	Elapsed        sim.Time
	Log            *darshan.Log
	Files          FileStats

	// Full-run-equivalent per-process times (Fig. 5).
	ReadSec, MetaSec, WriteSec float64

	// BP4 profiling.json totals, if the run produced one.
	Profile *adios2.Timers

	// Burst-buffer tier accounting, when the machine has one.
	Burst *burst.Stats
	// AppEndSec is when the last rank finished its program; DrainTailSec
	// is the wall-clock write-back time left after that. DrainOverlapSec
	// is the drain busy time accrued while ranks were still running —
	// the portion of write-back genuinely overlapped with the app.
	AppEndSec, DrainTailSec, DrainOverlapSec float64
}

// RunBIT1 executes one full BIT1 run on machine m with the given node
// count and I/O configuration, returning the measurements.
func (o Options) RunBIT1(m cluster.Machine, nodes int, mode bit1.IOMode, toml string) (*RunResult, error) {
	o = o.WithDefaults()
	k := m.NewKernel(nodes)
	sys, err := m.Build(k, nodes, o.Seed)
	if err != nil {
		return nil, err
	}
	ranks := nodes * o.RanksPerNode
	w := mpisim.NewWorld(k, ranks, mpisim.AlphaBeta(m.NetAlpha, m.NetBeta))
	col := darshan.NewCollector()
	cfg := bit1.Config{
		Deck:           o.deck(),
		Sizing:         workload.Default(),
		OutDir:         "/scratch/bit1",
		Mode:           mode,
		OpenPMDOptions: toml,
		ComputePerStep: o.ComputePerStep,
		StdioOverhead:  sim.Duration(m.StdioWriteOverhead),
	}
	var mu sync.Mutex
	var firstErr error
	var appEnd sim.Time
	var drainBusyAtAppEnd float64
	w.Run(func(r *mpisim.Rank) {
		node := r.ID / o.RanksPerNode
		if node >= len(sys.Clients) {
			node = len(sys.Clients) - 1
		}
		env := &posix.Env{FS: sys.FS, Stage: sys.StagedFS(), Client: sys.Clients[node], Rank: r.ID, Monitor: col}
		err := bit1.Run(cfg, bit1.RankEnv{Rank: r, Env: env})
		mu.Lock()
		if err != nil && firstErr == nil {
			firstErr = err
		}
		if now := r.Proc.Now(); now > appEnd {
			appEnd = now
			if sys.Burst != nil {
				drainBusyAtAppEnd = sys.Burst.Stats().DrainBusySec
			}
		}
		mu.Unlock()
	})
	if firstErr != nil {
		return nil, firstErr
	}
	res := &RunResult{
		Machine:   m.Name,
		Nodes:     nodes,
		Ranks:     ranks,
		Elapsed:   k.Now(),
		AppEndSec: float64(appEnd),
	}
	if sys.Burst != nil {
		st := sys.Burst.Stats()
		res.Burst = &st
		// k.Run returns only after on-demand drain workers exit, so the
		// drain tail is whatever virtual time passed after the last rank.
		res.DrainTailSec = float64(k.Now() - appEnd)
		res.DrainOverlapSec = drainBusyAtAppEnd
	}
	res.Log = col.Snapshot(darshan.JobMeta{
		Executable: "bit1." + mode.String(), NProcs: ranks,
		Machine: m.Name, RunSeconds: float64(k.Now()),
	})
	// Throughput is measured on the simulation's output files only: the
	// staged input deck is written once at t=0 and read by every rank,
	// and would otherwise stretch the Darshan write window across the
	// startup phase.
	once := func(rec *darshan.Record) bool { return strings.HasSuffix(rec.Path, ".inp") }
	res.ThroughputGiBs = units.GiBps(res.Log.Filter(func(rec *darshan.Record) bool { return !once(rec) }).WriteThroughputByElapsed())
	// Per-epoch I/O extrapolates to the full production run; one-time
	// I/O (the input deck every rank reads at startup) does not.
	r1, m1, w1 := res.Log.Filter(once).PerProcessTimes()
	rN, mN, wN := res.Log.Filter(func(rec *darshan.Record) bool { return !once(rec) }).PerProcessTimes()
	f := o.EpochFactor()
	res.ReadSec = r1 + rN*f
	res.MetaSec = m1 + mN*f
	res.WriteSec = w1 + wN*f
	res.Files = o.fileStats(sys, cfg.OutDir)
	res.Profile = profileOf(sys, "/scratch/bit1/bit1_file.bp4/profiling.json")
	return res, nil
}

// fileStats walks the output tree applying full-run extrapolation to the
// append-mode files (BP metadata, shared histories), since those grow
// linearly with epochs while snapshot files are overwritten in place.
func (o Options) fileStats(sys *cluster.System, dir string) FileStats {
	var fs FileStats
	ns := namespaceOf(sys)
	if ns == nil {
		return fs
	}
	factor := o.EpochFactor()
	ns.WalkFiles(dir, func(path string, n *pfs.Node) {
		size := n.Size
		if isAppendMode(path) {
			size = int64(float64(size) * factor)
		}
		fs.Count++
		fs.TotalBytes += size
		if size > fs.MaxBytes {
			fs.MaxBytes = size
		}
	})
	if fs.Count > 0 {
		fs.AvgBytes = fs.TotalBytes / int64(fs.Count)
	}
	return fs
}

// isAppendMode reports whether a file grows with epoch count.
func isAppendMode(path string) bool {
	return strings.HasSuffix(path, "md.0") || strings.HasSuffix(path, "md.idx") ||
		strings.Contains(path, "_global_")
}

// namespaceOf exposes the backend's file tree regardless of which file
// system the machine attaches — Lustre, NFS and CephFS all implement
// pfs.Namespacer, so FileStats and profile extraction work on every
// backend instead of silently returning zero off-Lustre.
func namespaceOf(sys *cluster.System) *pfs.Namespace {
	if n, ok := sys.FS.(pfs.Namespacer); ok {
		return n.Namespace()
	}
	return nil
}

// profileOf extracts BP4 profiling totals if present.
func profileOf(sys *cluster.System, path string) *adios2.Timers {
	ns := namespaceOf(sys)
	if ns == nil {
		return nil
	}
	n, err := ns.Lookup(path)
	if err != nil || n.Content == nil {
		return nil
	}
	_, _, total, _, err := adios2.ParseProfile(n.Content)
	if err != nil {
		return nil
	}
	return &total
}

// aggrTOML renders the adaptor TOML for a configuration.
func aggrTOML(numAgg int, codec string, ratio float64) string {
	var b strings.Builder
	b.WriteString("[adios2.engine]\ntype = \"bp4\"\n\n[adios2.engine.parameters]\n")
	if numAgg > 0 {
		fmt.Fprintf(&b, "NumAggregators = \"%d\"\n", numAgg)
	}
	if codec != "" && codec != "none" {
		fmt.Fprintf(&b, "SimCompressionRatio = \"%.4f\"\n", ratio)
		fmt.Fprintf(&b, "\n[adios2.dataset.operators]\ntype = \"%s\"\n", codec)
	}
	return b.String()
}

var ratioCache sync.Map

// MeasuredRatio compresses a real sampled PIC payload with the named
// codec and returns the compression ratio that volume-mode runs assume.
// An unknown codec is an error — silently assuming ratio 1 would make a
// typo'd configuration masquerade as "compression doesn't help".
func MeasuredRatio(codec string) (float64, error) {
	if codec == "" || codec == "none" {
		return 1, nil
	}
	if v, ok := ratioCache.Load(codec); ok {
		return v.(float64), nil
	}
	c, err := compress.New(codec, 8)
	if err != nil {
		return 0, err
	}
	payload := workload.Float64sToBytes(workload.SamplePayload(1<<16, 42))
	r := compress.Ratio(c, payload)
	ratioCache.Store(codec, r)
	return r, nil
}
