// Package experiments regenerates every table and figure of the paper's
// evaluation (§IV) on the simulated substrate: one runner per artifact,
// shared machinery for launching BIT1 under Darshan on a simulated
// machine, and plain-text series/table output.
//
// Runs use full rank counts (128 ranks/node up to 25 600) and full payload
// sizes, but a reduced number of output epochs; quantities that accumulate
// over the whole 200 K-step production run (per-process times, metadata
// log sizes) are extrapolated by the epoch ratio and labelled as
// "full-run equivalent" — see DESIGN.md §14.
package experiments

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync"

	"picmcio/internal/adios2"
	"picmcio/internal/bit1"
	"picmcio/internal/burst"
	"picmcio/internal/cluster"
	"picmcio/internal/compress"
	"picmcio/internal/darshan"
	"picmcio/internal/ior"
	"picmcio/internal/mpisim"
	"picmcio/internal/pfs"
	"picmcio/internal/sim"
	"picmcio/internal/sweep"
	"picmcio/internal/units"
	"picmcio/internal/workload"
)

// The run lengths no artifact varies.
const (
	// fullDiagEpochs is the production run's diagnostic output count,
	// the numerator of EpochFactor.
	fullDiagEpochs = 200
	// checkpointEpochs is the simulated checkpoint count (paper: 20).
	checkpointEpochs = 1
	// campaignEpochHours is how many production hours one simulated
	// epoch stands for in the campaigns' failure-arrival and pricing
	// clocks: a checkpoint interval of a quarter day.
	campaignEpochHours float64 = 6
)

// Options scales the experiments.
type Options struct {
	Seed         uint64
	RanksPerNode int   // default 128, as on the paper's machines
	NodeCounts   []int // default: the Table II node set

	DiagEpochs int // simulated diagnostic outputs (paper: 200)

	// computePerStep charges virtual compute time per PIC step between
	// output epochs (0 for pure-I/O experiments). The burst-buffer
	// figure sets it so asynchronous drain overlaps compute.
	computePerStep sim.Duration

	// Parallel bounds the sweep engine's trial worker pool (<= 1:
	// serial). Every artifact is bit-identical at any width: trials are
	// pure functions of their sweep.Config, and per-trial seeds derive
	// from Seed × trial index rather than evaluation order.
	Parallel int

	// CampaignRuns is the stochastic failure campaign's Monte-Carlo draw
	// count per grid cell (0: auto-size so the cell expects
	// campaignTargetFailures failures at the preset MTBF).
	CampaignRuns int
	// CampaignMTBFHours overrides the machine preset's per-node MTBF in
	// campfail, campopt and figinterval (0: keep the preset; see
	// campaignMachine). Accelerated MTBFs make tiny smoke campaigns
	// actually observe failures.
	CampaignMTBFHours float64

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
	if o.SchedJobs == 0 {
		o.SchedJobs = 240
	}
	return o
}

// sweepOptions builds the engine options every artifact sweep shares.
func (o Options) sweepOptions(title string) sweep.Options {
	return sweep.Options{Title: title, Seed: o.Seed, Parallel: o.Parallel}
}

// campaignMachine is machine m as the failure campaigns and the
// interval plans see it: with CampaignMTBFHours as its per-node MTBF
// when that is set.
func (o Options) campaignMachine(m cluster.Machine) cluster.Machine {
	if o.CampaignMTBFHours > 0 {
		m.MTBFNodeHours = o.CampaignMTBFHours
	}
	return m
}

// EpochFactor is the full-run / simulated-run extrapolation ratio.
func (o Options) EpochFactor() float64 {
	return fullDiagEpochs / float64(o.DiagEpochs)
}

// Deck builds the input deck scaled to the options' DiagEpochs: one
// diagnostic output every 100 steps, one checkpoint at the end.
func (o Options) Deck() bit1.InputDeck {
	d := bit1.DefaultDeck()
	d.MVStep = 100
	d.MVFlag = 1
	d.LastStep = o.DiagEpochs * 100
	d.DMPStep = o.DiagEpochs * 100 / checkpointEpochs
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

// RunResult is what one Run measured.
type RunResult struct {
	ThroughputGiBs float64            // aggregate write throughput (Darshan, elapsed window)
	Darshan        *darshan.Collector // the run's Darshan records, read in place
	Files          FileStats

	// Full-run-equivalent per-process times (Fig. 5).
	ReadSec, MetaSec, WriteSec float64

	// BP4 profiling.json totals, if the run produced one.
	Profile *adios2.Timers

	// Burst-buffer tier accounting, when the machine has one.
	Burst *burst.Stats
	// DrainTailSec is the wall-clock write-back time left after the last
	// rank finished its program. DrainOverlapSec is the drain busy time
	// accrued while ranks were still running — the portion of write-back
	// genuinely overlapped with the app.
	DrainTailSec, DrainOverlapSec float64
	// ElapsedSec is the virtual time at which the kernel drained: the
	// job's run time, drain tail included.
	ElapsedSec float64
}

// Config is one I/O configuration a run is launched in: the label the
// paper gives it, BIT1's output path, and the openPMD adaptor TOML as a
// function of the node count (nil on the original path).
type Config struct {
	Label string
	Mode  bit1.IOMode
	TOML  func(nodes int) (string, error)

	// IOR, when set, makes the run the IOR benchmark — configured for the
	// launched task count — instead of BIT1: the reference lines of Fig. 4.
	IOR func(tasks int) ior.Config
}

// The four configurations of Table II. Every figure names these instead
// of re-deriving the TOML.
var (
	Original = Config{Label: "BIT1 Original I/O", Mode: bit1.IOOriginal}
	// BP4 is the ADIOS2 BP4 default: one aggregator per node.
	BP4        = bp4("BIT1 openPMD + BP4", func(nodes int) int { return nodes })
	BP4OneAggr = bp4("BIT1 openPMD + BP4 + 1 AGGR", func(int) int { return 1 })
	// BP4BloscOneAggr assumes Blosc at its measured ratio on a PIC payload.
	BP4BloscOneAggr = Config{Label: "BIT1 openPMD + BP4 + Blosc + 1 AGGR", Mode: bit1.IOOpenPMD,
		TOML: func(int) (string, error) { return BP4Options(1, "blosc") }}

	// Tab2Configs lists them in the paper's order.
	Tab2Configs = []Config{Original, BP4, BP4OneAggr, BP4BloscOneAggr}
)

// bp4 is uncompressed openPMD+BP4 with the aggregator count a function of
// the node count.
func bp4(label string, aggregators func(nodes int) int) Config {
	return Config{Label: label, Mode: bit1.IOOpenPMD, TOML: func(nodes int) (string, error) {
		return BP4Options(aggregators(nodes), "")
	}}
}

// labelled returns the configuration under a figure's own legend name.
func (c Config) labelled(label string) Config {
	c.Label = label
	return c
}

// Run describes one launch: a machine × node count in one configuration,
// optionally after one `lfs setstripe` on /scratch (StripeCount 0: keep
// the file system's default layout).
type Run struct {
	Machine     cluster.Machine
	Nodes       int
	Config      Config
	StripeCount int
	StripeSize  int64
	// Deck is BIT1's input deck; nil means the one Options.DiagEpochs
	// scales. The full-run extrapolations assume DiagEpochs either way.
	Deck *bit1.InputDeck
}

// evaluate is the one loop every paper figure runs on: it measures each
// run of the list and hands the result to fold with the run's index in
// the list; fold keeps the few numbers the figure plots, by that index.
// The result is released once fold returns — its Darshan records go back
// to the pools the next run's collector takes from — so fold keeps
// numbers, never the collector or a record. Runs go largest node
// count first, in list order among equal counts: the kernel trims its
// idle carriers to each run's process count, so the first launch makes
// the carriers and every later one only trims. Each run is a pure
// function of itself and the seed, so the order shows in no output.
func (o Options) evaluate(runs []Run, fold func(i int, r *RunResult) error) error {
	order := make([]int, len(runs))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(runs[b].Nodes, runs[a].Nodes) })
	for _, i := range order {
		run := runs[i]
		measure := o.RunBIT1
		if run.Config.IOR != nil {
			measure = o.runIOR
		}
		r, err := measure(run)
		if err == nil {
			err = fold(i, r)
			r.release()
		}
		if err != nil {
			return fmt.Errorf("%q on %s, %d node(s): %w", run.Config.Label, run.Machine.Name, run.Nodes, err)
		}
	}
	return nil
}

// build instantiates the run's machine on a fresh kernel and applies its
// striping request.
func (o Options) build(run Run) (*cluster.System, error) {
	m := run.Machine
	sys, err := m.Build(m.NewKernel(run.Nodes), run.Nodes, o.Seed)
	if err != nil || run.StripeCount == 0 {
		return sys, err
	}
	return sys, sys.Lustre.SetStripe("/scratch", run.StripeCount, run.StripeSize)
}

// release gives the result's Darshan records back to the pools; its
// collector must not be used afterwards.
func (r *RunResult) release() {
	if r.Darshan != nil {
		r.Darshan.Release()
	}
}

// RunBIT1 executes one full BIT1 run under Darshan and returns the
// measurements. cluster.System.Launch owns the rank count, the rank→node
// mapping and each rank's POSIX environment. The file system's storage
// goes back to the pools when it returns, once everything the result
// reads off the namespace is read; the Darshan records are the caller's
// to release.
func (o Options) RunBIT1(run Run) (*RunResult, error) {
	o = o.WithDefaults()
	sys, err := o.build(run)
	if err != nil {
		return nil, err
	}
	defer sys.Lustre.Release()
	m, k, mode := run.Machine, sys.K, run.Config.Mode
	var toml string
	if run.Config.TOML != nil {
		if toml, err = run.Config.TOML(run.Nodes); err != nil {
			return nil, err
		}
	}
	col := darshan.NewCollector()
	w, envOf, err := sys.Launch(o.RanksPerNode, col)
	if err != nil {
		return nil, err
	}
	deck := o.Deck()
	if run.Deck != nil {
		deck = *run.Deck
	}
	cfg := bit1.Config{
		Deck:           deck,
		Sizing:         workload.Default(),
		OutDir:         "/scratch/bit1",
		Mode:           mode,
		OpenPMDOptions: toml,
		ComputePerStep: o.computePerStep,
		StdioOverhead:  sim.Duration(m.StdioWriteOverhead),
	}
	// Ranks of one kernel never run at once: the closure's state needs no
	// lock.
	var firstErr error
	var appEnd sim.Time
	var drainBusyAtAppEnd float64
	w.Run(func(r *mpisim.Rank) {
		err := bit1.Run(cfg, bit1.RankEnv{Rank: r, Env: envOf(r)})
		if err != nil && firstErr == nil {
			firstErr = err
		}
		if now := r.Proc.Now(); now > appEnd {
			appEnd = now
			if sys.Burst != nil {
				drainBusyAtAppEnd = sys.Burst.Stats().DrainBusySec
			}
		}
	})
	if firstErr != nil {
		return nil, firstErr
	}
	res := &RunResult{ElapsedSec: float64(k.Now())}
	if sys.Burst != nil {
		st := sys.Burst.Stats()
		res.Burst = &st
		// k.Run returns only after on-demand drain workers exit, so the
		// drain tail is whatever virtual time passed after the last rank.
		res.DrainTailSec = float64(k.Now() - appEnd)
		res.DrainOverlapSec = drainBusyAtAppEnd
	}
	res.Darshan = col
	// Throughput is measured on the simulation's output files only: the
	// staged input deck is written once at t=0 and read by every rank,
	// and would otherwise stretch the Darshan write window across the
	// startup phase. The collector is read in place, through predicates.
	once := func(rec *darshan.Record) bool { return strings.HasSuffix(rec.Path, ".inp") }
	perEpoch := func(rec *darshan.Record) bool { return !once(rec) }
	res.ThroughputGiBs = units.GiBps(col.WriteThroughputByElapsed(perEpoch))
	// Per-epoch I/O extrapolates to the full production run; one-time
	// I/O (the input deck every rank reads at startup) does not.
	r1, m1, w1 := col.PerProcessTimes(w.Size, once)
	rN, mN, wN := col.PerProcessTimes(w.Size, perEpoch)
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
// linearly with epochs while snapshot files are overwritten in place. It
// builds no file's path: none of isAppendMode's patterns holds a '/', so
// a path matches exactly when its directory or its name does. A sum, a
// count and a maximum need no order, so it sorts no directory.
func (o Options) fileStats(sys *cluster.System, dir string) FileStats {
	var fs FileStats
	factor := o.EpochFactor()
	sys.Lustre.Namespace().FilesUnordered(dir, func(dir string, n *pfs.Node) {
		size := n.Size
		if isAppendMode(n.Name) || strings.Contains(dir, "_global_") {
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

// isAppendMode reports whether a file of this name grows with epoch count.
func isAppendMode(name string) bool {
	return strings.HasSuffix(name, "md.0") || strings.HasSuffix(name, "md.idx") ||
		strings.Contains(name, "_global_")
}

// profileOf extracts BP4 profiling totals if present.
func profileOf(sys *cluster.System, path string) *adios2.Timers {
	n, err := sys.Lustre.Namespace().Lookup(path)
	if err != nil || n.Content == nil {
		return nil
	}
	_, _, total, _, err := adios2.ParseProfile(n.Content)
	if err != nil {
		return nil
	}
	return &total
}

// BP4Options renders the openPMD adaptor TOML of a BP4 configuration:
// the aggregator count (0: the engine's default) and the compression
// operator ("" or "none": no operator section) at its measured ratio.
func BP4Options(aggregators int, codec string) (string, error) {
	ratio, err := MeasuredRatio(codec)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("[adios2.engine]\ntype = \"bp4\"\n\n[adios2.engine.parameters]\n")
	if aggregators > 0 {
		fmt.Fprintf(&b, "NumAggregators = \"%d\"\n", aggregators)
	}
	if codec != "" && codec != "none" {
		fmt.Fprintf(&b, "SimCompressionRatio = \"%.4f\"\n", ratio)
		fmt.Fprintf(&b, "\n[adios2.dataset.operators]\ntype = \"%s\"\n", codec)
	}
	return b.String(), nil
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
