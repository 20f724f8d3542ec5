package main

import (
	"fmt"
	"strings"
	"sync"

	"picmcio/internal/adios2"
	"picmcio/internal/bit1"
	"picmcio/internal/cluster"
	"picmcio/internal/darshan"
	"picmcio/internal/mpisim"
	"picmcio/internal/pfs"
	"picmcio/internal/posix"
	"picmcio/internal/sched"
	"picmcio/internal/sim"
	"picmcio/internal/workload"
	"picmcio/internal/xrand"
)

// A cell is one representative simulation of a workload, composed by
// hand from the layers' public functions the way experiments.runBIT1 and
// experiments.FigSched compose them, so the harness can put its
// decorators and host spans at the seams. It is not part of any
// end-to-end number.

// ledger is a cell's per-layer readings, keyed by metric name.
type ledger map[string]float64

const gib = float64(1 << 30)

// bit1Cell describes a BIT1 cell: Dardel, nodes × ranksPerNode, one I/O
// configuration.
type bit1Cell struct {
	Nodes, RanksPerNode, Epochs int
	Mode                        bit1.IOMode
	Aggregators                 int  // BP4 NumAggregators (openPMD mode)
	Staged                      bool // burst_buffer = true
	ComputePerStep              sim.Duration
}

// cellOf maps a workload to its cell at the workload's own scale.
func cellOf(w Workload) (bit1Cell, bool) {
	c := bit1Cell{RanksPerNode: w.Opts.RanksPerNode, Epochs: w.Opts.DiagEpochs}
	largest := 0
	for _, n := range w.Opts.NodeCounts {
		largest = max(largest, n)
	}
	switch w.Name {
	case "aggr_sweep":
		// One aggregator per node: the ADIOS2 default the sweep brackets.
		c.Nodes, c.Mode, c.Aggregators = w.Nodes, bit1.IOOpenPMD, w.Nodes
	case "orig_scaling":
		c.Nodes, c.Mode = largest, bit1.IOOriginal
	case "staged_drain":
		c.Nodes, c.Mode, c.Aggregators, c.Staged = largest, bit1.IOOpenPMD, largest, true
		c.ComputePerStep = 200e-6 // figburst's compute window for the drain to overlap
	default:
		return c, false
	}
	return c, true
}

func (c bit1Cell) toml() string {
	if c.Mode != bit1.IOOpenPMD {
		return ""
	}
	s := ""
	if c.Staged {
		s = "burst_buffer = true\n"
	}
	return s + fmt.Sprintf("[adios2.engine]\ntype = \"bp4\"\n\n[adios2.engine.parameters]\nNumAggregators = \"%d\"\n", c.Aggregators)
}

const cellOutDir = "/scratch/bit1"

// runBIT1Cell runs the cell once. With a tracer the decorators are on
// and spans are recorded; with nil they are off and only the layers' own
// counters are read, which is the denominator of host.trace_overhead_x.
func runBIT1Cell(c bit1Cell, seed uint64, t *tracer) (ledger, error) {
	m := cluster.Dardel()
	ranks := c.Nodes * c.RanksPerNode
	led := ledger{}

	var k *sim.Kernel
	var sys *cluster.System
	var err error
	led["cluster.build_s"] = t.host("cluster", "NewKernel", func() { k = m.NewKernel(c.Nodes) }) +
		t.host("cluster", "Build", func() { sys, err = m.Build(k, c.Nodes, seed) })
	if err != nil {
		return nil, err
	}

	cost := mpisim.AlphaBeta(m.NetAlpha, m.NetBeta)
	var costs costTap
	col := darshan.NewCollector()
	var mon posix.Monitor = col
	fs := sys.FS
	var fst *fsTap
	var mt *monitorTap
	if t != nil {
		cost = costs.wrap(cost)
		fst = &fsTap{inner: sys.FS, t: t}
		fs = fst
		mt = &monitorTap{inner: col, t: t}
		mon = mt
	}
	var w *mpisim.World
	newWorldS := t.host("mpisim", "NewWorld", func() { w = mpisim.NewWorld(k, ranks, cost) })

	deck := bit1.DefaultDeck()
	deck.MVStep, deck.MVFlag = 100, 1
	deck.LastStep = c.Epochs * 100
	deck.DMPStep = c.Epochs * 100
	cfg := bit1.Config{
		Deck:           deck,
		Sizing:         workload.Default(),
		OutDir:         cellOutDir,
		Mode:           c.Mode,
		OpenPMDOptions: c.toml(),
		ComputePerStep: c.ComputePerStep,
		StdioOverhead:  sim.Duration(m.StdioWriteOverhead),
	}
	var mu sync.Mutex
	var firstErr error
	var appEnd sim.Time
	var drainBusyAtAppEnd float64
	// World.Run is Spawn then Kernel.Run; taking them apart puts the cost
	// of creating one goroutine per rank on its own line.
	led["mpisim.world_spawn_s"] = newWorldS + t.host("mpisim", "World.Spawn", func() {
		w.Spawn(func(r *mpisim.Rank) {
			node := min(r.ID/c.RanksPerNode, len(sys.Clients)-1)
			env := &posix.Env{FS: fs, Stage: sys.StagedFS(), Client: sys.Clients[node], Rank: r.ID, Monitor: mon}
			err := bit1.Run(cfg, bit1.RankEnv{Rank: r, Env: env})
			mu.Lock()
			defer mu.Unlock()
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
	})
	runS := t.host("sim", "Kernel.Run", func() { k.Run() })
	if firstErr != nil {
		return nil, firstErr
	}
	elapsed := float64(k.Now())

	ks := k.Stats()
	events := float64(ks.Events())
	led["sim.events"] = events
	led["sim.events_per_rank_epoch"] = events / float64(ranks*c.Epochs)
	led["sim.handoff_share"] = float64(ks.QueueEvents) / events
	if d := ks.QueueEvents + ks.Stale; d > 0 {
		led["sim.stale_share"] = float64(ks.Stale) / float64(d)
	}
	led["sim.run_ns_per_event"] = runS * 1e9 / events
	led["cell.run_s"] = runS // numerator of host.trace_overhead_x; not a reported metric

	var log *darshan.Log
	led["darshan.snapshot_s"] = t.host("darshan", "Snapshot+analyses", func() {
		log = col.Snapshot(darshan.JobMeta{Executable: "bit1." + c.Mode.String(), NProcs: ranks,
			Machine: m.Name, RunSeconds: elapsed})
		once := func(rec *darshan.Record) bool { return strings.HasSuffix(rec.Path, ".inp") }
		perEpoch := log.Filter(func(rec *darshan.Record) bool { return !once(rec) })
		perEpoch.WriteThroughputByElapsed()
		log.Filter(once).PerProcessTimes()
		perEpoch.PerProcessTimes()
	})
	led["darshan.records"] = float64(len(log.Records))
	led["darshan.read_s_per_proc"], led["darshan.meta_s_per_proc"], led["darshan.write_s_per_proc"] = log.PerProcessTimes()

	var ns *pfs.Namespace
	if n, ok := sys.FS.(pfs.Namespacer); ok {
		ns = n.Namespace()
	}
	if ns == nil {
		return nil, fmt.Errorf("%s exposes no namespace", sys.FS.Name())
	}
	bp := cellOutDir + "/bit1_file.bp4/"
	var files, subfiles, mdBytes float64
	led["pfs.walk_s"] = t.host("pfs", "WalkFiles", func() {
		err = ns.WalkFiles(cellOutDir, func(path string, n *pfs.Node) {
			files++
			if rest, ok := strings.CutPrefix(path, bp); ok {
				switch {
				case strings.HasPrefix(rest, "data."):
					subfiles++
				case strings.HasPrefix(rest, "md."):
					mdBytes += float64(n.Size)
				}
			}
		})
	})
	if err != nil {
		return nil, err
	}
	led["pfs.files"] = files
	led["adios2.subfiles"] = subfiles
	led["adios2.md_bytes"] = mdBytes
	if c.Mode == bit1.IOOpenPMD {
		if int(subfiles) != c.Aggregators {
			return nil, fmt.Errorf("adios2: %g subfiles for %d aggregators", subfiles, c.Aggregators)
		}
		n, err := ns.Lookup(bp + "profiling.json")
		if err != nil {
			return nil, err
		}
		var total adios2.Timers
		t.host("adios2", "ParseProfile", func() { _, _, total, _, err = adios2.ParseProfile(n.Content) })
		if err != nil {
			return nil, err
		}
		led["adios2.profile_gather_s"] = float64(total.Gather)
		led["adios2.profile_memcpy_s"] = float64(total.Memcpy)
		led["adios2.profile_write_s"] = float64(total.Write)
		led["adios2.profile_meta_s"] = float64(total.Meta)
	}

	if l := sys.Lustre; l != nil {
		led["lustre.mds_ops"] = float64(l.MDSOps())
		if elapsed > 0 {
			led["lustre.mds_util"] = float64(l.MDSBusy()) / elapsed
		}
		var sum, maxB float64
		nOST := l.Params().NumOSTs
		for i := 0; i < nOST; i++ {
			_, b, _ := l.OSTStats(i)
			sum += float64(b)
			maxB = max(maxB, float64(b))
		}
		led["lustre.ost_GiB"] = sum / gib
		if sum > 0 {
			led["lustre.ost_imbalance"] = maxB / (sum / float64(nOST))
		}
	}

	if b := sys.Burst; b != nil && c.Staged {
		st := b.Stats()
		led["burst.absorbed_GiB"] = float64(st.AbsorbedBytes) / gib
		led["burst.fallback_GiB"] = float64(st.FallbackBytes) / gib
		led["burst.drained_GiB"] = float64(st.DrainedBytes) / gib
		led["burst.drain_busy_s"] = st.DrainBusySec
		led["burst.drain_tail_s"] = elapsed - float64(appEnd)
		if st.DrainBusySec > 0 {
			led["burst.overlap_share"] = min(1, drainBusyAtAppEnd/st.DrainBusySec)
		}
		d := b.Durability()
		if d.BufferedBytes != d.DurableBytes+d.PendingBytes+d.LostBytes+d.CancelledBytes {
			return nil, fmt.Errorf("burst: buffered %d != durable %d + pending %d + lost %d + cancelled %d",
				d.BufferedBytes, d.DurableBytes, d.PendingBytes, d.LostBytes, d.CancelledBytes)
		}
	}

	if t != nil {
		led["mpisim.cost_calls"] = float64(costs.calls)
		led["mpisim.modelled_s"] = costs.modelledS
		led["posix.ops"] = float64(mt.ops)
		led["posix.ops_per_rank_epoch"] = float64(mt.ops) / float64(ranks*c.Epochs)
		if mt.ops > 0 {
			led["posix.meta_share"] = float64(mt.meta) / float64(mt.ops)
			led["darshan.record_ns"] = float64(mt.hostNs) / float64(mt.ops)
		}
		led["pfs.fs_calls"] = float64(fst.calls)
		if fst.calls > 0 {
			led["pfs.wait_s_per_call"] = fst.waitS / float64(fst.calls)
		}
	}
	return led, nil
}

// figsched's constants, restated: the cell is one (machine, load) cell of
// that artifact, at its highest load.
const (
	schedPartition = 64
	schedTenants   = 8
	schedUsers     = 4
	schedLoad      = 1.3
	schedLoadIndex = 2 // position of 1.3 on figsched's load axis, for the stream seed
	schedEpochH    = 6
)

// runSchedCell synthesizes one job stream on a Dardel partition, prices
// it, and replays it under each policy.
func runSchedCell(jobs int, seed uint64, t *tracer) (ledger, error) {
	m := cluster.Dardel()
	led := ledger{}
	pr := sched.NewPricer(m, seed, schedEpochH)
	var stream []sched.Job
	var err error
	led["sched.synth_s"] = t.host("sched", "Synthesize", func() {
		s := sched.Synth{Tenants: schedTenants, Users: schedUsers}
		var mean float64
		if mean, err = sched.SubmitMeanForLoad(pr, m, s, schedLoad, schedPartition); err != nil {
			return
		}
		s.SubmitMeanHours = mean
		s.SpanHours = float64(jobs) * mean / float64(schedTenants*schedUsers)
		s.Seed = xrand.SeedAt(seed, schedLoadIndex)
		stream, err = sched.Synthesize(m, s)
	})
	if err != nil {
		return nil, err
	}
	led["sched.prewarm_s"] = t.host("sched", "Prewarm", func() { err = pr.Prewarm(stream, procs()) })
	if err != nil {
		return nil, err
	}
	led["sched.shapes"] = float64(pr.Shapes())

	runS := 0.0
	for _, pol := range []struct{ name, key string }{{"fcfs", "fcfs"}, {"easy-backfill", "easy"}, {"fair-share", "fair"}} {
		p, err := sched.Policies(pol.name)
		if err != nil {
			return nil, err
		}
		var res *sched.Result
		s := t.host("sched", "Run."+pol.key, func() {
			res, err = sched.Run(sched.Config{Machine: m, Nodes: schedPartition, EpochHours: schedEpochH,
				Seed: seed, Pricer: pr}, p, stream)
		})
		if err != nil {
			return nil, err
		}
		if len(res.Jobs) != len(stream) {
			return nil, fmt.Errorf("sched %s: %d of %d jobs completed", pol.name, len(res.Jobs), len(stream))
		}
		runS += s
		led["sched.run_s."+pol.key] = s
		led["sched.kjobs_per_s."+pol.key] = float64(len(res.Jobs)) / 1e3 / s
		led["sched.mean_wait_h."+pol.key] = res.MeanWaitHours()
		if pol.key == "easy" {
			led["sched.backfills"] = float64(res.Backfills)
		}
	}
	led["cell.run_s"] = runS
	return led, nil
}

// runCell runs w's cell traced and once more untraced, and returns the
// traced ledger with host.trace_overhead_x added.
func runCell(w Workload, seed uint64, t *tracer) (ledger, error) {
	run := func(t *tracer) (ledger, error) {
		if c, ok := cellOf(w); ok {
			return runBIT1Cell(c, seed, t)
		}
		return runSchedCell(w.Opts.SchedJobs, seed, t)
	}
	traced, err := run(t)
	if err != nil {
		return nil, fmt.Errorf("traced cell: %w", err)
	}
	plain, err := run(nil)
	if err != nil {
		return nil, fmt.Errorf("untraced cell: %w", err)
	}
	if plain["cell.run_s"] > 0 {
		traced["host.trace_overhead_x"] = traced["cell.run_s"] / plain["cell.run_s"]
	}
	delete(traced, "cell.run_s")
	return traced, nil
}
