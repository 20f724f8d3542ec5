package main

import (
	"fmt"
	"time"

	"picmcio/internal/adios2"
	"picmcio/internal/burst"
	"picmcio/internal/cluster"
	"picmcio/internal/compress"
	"picmcio/internal/jobs"
	"picmcio/internal/lustre"
	"picmcio/internal/mpisim"
	"picmcio/internal/pfs"
	"picmcio/internal/posix"
	"picmcio/internal/sim"
	"picmcio/internal/sweep"
	"picmcio/internal/units"
	"picmcio/internal/workload"
)

// Layer probes. Simulated processes are goroutines that interleave
// inside World.Run, so the host time of a run cannot be split per layer
// from outside. Each probe instead drives one layer's public functions
// at a fixed size so that only that layer does work, and reports host
// nanoseconds per unit of that work. Where a probe needs phases it
// separates them with barriers and reads the host clock from one
// process: only one simulated process runs at a time, so the interval
// covers every process's share of the phase.

// probeSizes fixes how much each probe does.
type probeSizes struct {
	SimProcs, SimRounds     int
	MPIRanks, MPIGroups     int
	MPIReps                 int
	ADIOSRanks, ADIOSAggs   int
	LustreProcs             int
	BurstNodes, BurstChunks int
	JobNodes                int
	SweepEmpty, SweepBusy   int
	PayloadFloats           int
}

var fullProbes = probeSizes{
	SimProcs: 4096, SimRounds: 16,
	MPIRanks: 4096, MPIGroups: 32, MPIReps: 50,
	ADIOSRanks: 1024, ADIOSAggs: 8,
	LustreProcs: 1024,
	BurstNodes:  64, BurstChunks: 256,
	JobNodes:   32,
	SweepEmpty: 10000, SweepBusy: 64,
	PayloadFloats: 1 << 16,
}

// probe is one layer probe. touches names the workloads whose artifacts
// put that layer to work: the probe runs only when one of them is
// measured and its readings appear only in their ledgers.
type probe struct {
	name    string
	touches []string
	run     func(z probeSizes) (ledger, error)
}

var (
	bit1Workloads   = []string{"aggr_sweep", "orig_scaling", "staged_drain"}
	adios2Workloads = []string{"aggr_sweep", "staged_drain"}
	sweepWorkloads  = []string{"staged_drain", "sched_queue"}
)

var probes = []probe{
	{"sim.handoff", bit1Workloads, probeSimHandoff},
	{"sim.timer", bit1Workloads, probeSimTimer},
	{"mpisim.gatherv", adios2Workloads, func(z probeSizes) (ledger, error) { return probeMPI(z, "mpisim.probe_gatherv_ns_per_rank", true) }},
	{"mpisim.barrier", bit1Workloads, func(z probeSizes) (ledger, error) { return probeMPI(z, "mpisim.probe_barrier_ns_per_rank", false) }},
	{"adios2", adios2Workloads, probeADIOS2},
	{"lustre", bit1Workloads, probeLustre},
	{"burst", []string{"staged_drain"}, probeBurst},
	{"jobs", []string{"sched_queue"}, probeJobs},
	{"sweep.overhead", sweepWorkloads, probeSweepOverhead},
	{"sweep.speedup", sweepWorkloads, probeSweepSpeedup},
	// No workload compresses (fig7, fig8 and tab2 do); the codecs are
	// context for openPMD work and are listed beside the adios2 sweep.
	{"compress.blosc", []string{"aggr_sweep"}, func(z probeSizes) (ledger, error) { return probeCodec(z, "blosc") }},
	{"compress.bzip2", []string{"aggr_sweep"}, func(z probeSizes) (ledger, error) { return probeCodec(z, "bzip2") }},
}

// runProbes runs every probe that touches one of ws, repeating it until it
// has run for at least each, and returns one ledger per workload holding
// the per-metric medians of the probes that touch it.
func runProbes(z probeSizes, each time.Duration, ws []Workload) (map[string]ledger, error) {
	out := map[string]ledger{}
	for _, w := range ws {
		out[w.Name] = ledger{}
	}
	for _, pb := range probes {
		var into []ledger
		for _, name := range pb.touches {
			if led, ok := out[name]; ok {
				into = append(into, led)
			}
		}
		if len(into) == 0 {
			continue
		}
		s := samples{}
		for start := time.Now(); ; {
			led, err := pb.run(z)
			if err != nil {
				return nil, fmt.Errorf("probe %s: %w", pb.name, err)
			}
			for k, v := range led {
				s.add(k, v)
			}
			if time.Since(start) >= each {
				break
			}
		}
		for k, xs := range s {
			for _, led := range into {
				led[k] = median(xs)
			}
		}
	}
	return out, nil
}

// probeSimHandoff: pairs of processes pass control back and forth with
// Park/Wake, so every event is a resumption delivered through the queue.
func probeSimHandoff(z probeSizes) (ledger, error) {
	k := sim.NewKernel()
	for i := 0; i < z.SimProcs/2; i++ {
		var a, b *sim.Proc
		b = k.Spawn(fmt.Sprint("b", i), func(p *sim.Proc) {
			for r := 0; r < z.SimRounds; r++ {
				p.Park()
				k.Wake(a)
			}
		})
		a = k.Spawn(fmt.Sprint("a", i), func(p *sim.Proc) {
			for r := 0; r < z.SimRounds; r++ {
				k.Wake(b)
				p.Park()
			}
		})
	}
	start := time.Now()
	k.Run()
	ns := float64(time.Since(start))
	return ledger{"sim.probe_handoff_ns": ns / float64(k.Stats().QueueEvents)}, nil
}

// probeSimTimer: processes that only sleep, on staggered periods.
func probeSimTimer(z probeSizes) (ledger, error) {
	k := sim.NewKernel()
	for i := 0; i < z.SimProcs; i++ {
		d := sim.Duration(1 + float64(i%97)/97)
		k.Spawn(fmt.Sprint("t", i), func(p *sim.Proc) {
			for r := 0; r < z.SimRounds; r++ {
				p.Sleep(d)
			}
		})
	}
	start := time.Now()
	k.Run()
	ns := float64(time.Since(start))
	return ledger{"sim.probe_timer_ns": ns / float64(k.Stats().Events())}, nil
}

// probeMPI: a world split into groups, each repeating one collective;
// rank 0 reads the host clock between world barriers.
func probeMPI(z probeSizes, metric string, gatherv bool) (ledger, error) {
	m := cluster.Dardel()
	k := sim.NewKernel()
	w := mpisim.NewWorld(k, z.MPIRanks, mpisim.AlphaBeta(m.NetAlpha, m.NetBeta))
	var t0, t1 time.Time
	w.Run(func(r *mpisim.Rank) {
		g := r.Comm.Split(r.ID*z.MPIGroups/z.MPIRanks, r.ID)
		r.Comm.Barrier()
		if r.ID == 0 {
			t0 = time.Now()
		}
		for i := 0; i < z.MPIReps; i++ {
			if gatherv {
				g.GathervBytes(1<<20, nil, 0)
			} else {
				g.Barrier()
			}
		}
		r.Comm.Barrier()
		if r.ID == 0 {
			t1 = time.Now()
		}
	})
	return ledger{metric: float64(t1.Sub(t0)) / float64(z.MPIRanks*z.MPIReps)}, nil
}

const adiosVars, adiosSteps = 8, 3

// probeADIOS2: a BP4 writer on default Lustre, volume-mode payloads; the
// Put and EndStep phases of every step are timed apart.
func probeADIOS2(z probeSizes) (ledger, error) {
	k := sim.NewKernel()
	fs := lustre.New(k, lustre.DefaultParams())
	w := mpisim.NewWorld(k, z.ADIOSRanks, mpisim.AlphaBeta(1e-6, 1.0/10e9))
	var putNs, endNs time.Duration
	var firstErr error
	fail := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	const slab = 1 << 14 // float64s per rank per variable
	w.Run(func(r *mpisim.Rank) {
		io := adios2.New().DeclareIO("probe")
		io.SetParameter("NumAggregators", fmt.Sprint(z.ADIOSAggs))
		vars := make([]*adios2.Variable, adiosVars)
		for i := range vars {
			v, err := io.DefineVariable(fmt.Sprint("v", i), adios2.TypeFloat64,
				[]uint64{uint64(slab * z.ADIOSRanks)}, []uint64{uint64(slab * r.ID)}, []uint64{slab})
			if err != nil {
				fail(err)
				return
			}
			vars[i] = v
		}
		h := adios2.Host{Proc: r.Proc, Env: &posix.Env{FS: fs, Client: &pfs.Client{}, Rank: r.ID}, Comm: r.Comm}
		e, err := io.Open(h, "/probe/out.bp4", adios2.ModeWrite)
		if err != nil {
			fail(err)
			return
		}
		var t time.Time
		mark := func(acc *time.Duration) {
			r.Comm.Barrier()
			if r.ID == 0 {
				now := time.Now()
				if acc != nil {
					*acc += now.Sub(t)
				}
				t = now
			}
		}
		for s := 0; s < adiosSteps; s++ {
			fail(e.BeginStep(int64(s)))
			mark(nil)
			for _, v := range vars {
				fail(e.Put(v, nil))
			}
			mark(&putNs)
			fail(e.EndStep())
			mark(&endNs)
		}
		fail(e.Close())
	})
	if firstErr != nil {
		return nil, firstErr
	}
	return ledger{
		"adios2.probe_put_ns":              float64(putNs) / float64(z.ADIOSRanks*adiosSteps*adiosVars),
		"adios2.probe_endstep_ns_per_rank": float64(endNs) / float64(z.ADIOSRanks*adiosSteps),
	}, nil
}

const lustreWrites = 4

// probeLustre: every process creates a file, writes four 1 MiB pieces
// and closes it; gauges separate the create phase from the write phase.
func probeLustre(z probeSizes) (ledger, error) {
	k := sim.NewKernel()
	fs := lustre.New(k, lustre.DefaultParams())
	n := z.LustreProcs
	created, written := sim.NewGauge(k), sim.NewGauge(k)
	created.Add(int64(n))
	written.Add(int64(n))
	var t1, t2 time.Time
	var firstErr error
	for i := 0; i < n; i++ {
		c := &pfs.Client{Node: i / 128}
		k.Spawn(fmt.Sprint("w", i), func(p *sim.Proc) {
			f, err := fs.Create(p, c, fmt.Sprintf("/probe/f.%d", i))
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				// Still release the gauges so the other processes finish.
				created.Add(-1)
				written.Add(-1)
				return
			}
			created.Add(-1)
			if created.Value() == 0 {
				t1 = time.Now()
			}
			created.Wait(p)
			for j := int64(0); j < lustreWrites; j++ {
				f.WriteAt(p, c, j<<20, 1<<20, nil)
			}
			written.Add(-1)
			if written.Value() == 0 {
				t2 = time.Now()
			}
			written.Wait(p)
			f.Close(p, c)
		})
	}
	t0 := time.Now()
	k.Run()
	if firstErr != nil {
		return nil, firstErr
	}
	return ledger{
		"lustre.probe_create_ns": float64(t1.Sub(t0)) / float64(n),
		"lustre.probe_write_ns":  float64(t2.Sub(t1)) / float64(n*lustreWrites),
	}, nil
}

// probeBurst: one writer per node pushes 1 MiB chunks through Dardel's
// burst tier; the kernel runs until the drain workers have written
// everything back.
func probeBurst(z probeSizes) (ledger, error) {
	m := cluster.Dardel()
	k := m.NewKernel(z.BurstNodes)
	sys, err := m.Build(k, z.BurstNodes, 1)
	if err != nil {
		return nil, err
	}
	fs := sys.StagedFS()
	if fs == nil {
		return nil, fmt.Errorf("%s has no burst tier", m.Name)
	}
	var firstErr error
	for i, c := range sys.Clients {
		k.Spawn(fmt.Sprint("n", i), func(p *sim.Proc) {
			f, err := fs.Create(p, c, fmt.Sprintf("/probe.%d.dat", i))
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				return
			}
			for j := 0; j < z.BurstChunks; j++ {
				f.WriteAt(p, c, int64(j)<<20, 1<<20, nil)
			}
			f.Close(p, c)
		})
	}
	start := time.Now()
	k.Run()
	ns := float64(time.Since(start))
	if firstErr != nil {
		return nil, firstErr
	}
	chunks := z.BurstNodes * z.BurstChunks
	if st := sys.Burst.Stats(); st.DrainedBytes+st.FallbackBytes != int64(chunks)<<20 {
		return nil, fmt.Errorf("burst: %d of %d bytes PFS-durable", st.DrainedBytes+st.FallbackBytes, int64(chunks)<<20)
	}
	return ledger{"burst.probe_chunk_ns": ns / float64(chunks)}, nil
}

// probeJobs: a staged chunked writer co-scheduled beside a direct bulk
// writer, the shape sched.Pricer prices through jobs.Run.
func probeJobs(z probeSizes) (ledger, error) {
	m := cluster.Dardel()
	bulk := jobs.BulkWriter{Epochs: 3, CheckpointBytes: 96 * units.MiB, DiagBytes: 32 * units.MiB, ComputeSec: 0.02}
	specs := []jobs.Spec{
		{
			Name: "staged", Nodes: z.JobNodes, StripeCount: -1,
			Burst: burst.Spec{CapacityBytes: 2 << 30, Rate: 6e9, PerOp: 25e-6, Policy: burst.PolicyImmediate},
			Workload: jobs.ChunkedWriter{Epochs: bulk.Epochs, CheckpointBytes: bulk.CheckpointBytes,
				DiagBytes: bulk.DiagBytes, ComputeSec: bulk.ComputeSec, ChunkBytes: 4 * units.MiB},
		},
		{Name: "direct", Nodes: z.JobNodes, StripeCount: -1, Workload: bulk},
	}
	start := time.Now()
	res, err := jobs.Run(m, specs, 1)
	s := time.Since(start).Seconds()
	if err != nil {
		return nil, err
	}
	if res[0].Burst == nil {
		return nil, fmt.Errorf("jobs: staged job reports no burst accounting")
	}
	return ledger{"jobs.probe_run_s": s, "jobs.probe_drain_ops": float64(res[0].Burst.DrainOps)}, nil
}

// probeSweepOverhead: what the worker pool costs per trial that does
// nothing.
func probeSweepOverhead(z probeSizes) (ledger, error) {
	start := time.Now()
	err := sweep.ForEach(z.SweepEmpty, procs(), func(int) error { return nil })
	us := float64(time.Since(start)) / 1e3
	return ledger{"sweep.probe_trial_overhead_us": us / float64(z.SweepEmpty)}, err
}

var spinSink uint64

// probeSweepSpeedup: fixed CPU-bound trials at width P against width 1 —
// the ceiling for any -parallel claim on this box.
func probeSweepSpeedup(z probeSizes) (ledger, error) {
	sums := make([]uint64, z.SweepBusy)
	spin := func(i int) error {
		x := uint64(i) + 1
		for j := 0; j < 400000; j++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
		sums[i] = x
		return nil
	}
	timeAt := func(width int) (float64, error) {
		start := time.Now()
		err := sweep.ForEach(z.SweepBusy, width, spin)
		return time.Since(start).Seconds(), err
	}
	serial, err := timeAt(1)
	if err != nil {
		return nil, err
	}
	wide, err := timeAt(procs())
	if err != nil {
		return nil, err
	}
	spinSink += sums[0]
	return ledger{"sweep.probe_speedup_x": serial / wide}, nil
}

// probeCodec: the real codec on a sampled PIC payload.
func probeCodec(z probeSizes, name string) (ledger, error) {
	c, err := compress.New(name, 8)
	if err != nil {
		return nil, err
	}
	payload := workload.Float64sToBytes(workload.SamplePayload(z.PayloadFloats, 42))
	start := time.Now()
	enc := c.Compress(payload)
	s := time.Since(start).Seconds()
	led := ledger{"compress." + name + "_MiBps": float64(len(payload)) / (1 << 20) / s}
	if name == "blosc" {
		led["compress.blosc_ratio"] = float64(len(enc)) / float64(len(payload))
	}
	return led, nil
}
