// Checkpoint/restart: the resilience workflow the paper's openPMD
// integration enables — run the PIC simulation, periodically overwrite
// openPMD iteration 0 with the full particle state (the BIT1 pattern),
// then "crash", restart from the checkpoint, and verify the restored
// state is bit-identical.
//
// With -burst the checkpoints stage through a node-local burst buffer:
// each save returns at *buffered* durability (NVMe speed) while the drain
// scheduler writes back to Lustre in the background, and a second pass
// with burst_durability = "pfs" shows what the same checkpoints cost when
// every epoch close must wait for *PFS* durability.
//
// With -burst -kill the "crash" stops being rhetorical: the node dies
// mid-epoch at step 250, between checkpoints, and the run reports what a
// restart recovers at each durability level — both saves are buffered on
// the node's NVMe, but write-back may not have caught up, so a node that
// takes its NVMe with it rolls back further than one whose staged state
// survives. The demo then takes the surviving-NVMe path: redrain the
// staged bytes (the recovery cost internal/fault accounts) and restart
// bit-identically from the last buffered checkpoint.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"picmcio/examples/internal/pic"
	"picmcio/internal/burst"
	"picmcio/internal/ckptopt"
	"picmcio/internal/fault"
	"picmcio/internal/lustre"
	"picmcio/internal/mpisim"
	"picmcio/internal/openpmd"
	"picmcio/internal/pfs"
	"picmcio/internal/posix"
	"picmcio/internal/sim"
	"picmcio/internal/units"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the example on its arguments and output streams. It returns the
// exit status: 0, 1 on an error or a refused setting, 2 on a flag the
// parser rejects or an argument that is no flag.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet(os.Args[0], flag.ContinueOnError)
	fs.SetOutput(stderr)
	useBurst := fs.Bool("burst", false, "stage checkpoints through a node-local burst buffer")
	kill := fs.Bool("kill", false, "lose the node at step 250, mid-epoch (requires -burst)")
	autoInterval := fs.Bool("auto-interval", false,
		"derive the checkpoint cadence from the measured save costs (Young/Daly via internal/ckptopt) and rerun at it")
	mtbf := fs.Float64("mtbf", 0.05,
		"accelerated node MTBF in virtual seconds for -auto-interval (production MTBFs would recommend checkpointing less often than this demo runs)")
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "checkpoint-restart: unexpected argument %q: every setting is a flag\n", fs.Arg(0))
		fs.Usage()
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "checkpoint-restart:", err)
		return 1
	}
	if *kill && !*useBurst {
		return fail(errors.New("-kill requires -burst: without staging every checkpoint is already PFS-durable"))
	}
	if *kill && *autoInterval {
		return fail(errors.New("-auto-interval needs the timing passes the -kill flow skips: run them separately"))
	}
	if !(*mtbf > 0) || math.IsInf(*mtbf, 1) {
		return fail(fmt.Errorf("-mtbf %g: need a positive, finite number of seconds", *mtbf))
	}

	d := newDemo(stdout, *useBurst)
	var err error
	if *kill {
		err = d.killFlow(250)
	} else {
		err = d.checkpointFlow(*autoInterval, *mtbf)
	}
	if err != nil {
		return fail(err)
	}
	return 0
}

// demo is the example's one simulated node: a kernel, the Lustre file
// system its checkpoints reach through env and, with -burst, the burst
// tier env stages them through.
type demo struct {
	out  io.Writer
	k    *sim.Kernel
	env  *posix.Env
	tier *burst.Tier // nil without -burst
	toml string      // the series' openPMD settings
}

// ckptPath is the series every checkpoint overwrites iteration 0 of.
const ckptPath = "/scratch/checkpoint.bp4"

func newDemo(out io.Writer, useBurst bool) *demo {
	k := sim.NewKernel()
	fs := lustre.New(k, lustre.DefaultParams())
	d := &demo{
		out: out, k: k, env: &posix.Env{FS: fs, Client: &pfs.Client{}},
		toml: "[adios2.engine.parameters]\nNumAggregators = \"1\"\n",
	}
	if useBurst {
		// A deliberately slow drain (50 MB/s) makes the durability gap
		// visible: buffered saves cost NVMe time, PFS-durable saves wait
		// for write-back.
		d.tier = burst.NewTier(k, burst.Spec{
			CapacityBytes: 8 << 30, Rate: 2e9, DrainRate: 50e6,
			Policy: burst.PolicyImmediate,
		}, fs)
		d.env.Stage = d.tier.FS()
		d.toml = "burst_buffer = true\n" + d.toml
	}
	return d
}

// onRank runs body as the one rank of a new world and returns its error.
func (d *demo) onRank(body func(r *mpisim.Rank) error) error {
	var err error
	mpisim.NewWorld(d.k, 1, nil).Run(func(r *mpisim.Rank) { err = body(r) })
	return err
}

func newSim(seed uint64) (*pic.Sim, error) {
	return pic.New(pic.Params{
		Cells: 64, Length: 1.0, Dt: 1e-9, Seed: seed, IonizationRate: 4e-15,
	}, []pic.SpeciesSpec{
		{Name: "e", Mass: pic.ElectronMass, Charge: -pic.ElementaryQ, NParticles: 5000, Density: 1e18, Temperature: 10},
		{Name: "D+", Mass: pic.DeuteronMass, Charge: pic.ElementaryQ, NParticles: 5000, Density: 1e18, Temperature: 1},
		{Name: "D", Mass: pic.DeuteronMass, Charge: 0, NParticles: 5000, Density: 1e18, Temperature: 0.1},
	})
}

// saveCheckpoint overwrites iteration 0 with the electron state.
func saveCheckpoint(series *openpmd.Series, s *pic.Sim) error {
	it, err := series.WriteIteration(0)
	if err != nil {
		return err
	}
	e, _ := s.SpeciesByName("e")
	n := uint64(e.N())
	for _, rec := range []struct {
		name string
		data []float64
	}{
		{"position/x", e.X}, {"momentum/x", e.VX}, {"momentum/y", e.VY}, {"momentum/z", e.VZ},
	} {
		rc := it.Particles("e").Record(rec.name[:8]).Component(rec.name[9:])
		rc.ResetDataset(openpmd.Dataset{Type: openpmd.Float64, Extent: []uint64{n}})
		if err := rc.StoreChunk([]uint64{0}, []uint64{n}, rec.data); err != nil {
			return err
		}
	}
	return it.Close()
}

// ckptMark fingerprints one checkpoint: the step it covers and the state
// a restart from it must reproduce.
type ckptMark struct {
	step    int
	n       int
	x0, vx0 float64
}

// mark fingerprints s's electrons at step.
func mark(step int, s *pic.Sim) ckptMark {
	e, _ := s.SpeciesByName("e")
	return ckptMark{step: step, n: e.N(), x0: e.X[0], vx0: e.VX[0]}
}

// checkpointFlow is the run without -kill: the checkpoint loop, a restart
// from its last checkpoint and, with -burst, the same loop at PFS
// durability; then, with -auto-interval, the loop at the recommended
// cadence.
func (d *demo) checkpointFlow(autoInterval bool, mtbf float64) error {
	if d.tier != nil {
		fmt.Fprintln(d.out, "=== staged run (buffered-durable checkpoints) ===")
	}
	bufferedSave, drainSec, final, err := d.checkpointRun(ckptPath, d.toml)
	if err != nil {
		return err
	}
	if d.tier != nil {
		st := d.tier.Stats()
		fmt.Fprintf(d.out, "drained to Lustre in %.1f µs (%s absorbed, %s written back)\n",
			1e6*drainSec, units.Bytes(st.AbsorbedBytes), units.Bytes(st.DrainedBytes))
	}

	// "Crash" — now restart from the checkpoint and verify.
	if err := d.restore(final); err != nil {
		return err
	}
	fmt.Fprintf(d.out, "restarted from checkpoint: %d electrons restored bit-identically ✔\n", final.n)
	fmt.Fprintf(d.out, "(only the LAST checkpoint is on disk — iteration 0 was overwritten in place)\n")

	var durableSave float64
	if d.tier != nil {
		// Same workload, but every epoch close waits for PFS durability.
		fmt.Fprintln(d.out, "\n=== staged run (PFS-durable checkpoints, burst_durability = \"pfs\") ===")
		durableToml := "burst_durability = \"pfs\"\n" + d.toml
		if durableSave, _, _, err = d.checkpointRun("/scratch/checkpoint-pfs.bp4", durableToml); err != nil {
			return err
		}
		fmt.Fprintf(d.out, "\navg checkpoint cost: buffered-durable %.1f µs vs PFS-durable %.1f µs (%.0fx)\n",
			1e6*bufferedSave, 1e6*durableSave, durableSave/bufferedSave)
		fmt.Fprintln(d.out, "buffered saves return at NVMe speed; the drain overlaps the next compute phase")
	}

	if autoInterval {
		return d.autoIntervalRun(mtbf, bufferedSave, durableSave, drainSec)
	}
	return nil
}

// checkpointRun executes 300 PIC steps with a checkpoint every 100,
// returning the average virtual seconds one checkpoint save cost, the
// drain time waited at the end (staged runs only — measured in-run, while
// write-back is genuinely still pending), and the final electron state's
// fingerprint.
func (d *demo) checkpointRun(path, toml string) (avgSaveSec, drainSec float64, final ckptMark, err error) {
	err = d.onRank(func(r *mpisim.Rank) error {
		host := openpmd.Host{Proc: r.Proc, Env: d.env, Comm: r.Comm}
		series, err := openpmd.NewSeries(host, path, openpmd.AccessCreate, toml)
		if err != nil {
			return err
		}
		s, err := newSim(42)
		if err != nil {
			return err
		}
		var saves int
		var saveSec sim.Duration
		for step := 1; step <= 300; step++ {
			if err := s.Advance(); err != nil {
				return err
			}
			if step%100 == 0 {
				t0 := r.Proc.Now()
				if err := saveCheckpoint(series, s); err != nil {
					return err
				}
				saveSec += r.Proc.Now() - t0
				saves++
				fmt.Fprintf(d.out, "checkpointed at step %d (%d electrons, %.1f µs)\n",
					step, mark(step, s).n, 1e6*float64(r.Proc.Now()-t0))
			}
		}
		series.Close()
		if d.tier != nil {
			// Make the last checkpoint PFS-durable before the "crash":
			// a buffered-only checkpoint would not survive losing the
			// node. This must run inside the simulation, while the
			// drain is actually still pending.
			t0 := r.Proc.Now()
			d.tier.WaitDrained(r.Proc)
			drainSec = float64(r.Proc.Now() - t0)
		}
		final = mark(300, s)
		avgSaveSec = float64(saveSec) / float64(saves)
		return nil
	})
	return
}

// restore restarts from the checkpoint at ckptPath and checks that it
// holds the state want fingerprints.
func (d *demo) restore(want ckptMark) error {
	return d.onRank(func(r *mpisim.Rank) error {
		host := openpmd.Host{Proc: r.Proc, Env: d.env, Comm: r.Comm}
		series, err := openpmd.NewSeries(host, ckptPath, openpmd.AccessReadOnly, d.toml)
		if err != nil {
			return err
		}
		it, _ := series.ReadIteration(0)
		x, _, err := it.Particles("e").Record("position").Component("x").Load()
		if err != nil {
			return err
		}
		vx, _, err := it.Particles("e").Record("momentum").Component("x").Load()
		if err != nil {
			return err
		}
		series.Close()
		if len(x) != want.n || x[0] != want.x0 || vx[0] != want.vx0 {
			return fmt.Errorf("restart mismatch: n=%d want %d, x0=%v want %v", len(x), want.n, x[0], want.x0)
		}
		return nil
	})
}

// killFlow is the -kill run: the staged checkpoint loop loses the node at
// killStep, mid-epoch; the report says what a restart recovers at each
// durability level, and the restart takes the NVMe-surviving path.
func (d *demo) killFlow(killStep int) error {
	fmt.Fprintf(d.out, "=== staged run with node loss at step %d (-kill) ===\n", killStep)
	marks, buffered, durable, pendingAtKill, redrainSec, err := d.killRun(killStep)
	if err != nil {
		return err
	}
	fmt.Fprintf(d.out, "node died mid-epoch at step %d: %d checkpoint(s) buffered on NVMe, %d PFS-durable\n",
		killStep, buffered, durable)
	fmt.Fprintf(d.out, "  restart from NVMe-surviving state: resume at step %d — %d step(s) of work lost\n",
		100*buffered, killStep-100*buffered)
	fmt.Fprintf(d.out, "  restart after losing the NVMe:     resume at step %d — %d step(s) of work lost (%s staged-only state gone)\n",
		100*durable, killStep-100*durable, units.Bytes(pendingAtKill))
	fmt.Fprintf(d.out, "surviving staged state: %s redrained to Lustre in %.1f µs before the restart could read it\n",
		units.Bytes(pendingAtKill), 1e6*redrainSec)
	fmt.Fprintln(d.out, "(in-place overwrite keeps only the last checkpoint on disk; per-epoch paths — as in")
	fmt.Fprintln(d.out, " internal/jobs — are what make every PFS-durable epoch independently restartable)")

	// Take the surviving-NVMe path: the redrained last checkpoint is
	// consistent on Lustre, restart from it and verify bit-identity.
	want := marks[buffered-1]
	if err := d.restore(want); err != nil {
		return err
	}
	fmt.Fprintf(d.out, "restarted from the step-%d checkpoint: %d electrons restored bit-identically ✔\n", want.step, want.n)
	return nil
}

// killRun runs the staged checkpoint loop but loses the node at
// killStep, mid-epoch. It reports the recovery position at both
// durability levels from the fault ledger, then takes the NVMe-surviving
// path — redrain the staged bytes and leave a consistent last checkpoint
// on Lustre for the restart.
func (d *demo) killRun(killStep int) (marks []ckptMark, buffered, durable int, pendingAtKill int64, redrainSec float64, err error) {
	// The ledger counts buffered checkpoints; the checkpoints differ in
	// size, so the PFS-durable count comes from the cumulative buffered
	// bytes each one ends at, against the node's drained counter.
	led := &fault.Ledger{}
	var cumBytes []int64
	err = d.onRank(func(r *mpisim.Rank) error {
		host := openpmd.Host{Proc: r.Proc, Env: d.env, Comm: r.Comm}
		series, err := openpmd.NewSeries(host, ckptPath, openpmd.AccessCreate, d.toml)
		if err != nil {
			return err
		}
		s, err := newSim(42)
		if err != nil {
			return err
		}
		for step := 1; step <= 300; step++ {
			// Unlike the timing passes above, the kill flow charges a
			// compute cost per step: the window in which the background
			// drain races the next overwrite — and loses it partway, so
			// the two durability levels genuinely diverge at the kill.
			r.Proc.Sleep(40e-6)
			if step == killStep {
				// The node dies here. Assess the recovery position at the
				// instant of death, before anything else moves.
				now := r.Proc.Now()
				buffered = led.BufferedEpochs(now)
				drained := d.tier.NodeStats(0).DrainedBytes
				for _, cum := range cumBytes {
					if cum <= drained {
						durable++
					}
				}
				// Counterfactual node loss: what would die with the NVMe.
				pendingAtKill = d.tier.Durability().PendingBytes
				// Actual path: the staged state survives (SurviveNVMe) and
				// is redrained — the recovery cost of buffered restarts.
				d.tier.Crash(r.Proc, 0, true)
				t0 := r.Proc.Now()
				d.tier.WaitDrained(r.Proc)
				redrainSec = float64(r.Proc.Now() - t0)
				break
			}
			if err := s.Advance(); err != nil {
				return err
			}
			if step%100 == 0 {
				if err := saveCheckpoint(series, s); err != nil {
					return err
				}
				marks = append(marks, mark(step, s))
				led.Mark(r.Proc.Now())
				cumBytes = append(cumBytes, d.tier.Durability().BufferedBytes)
			}
		}
		// The dead node wrote no more; closing the series stands in for
		// the restart-time index recovery that makes the per-iteration
		// BP4 metadata readable again.
		series.Close()
		return nil
	})
	return
}

// stepComputeSec is the virtual compute charged per PIC step in the
// auto-interval pass — the clock the recommended interval converts into
// a steps-between-checkpoints cadence.
const stepComputeSec = 40e-6

// autoIntervalRun is the -auto-interval flow: price the measured save
// costs with ckptopt against the (accelerated) MTBF, print the
// per-level Young/Daly/numeric recommendations, and rerun the
// checkpoint loop at the recommended cadence instead of the hard-coded
// every-100-steps one.
func (d *demo) autoIntervalRun(mtbfSec, bufferedSave, durableSave, drainSec float64) error {
	costs := ckptopt.Costs{
		MTBFSec: mtbfSec,
		// The demo's recovery path is the killRun one: staged state
		// survives and redrains.
		SurvivalProb:       1,
		DurableSaveSec:     durableSave,
		BufferedRestartSec: drainSec, // redrain before the restart reads
		DurableLagSec:      drainSec,
	}
	if d.tier != nil {
		costs.BufferedSaveSec = bufferedSave
	} else {
		// Without staging the timing pass measured direct PFS saves.
		costs.DurableSaveSec = bufferedSave
	}
	plan, err := ckptopt.Optimize(costs)
	if err != nil {
		return err
	}
	fmt.Fprintf(d.out, "\n=== auto-interval: ckptopt on the measured save costs (accelerated MTBF %.3f s) ===\n", mtbfSec)
	for _, l := range plan.Levels() {
		fmt.Fprintf(d.out, "%-8s save %7.1f µs → checkpoint every %.2f ms (Young %.2f, Daly %.2f, waste %.2f%%)\n",
			l.Name, 1e6*l.SaveSec, 1e3*l.NumericSec, 1e3*l.YoungSec, 1e3*l.DalySec, 100*l.WasteAtOpt)
	}
	rec := plan.Recommended()
	every := int(rec.NumericSec/stepComputeSec + 0.5)
	if every < 1 {
		every = 1
	}
	fmt.Fprintf(d.out, "recommended: %s checkpoints every %d steps (at %.0f µs compute/step)\n",
		rec.Name, every, 1e6*stepComputeSec)

	// Rerun the loop at the recommended cadence.
	return d.onRank(func(r *mpisim.Rank) error {
		host := openpmd.Host{Proc: r.Proc, Env: d.env, Comm: r.Comm}
		series, err := openpmd.NewSeries(host, "/scratch/checkpoint-auto.bp4", openpmd.AccessCreate, d.toml)
		if err != nil {
			return err
		}
		s, err := newSim(42)
		if err != nil {
			return err
		}
		t0 := r.Proc.Now()
		saves := 0
		for step := 1; step <= 300; step++ {
			r.Proc.Sleep(stepComputeSec)
			if err := s.Advance(); err != nil {
				return err
			}
			if step%every == 0 {
				if err := saveCheckpoint(series, s); err != nil {
					return err
				}
				saves++
			}
		}
		series.Close()
		if d.tier != nil {
			d.tier.WaitDrained(r.Proc)
		}
		fmt.Fprintf(d.out, "ran 300 steps at the recommended cadence: %d checkpoint(s), %.1f ms virtual time, "+
			"at most %d step(s) ever at risk\n", saves, 1e3*float64(r.Proc.Now()-t0), every)
		return nil
	})
}
