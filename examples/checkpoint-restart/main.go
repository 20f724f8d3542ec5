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
	"flag"
	"fmt"
	"log"

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

// checkpointRun executes 300 PIC steps with a checkpoint every 100,
// returning the average virtual seconds one checkpoint save cost, the
// drain time waited at the end (staged runs only — measured in-run, while
// write-back is genuinely still pending), and the final electron state
// fingerprint.
func checkpointRun(k *sim.Kernel, env *posix.Env, tier *burst.Tier, path, toml string) (avgSaveSec, drainSec float64, n int, x0, vx0 float64) {
	w := mpisim.NewWorld(k, 1, nil)
	w.Run(func(r *mpisim.Rank) {
		host := openpmd.Host{Proc: r.Proc, Env: env, Comm: r.Comm}
		series, err := openpmd.NewSeries(host, path, openpmd.AccessCreate, toml)
		if err != nil {
			log.Fatal(err)
		}
		s, err := newSim(42)
		if err != nil {
			log.Fatal(err)
		}
		var saves int
		var saveSec sim.Duration
		for step := 1; step <= 300; step++ {
			if err := s.Advance(); err != nil {
				log.Fatal(err)
			}
			if step%100 == 0 {
				t0 := r.Proc.Now()
				if err := saveCheckpoint(series, s); err != nil {
					log.Fatal(err)
				}
				saveSec += r.Proc.Now() - t0
				saves++
				fmt.Printf("checkpointed at step %d (%d electrons, %.1f µs)\n",
					step, mustN(s), 1e6*float64(r.Proc.Now()-t0))
			}
		}
		series.Close()
		if tier != nil {
			// Make the last checkpoint PFS-durable before the "crash":
			// a buffered-only checkpoint would not survive losing the
			// node. This must run inside the simulation, while the
			// drain is actually still pending.
			t0 := r.Proc.Now()
			tier.WaitDrained(r.Proc)
			drainSec = float64(r.Proc.Now() - t0)
		}
		e, _ := s.SpeciesByName("e")
		n, x0, vx0 = e.N(), e.X[0], e.VX[0]
		avgSaveSec = float64(saveSec) / float64(saves)
	})
	return
}

// ckptMark fingerprints one checkpoint: the step it covers and the state
// a restart from it must reproduce.
type ckptMark struct {
	step    int
	n       int
	x0, vx0 float64
}

// killRun is the -kill flow: run the staged checkpoint loop but lose the
// node at killStep, mid-epoch. It reports the recovery position at both
// durability levels from the fault ledger, then takes the NVMe-surviving
// path — redrain the staged bytes and leave a consistent last checkpoint
// on Lustre for the restart.
func killRun(k *sim.Kernel, env *posix.Env, tier *burst.Tier, path, toml string, killStep int) (marks []ckptMark, buffered, durable int, pendingAtKill int64, redrainSec float64) {
	// The ledger counts buffered checkpoints; the checkpoints differ in
	// size, so the PFS-durable count comes from the cumulative buffered
	// bytes each one ends at, against the node's drained counter.
	led := &fault.Ledger{}
	var cumBytes []int64
	w := mpisim.NewWorld(k, 1, nil)
	w.Run(func(r *mpisim.Rank) {
		host := openpmd.Host{Proc: r.Proc, Env: env, Comm: r.Comm}
		series, err := openpmd.NewSeries(host, path, openpmd.AccessCreate, toml)
		if err != nil {
			log.Fatal(err)
		}
		s, err := newSim(42)
		if err != nil {
			log.Fatal(err)
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
				drained := tier.NodeStats(0).DrainedBytes
				for _, cum := range cumBytes {
					if cum <= drained {
						durable++
					}
				}
				// Counterfactual node loss: what would die with the NVMe.
				pendingAtKill = tier.Durability().PendingBytes
				// Actual path: the staged state survives (SurviveNVMe) and
				// is redrained — the recovery cost of buffered restarts.
				tier.Crash(r.Proc, 0, true)
				t0 := r.Proc.Now()
				tier.WaitDrained(r.Proc)
				redrainSec = float64(r.Proc.Now() - t0)
				break
			}
			if err := s.Advance(); err != nil {
				log.Fatal(err)
			}
			if step%100 == 0 {
				if err := saveCheckpoint(series, s); err != nil {
					log.Fatal(err)
				}
				e, _ := s.SpeciesByName("e")
				marks = append(marks, ckptMark{step: step, n: e.N(), x0: e.X[0], vx0: e.VX[0]})
				led.Mark(r.Proc.Now())
				cumBytes = append(cumBytes, tier.Durability().BufferedBytes)
			}
		}
		// The dead node wrote no more; closing the series stands in for
		// the restart-time index recovery that makes the per-iteration
		// BP4 metadata readable again.
		series.Close()
	})
	return
}

func main() {
	useBurst := flag.Bool("burst", false, "stage checkpoints through a node-local burst buffer")
	kill := flag.Bool("kill", false, "lose the node at step 250, mid-epoch (requires -burst)")
	autoInterval := flag.Bool("auto-interval", false,
		"derive the checkpoint cadence from the measured save costs (Young/Daly via internal/ckptopt) and rerun at it")
	mtbf := flag.Float64("mtbf", 0.05,
		"accelerated node MTBF in virtual seconds for -auto-interval (production MTBFs would recommend checkpointing less often than this demo runs)")
	flag.Parse()
	if *kill && !*useBurst {
		log.Fatal("-kill requires -burst: without staging every checkpoint is already PFS-durable")
	}
	if *kill && *autoInterval {
		log.Fatal("-auto-interval needs the timing passes the -kill flow skips: run them separately")
	}

	k := sim.NewKernel()
	fs := lustre.New(k, lustre.DefaultParams())
	env := &posix.Env{FS: fs, Client: &pfs.Client{}}
	toml := "[adios2.engine.parameters]\nNumAggregators = \"1\"\n"

	var tier *burst.Tier
	if *useBurst {
		// A deliberately slow drain (50 MB/s) makes the durability gap
		// visible: buffered saves cost NVMe time, PFS-durable saves wait
		// for write-back.
		tier = burst.NewTier(k, burst.Spec{
			CapacityBytes: 8 << 30, Rate: 2e9, DrainRate: 50e6,
			Policy: burst.PolicyImmediate,
		}, fs)
		env.Stage = tier.FS()
		toml = "burst_buffer = true\n" + toml
		if !*kill {
			fmt.Println("=== staged run (buffered-durable checkpoints) ===")
		}
	}

	ckptPath := "/scratch/checkpoint.bp4"

	if *kill {
		const killStep = 250
		fmt.Printf("=== staged run with node loss at step %d (-kill) ===\n", killStep)
		marks, buffered, durable, pendingAtKill, redrainSec := killRun(k, env, tier, ckptPath, toml, killStep)
		fmt.Printf("node died mid-epoch at step %d: %d checkpoint(s) buffered on NVMe, %d PFS-durable\n",
			killStep, buffered, durable)
		fmt.Printf("  restart from NVMe-surviving state: resume at step %d — %d step(s) of work lost\n",
			100*buffered, killStep-100*buffered)
		fmt.Printf("  restart after losing the NVMe:     resume at step %d — %d step(s) of work lost (%s staged-only state gone)\n",
			100*durable, killStep-100*durable, units.Bytes(pendingAtKill))
		fmt.Printf("surviving staged state: %s redrained to Lustre in %.1f µs before the restart could read it\n",
			units.Bytes(pendingAtKill), 1e6*redrainSec)
		fmt.Println("(in-place overwrite keeps only the last checkpoint on disk; per-epoch paths — as in")
		fmt.Println(" internal/jobs — are what make every PFS-durable epoch independently restartable)")

		// Take the surviving-NVMe path: the redrained last checkpoint is
		// consistent on Lustre, restart from it and verify bit-identity.
		want := marks[buffered-1]
		w2 := mpisim.NewWorld(k, 1, nil)
		w2.Run(func(r *mpisim.Rank) {
			host := openpmd.Host{Proc: r.Proc, Env: env, Comm: r.Comm}
			series, err := openpmd.NewSeries(host, ckptPath, openpmd.AccessReadOnly, toml)
			if err != nil {
				log.Fatal(err)
			}
			it, _ := series.ReadIteration(0)
			x, _, err := it.Particles("e").Record("position").Component("x").Load()
			if err != nil {
				log.Fatal(err)
			}
			vx, _, err := it.Particles("e").Record("momentum").Component("x").Load()
			if err != nil {
				log.Fatal(err)
			}
			series.Close()
			if len(x) != want.n || x[0] != want.x0 || vx[0] != want.vx0 {
				log.Fatalf("restart mismatch: n=%d want %d, x0=%v want %v", len(x), want.n, x[0], want.x0)
			}
			fmt.Printf("restarted from the step-%d checkpoint: %d electrons restored bit-identically ✔\n", want.step, len(x))
		})
		return
	}

	bufferedSave, drainSec, wantN, wantX0, wantVX0 := checkpointRun(k, env, tier, ckptPath, toml)
	if tier != nil {
		st := tier.Stats()
		fmt.Printf("drained to Lustre in %.1f µs (%s absorbed, %s written back)\n",
			1e6*drainSec, units.Bytes(st.AbsorbedBytes), units.Bytes(st.DrainedBytes))
	}

	// "Crash" — now restart from the checkpoint and verify.
	w2 := mpisim.NewWorld(k, 1, nil)
	w2.Run(func(r *mpisim.Rank) {
		host := openpmd.Host{Proc: r.Proc, Env: env, Comm: r.Comm}
		series, err := openpmd.NewSeries(host, ckptPath, openpmd.AccessReadOnly, toml)
		if err != nil {
			log.Fatal(err)
		}
		it, _ := series.ReadIteration(0)
		x, _, err := it.Particles("e").Record("position").Component("x").Load()
		if err != nil {
			log.Fatal(err)
		}
		vx, _, err := it.Particles("e").Record("momentum").Component("x").Load()
		if err != nil {
			log.Fatal(err)
		}
		series.Close()
		if len(x) != wantN || x[0] != wantX0 || vx[0] != wantVX0 {
			log.Fatalf("restart mismatch: n=%d want %d, x0=%v want %v", len(x), wantN, x[0], wantX0)
		}
		fmt.Printf("restarted from checkpoint: %d electrons restored bit-identically ✔\n", len(x))
		fmt.Printf("(only the LAST checkpoint is on disk — iteration 0 was overwritten in place)\n")
	})

	var durableSave float64
	if tier != nil {
		// Same workload, but every epoch close waits for PFS durability.
		fmt.Println("\n=== staged run (PFS-durable checkpoints, burst_durability = \"pfs\") ===")
		durableToml := "burst_durability = \"pfs\"\n" + toml
		durableSave, _, _, _, _ = checkpointRun(k, env, tier, "/scratch/checkpoint-pfs.bp4", durableToml)
		fmt.Printf("\navg checkpoint cost: buffered-durable %.1f µs vs PFS-durable %.1f µs (%.0fx)\n",
			1e6*bufferedSave, 1e6*durableSave, durableSave/bufferedSave)
		fmt.Println("buffered saves return at NVMe speed; the drain overlaps the next compute phase")
	}

	if *autoInterval {
		autoIntervalRun(k, env, tier, toml, *mtbf, bufferedSave, durableSave, drainSec)
	}
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
func autoIntervalRun(k *sim.Kernel, env *posix.Env, tier *burst.Tier, toml string, mtbfSec, bufferedSave, durableSave, drainSec float64) {
	costs := ckptopt.Costs{
		MTBFSec: mtbfSec,
		// The demo's recovery path is the killRun one: staged state
		// survives and redrains.
		SurvivalProb:       1,
		DurableSaveSec:     durableSave,
		BufferedRestartSec: drainSec, // redrain before the restart reads
		DurableLagSec:      drainSec,
	}
	if tier != nil {
		costs.BufferedSaveSec = bufferedSave
	} else {
		// Without staging the timing pass measured direct PFS saves.
		costs.DurableSaveSec = bufferedSave
	}
	plan, err := ckptopt.Optimize(costs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n=== auto-interval: ckptopt on the measured save costs (accelerated MTBF %.3f s) ===\n", mtbfSec)
	for _, l := range plan.Levels() {
		fmt.Printf("%-8s save %7.1f µs → checkpoint every %.2f ms (Young %.2f, Daly %.2f, waste %.2f%%)\n",
			l.Name, 1e6*l.SaveSec, 1e3*l.NumericSec, 1e3*l.YoungSec, 1e3*l.DalySec, 100*l.WasteAtOpt)
	}
	rec := plan.Recommended()
	every := int(rec.NumericSec/stepComputeSec + 0.5)
	if every < 1 {
		every = 1
	}
	fmt.Printf("recommended: %s checkpoints every %d steps (at %.0f µs compute/step)\n",
		rec.Name, every, 1e6*stepComputeSec)

	// Rerun the loop at the recommended cadence.
	w := mpisim.NewWorld(k, 1, nil)
	w.Run(func(r *mpisim.Rank) {
		host := openpmd.Host{Proc: r.Proc, Env: env, Comm: r.Comm}
		series, err := openpmd.NewSeries(host, "/scratch/checkpoint-auto.bp4", openpmd.AccessCreate, toml)
		if err != nil {
			log.Fatal(err)
		}
		s, err := newSim(42)
		if err != nil {
			log.Fatal(err)
		}
		t0 := r.Proc.Now()
		saves := 0
		for step := 1; step <= 300; step++ {
			r.Proc.Sleep(stepComputeSec)
			if err := s.Advance(); err != nil {
				log.Fatal(err)
			}
			if step%every == 0 {
				if err := saveCheckpoint(series, s); err != nil {
					log.Fatal(err)
				}
				saves++
			}
		}
		series.Close()
		if tier != nil {
			tier.WaitDrained(r.Proc)
		}
		fmt.Printf("ran 300 steps at the recommended cadence: %d checkpoint(s), %.1f ms virtual time, "+
			"at most %d step(s) ever at risk\n", saves, 1e3*float64(r.Proc.Now()-t0), every)
	})
}

func mustN(s *pic.Sim) int {
	e, _ := s.SpeciesByName("e")
	return e.N()
}
