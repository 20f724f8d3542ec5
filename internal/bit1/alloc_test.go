package bit1

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"picmcio/internal/darshan"
	"picmcio/internal/mpisim"
	"picmcio/internal/openpmd"
	"picmcio/internal/pfs"
	"picmcio/internal/posix"
	"picmcio/internal/sim"
	"picmcio/internal/units"
	"picmcio/internal/workload"
)

// testSchema is a schema of comps particle components.
func testSchema(tb testing.TB, comps int) *openpmd.Schema {
	names := make([]openpmd.ComponentName, comps)
	for i := range names {
		names[i] = particle(fmt.Sprintf("s%d", i), "momentum", "x")
	}
	return schemaOf(tb, names...)
}

// saveEpochs runs the BIT1 write pattern on a fresh world: every rank
// opens an adaptor of comps components on a BP4 series, then for each
// epoch accumulates them in volume mode and saves them as iteration 0. It
// returns the world, for its memo counter.
func saveEpochs(tb testing.TB, ranks, aggregators, comps, epochs int) *mpisim.World {
	tb.Helper()
	schema := testSchema(tb, comps)
	toml := fmt.Sprintf("[adios2.engine.parameters]\nNumAggregators = \"%d\"\nProfile = \"off\"\n", aggregators)
	rg := newRig(ranks)
	rg.w.Run(func(r *mpisim.Rank) {
		ad, err := newAdaptor(rg.host(r), "/alloc.bp4", toml, schema)
		if err != nil {
			tb.Error(err)
			return
		}
		for e := 0; e < epochs; e++ {
			for i := 0; i < comps; i++ {
				ad.accumulateVolume(i, 1000)
			}
			if err := ad.saveIteration(0); err != nil {
				tb.Error(err)
				return
			}
		}
		if err := ad.close(); err != nil {
			tb.Error(err)
		}
	})
	return rg.w
}

// From the second save on, a rank's SaveIteration(0) allocates a small
// constant number of objects whatever the number of components: the row
// of numbers, the component set over it and the engine's step buffers are
// all kept from the first. The whole stack beneath the adaptor is counted
// (the exscan, the engine's EndStep gathers, the simulated file system),
// as the difference between runs that differ only in their epoch count.
func TestSteadyStateSaveAllocations(t *testing.T) {
	const ranks, aggregators = 2 * 8, 2
	perRankEpoch := func(comps int) float64 {
		const short, long = 2, 6
		run := func(epochs int) float64 {
			return testing.AllocsPerRun(5, func() { saveEpochs(t, ranks, aggregators, comps, epochs) })
		}
		return (run(long) - run(short)) / float64((long-short)*ranks)
	}
	ten, twenty := perRankEpoch(10), perRankEpoch(20)
	t.Logf("allocations per rank and steady-state epoch: %.2f with 10 components, %.2f with 20", ten, twenty)
	// Measured: 0.12 and 0.12 — per world and epoch, rank 0's md.idx record
	// and the file system's note of its md.0 write, over 16 ranks (1.0
	// while every collective made its rendezvous, contribution block and
	// result anew; 9.9 while collectives boxed every contribution; 157.9
	// and 299.9 while every save resolved every component again).
	// AllocsPerRun averages are whole numbers per world, hence the slack of
	// one object a world-epoch; the race detector allocates a few more.
	limit, slack := 0.19, 1.0/16
	if raceBuild {
		limit, slack = 0.5, 0.25
	}
	if ten > limit {
		t.Errorf("a steady-state SaveIteration allocates %.2f objects per rank, want at most %.2f", ten, limit)
	}
	if twenty > ten+slack {
		t.Errorf("doubling the components took a steady-state SaveIteration from %.2f to %.2f allocations per rank", ten, twenty)
	}
}

// Opening and closing an adaptor — series, engine, the communicator
// splits, the declared accumulators, no save — costs a rank a fixed
// number of objects, held here on 16 ranks. What the aggregator count
// adds is per aggregator, not per rank.
func TestOpenAllocations(t *testing.T) {
	const ranks = 2 * 8
	perRank := func(aggregators int) float64 {
		return testing.AllocsPerRun(5, func() { saveEpochs(t, ranks, aggregators, 10, 0) }) / ranks
	}
	// An empty world of the same size, to take spawning out.
	spawn := testing.AllocsPerRun(5, func() { newRig(ranks).w.Run(func(*mpisim.Rank) {}) }) / ranks
	one, two := perRank(1)-spawn, perRank(2)-spawn
	t.Logf("allocations per rank of an open and close: %.2f with 1 aggregator, %.2f with 2", one, two)
	// Measured: 7.5 and 7.9 (12.1 and 12.6 while a rank's own handles —
	// adaptor, its row of numbers, series, backend, IO, engine — were 6
	// objects, not slots of its communicator's blocks or fields of each
	// other; 16.3 and 16.8 while the two
	// attributes and the split communicators' handles were objects of
	// their own; 28.8 and 30.1 before the settings were shared), of which
	// 0 are a rank's own handles, 2 this rig's POSIX environment and the
	// rest this small world's per-world objects — the blocks and the
	// test's schema among them — spread over 16 ranks. The bound is that
	// + 1, and one more for what the race detector allocates.
	limit := 8.5
	if raceBuild {
		limit++
	}
	if one > limit {
		t.Errorf("opening and closing an adaptor allocates %.2f objects per rank, want at most %.1f", one, limit)
	}
	if two > one+1 {
		t.Errorf("a second aggregator took an open and close from %.2f to %.2f allocations per rank", one, two)
	}
}

// openPMDRun is a BIT1 run of one output epoch in openPMD mode, at the
// paper's sizing spread over comps components.
func openPMDRun(aggregators, comps int) Config {
	cfg := Config{
		Deck:           InputDeck{DatFile: "bit1", LastStep: 100, MVFlag: 1, MVStep: 100, DMPStep: 100},
		Sizing:         workload.Default(),
		OutDir:         "/out",
		Mode:           IOOpenPMD,
		OpenPMDOptions: fmt.Sprintf("[adios2.engine.parameters]\nNumAggregators = \"%d\"\nProfile = \"off\"\n", aggregators),
	}
	cfg.Sizing.NVars = comps
	return cfg
}

// What is the same on every rank is built by the first rank that asks: a
// world of sixteen ranks builds exactly what a world of one does, so no
// other rank parsed or formatted anything.
func TestOnlyTheFirstRankResolves(t *testing.T) {
	builds := func(ranks, aggregators int) int {
		cfg := openPMDRun(aggregators, 10)
		rg := newRig(ranks)
		rg.w.Run(func(r *mpisim.Rank) {
			env := &posix.Env{FS: rg.fs, Client: &pfs.Client{}, Rank: r.ID}
			if err := Run(cfg, RankEnv{Rank: r, Env: env}); err != nil {
				t.Error(err)
			}
		})
		return rg.w.MemoBuilds()
	}
	one, sixteen := builds(1, 1), builds(16, 2)
	// Three, whatever the number of components: the run's plan (schedule,
	// paths, schema and sizes), the ADIOS2 settings of the TOML options
	// every rank's IO is forked from, and what the schema resolves to in
	// iteration 0 — its components' paths and the ADIOS2 variable set of
	// those names, one value.
	if one != 3 {
		t.Errorf("a world of one rank built %d memo values, want 3", one)
	}
	if sixteen != one {
		t.Errorf("a world of 16 ranks built %d memo values, a world of one %d", sixteen, one)
	}
}

// totalAlloc reports the bytes fn allocates, as the least of a few runs:
// the runtime's own background allocations only ever add.
func totalAlloc(fn func()) float64 {
	least := math.Inf(1)
	for i := 0; i < 5; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		least = min(least, float64(after.TotalAlloc-before.TotalAlloc))
	}
	return least
}

// TestOpenAllocations counts objects and never noticed that four of them
// were 2.3 KiB: this one counts bytes. What a rank allocates to open an
// adaptor, declare its components, save them once and close is a fixed
// sum plus a few words per component — the row (extent, offset, count,
// volume accumulator) and an exscan entry, 40 bytes; a volume-mode put
// records nothing — and no second copy of any of them.
func TestRankFootprint(t *testing.T) {
	const ranks, aggregators = 2 * 8, 2
	spawn := totalAlloc(func() { newRig(ranks).w.Run(func(*mpisim.Rank) {}) })
	perRank := func(comps int) float64 {
		return (totalAlloc(func() { saveEpochs(t, ranks, aggregators, comps, 1) }) - spawn) / ranks
	}
	ten, twenty := perRank(10), perRank(20)
	perComp := (twenty - ten) / 10
	t.Logf("bytes per rank of open + first save + close: %.0f with 10 components, %.0f with 20: %.1f per extra component", ten, twenty, perComp)
	// Measured (go1.24): 2488, 3138 and 65.0, of which 51 are the rank's
	// own and the rest this small world's per-component objects — names,
	// paths, the exscan's result — spread over 16 ranks; 2736, 3706 and
	// 97.0 while a volume-mode put kept a put record and a selection
	// snapshot, and a rank two step buffers for them; 2626 while a
	// rank's handles were objects of their own, not slots of blocks that
	// its world keeps, with their bookkeeping, until it ends; 2560 before the
	// engine held a staged environment by value. The 2560 counts
	// the rendezvous every communicator keeps once it has run a collective
	// of a kind (2517 while each call made its own); it was 5748, 10138 and
	// 439 while the adaptor, openPMD and ADIOS2 each kept the numbers in
	// handles of their own, and 2680 with a 352-byte engine and two split
	// handles a rank. The bounds are 2488 + 4.5 % and 65.0 + 10.8 %.
	tenLimit, perCompLimit := 2600.0, 72.0
	if raceBuild {
		// 2504 to 2602 and 66.6 to 79.8 there, run to run (2670 to 2760
		// and 97.5 to 110.8 under the bounds of 2770 and 120 while a
		// volume put kept its records): the detector allocates too, and
		// as many bytes whatever the rank's own.
		tenLimit, perCompLimit = 2680, 88
	}
	if ten > tenLimit {
		t.Errorf("open + first save + close of 10 components allocates %.0f bytes per rank, want at most %.0f", ten, tenLimit)
	}
	if perComp > perCompLimit {
		t.Errorf("an extra component costs a rank %.1f bytes, want at most %.0f", perComp, perCompLimit)
	}
}

// padFrame is what one level of underPad adds to a rank's stack: its
// array, the return address and the saved frame pointer, rounded as the
// compiler lays it out (go tool objdump, go1.24 amd64).
const padFrame = 128 + 24

// underPad calls fn levels frames deeper.
//
//go:noinline
func underPad(fn func(), levels int) byte {
	if levels == 0 {
		fn()
		return 0
	}
	var pad [128]byte
	pad[levels] = 1
	return underPad(fn, levels-1) + pad[len(pad)-1-levels]
}

// parkedStack reports the most goroutine stack per rank that a BIT1 run
// of cfg holds at any of a few instants spread over it: the real chain
// from the launcher's closure — which, like experiments.RunBIT1's, holds a
// copy of the config to call Run with — through Run to everything a rank
// parks under, each rank padLevels frames of underPad deeper. In openPMD
// mode nearly all of a run is the aggregators' write of its one epoch,
// where every other rank is parked in EndStep; a stack that grew earlier,
// in the open's splits, has not shrunk by then. In the original mode a
// rank parks in its own writes, under the stream it holds on its stack.
func parkedStack(tb testing.TB, cfg Config, ranks, padLevels int) float64 {
	// run reports when, in virtual time, the job ended; observe, if any,
	// runs in a process of its own at each of the instants.
	run := func(instants []sim.Time, observe func()) sim.Time {
		rg := newRig(ranks)
		if observe != nil {
			rg.k.Spawn("observer", func(p *sim.Proc) {
				for _, at := range instants {
					p.SleepUntil(at)
					observe()
				}
			})
		}
		col := darshan.NewCollector()
		rg.w.Run(func(r *mpisim.Rank) {
			underPad(func() {
				env := &posix.Env{FS: rg.fs, Client: &pfs.Client{}, Rank: r.ID, Monitor: col}
				if err := Run(cfg, RankEnv{Rank: r, Env: env}); err != nil {
					tb.Error(err)
				}
			}, padLevels)
		})
		return rg.k.Now()
	}
	// The kernel is deterministic: the second run is where the first was.
	end := run(nil, nil)
	instants := make([]sim.Time, 8)
	for i := range instants {
		instants[i] = end * sim.Time(i+1) / sim.Time(len(instants)+1)
	}
	var before, m runtime.MemStats
	var most uint64
	// End the carriers the first run left idle, with their grown stacks,
	// and return those: the second run's ranks start on fresh goroutines.
	sim.NewKernel().Run()
	runtime.GC()
	runtime.ReadMemStats(&before)
	run(instants, func() {
		runtime.ReadMemStats(&m)
		most = max(most, m.StackInuse)
	})
	if most == 0 {
		tb.Fatal("the observer never ran")
	}
	return float64(most-before.StackInuse) / float64(ranks)
}

// A rank parked in EndStep — where every rank of a world is while its
// aggregator writes — or in an original-mode write fits the 4 KiB stack a
// goroutine gets after its first growth: one frame too fat anywhere
// between World.Spawn and a park (the open's split lies deepest, then
// EndStep's gather; a Put no longer parks) and every rank doubles to
// 8 KiB and never shrinks, which is then what a simulated rank weighs.
// The levels of padding a rank has room for are a fence: a frame that
// grows on the way to a park costs one.
func TestParkedRankStack(t *testing.T) {
	if raceBuild {
		t.Skip("frames are fatter under the race detector")
	}
	const ranks = 512
	original := Config{
		Deck:   InputDeck{DatFile: "bit1", LastStep: 100, MVFlag: 1, MVStep: 100, DMPStep: 100},
		Sizing: workload.Default(), OutDir: "/out", Mode: IOOriginal, StdioOverhead: 1e-5,
	}
	original.Sizing.CheckpointTotalBytes = 32 * units.MiB // 16 writes a rank
	for _, tc := range []struct {
		name   string
		cfg    Config
		levels int // the fewest levels of padding a rank must have room for
	}{{"openpmd", openPMDRun(4, 10), 6}, {"original", original, 5}} {
		t.Run(tc.name, func(t *testing.T) {
			// StackInuse does not grow for a rank that takes up the stack
			// of an exited goroutine, and the runtime keeps those on a
			// free list per P that runtime.GC leaves alone. On one P every
			// rank is made and exits on that list, so what a run reuses
			// follows from the test's own runs; on two, a kernel goroutine
			// preempted and stolen under CPU contention split the ranks
			// between the lists and moved a reading by a level of padding.
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			// The bound holds for a single run as it comes, collector on.
			perRank := parkedStack(t, tc.cfg, ranks, 0)
			t.Logf("%s: %.2f KiB of stack per parked rank", runtime.Version(), perRank/1024)
			// Measured (go1.24.0 amd64): 4.00 in openPMD mode and 3.56 to
			// 4.00 in the original, the spread being the stacks the process
			// held before the run; 8.06 with Engine.EndStep's frame at 760
			// bytes and bit1's 200 fatter, as they were.
			if perRank > 4.5*1024 {
				t.Fatalf("a parked rank holds %.2f KiB of stack, want at most 4.5", perRank/1024)
			}
			// The levels are read from the least of three runs with no
			// collection, which would shrink a stack or start a worker's:
			// the first of the three finds fewer exited goroutines' stacks
			// to take up than the two after it.
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			fits := func(padLevels int) bool {
				least := parkedStack(t, tc.cfg, ranks, padLevels)
				for range 2 {
					least = min(least, parkedStack(t, tc.cfg, ranks, padLevels))
				}
				return least <= 4.5*1024
			}
			// How much fatter the chain's frames may grow before that: the
			// most levels of padding under which a rank still fits.
			lo, hi := 0, 8 // fits at lo; not known to at hi
			for lo < hi {
				mid := (lo + hi + 1) / 2
				if fits(mid) {
					lo = mid
				} else {
					hi = mid - 1
				}
			}
			// openPMD: 912 to 1064 under a coroutine's yield (760 to 912
			// while Run's frame held the memo's copies of the config, and
			// while the open's split pair sat under a helper frame); 608
			// to 760 under chanrecv and gopark. Original: 912 to 1064 under
			// the step loop both modes share; 760 to 912 under a loop of
			// its own, 16 bytes fatter; 608 to 760 with a stdio stream in
			// place of the bare descriptor; with the stream and the copies
			// still in Run's frame, 456 to 608 — too little for the deeper
			// launchers of experiments and the benchmark, whose ranks
			// doubled to 8 KiB.
			t.Logf("%d to %d bytes of frames to spare", lo*padFrame, (lo+1)*padFrame)
			if lo < tc.levels {
				t.Errorf("a parked rank has room for %d levels of padding, want at least %d: a frame on its chain grew", lo, tc.levels)
			}
		})
	}
}
