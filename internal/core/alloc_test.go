package core

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"picmcio/internal/mpisim"
	"picmcio/internal/sim"
)

// saveEpochs runs the BIT1 write pattern on a fresh world: every rank
// opens an adaptor on a BP4 series and declares comps components, then
// for each epoch accumulates them in volume mode and saves them as
// iteration 0. It returns the world, for its memo counter.
func saveEpochs(tb testing.TB, ranks, aggregators, comps, epochs int) *mpisim.World {
	tb.Helper()
	names := make([]string, comps)
	for i := range names {
		names[i] = fmt.Sprintf("s%d/momentum/x", i)
	}
	schema, err := NewSchema(names)
	if err != nil {
		tb.Fatal(err)
	}
	toml := fmt.Sprintf("[adios2.engine.parameters]\nNumAggregators = \"%d\"\nProfile = \"off\"\n", aggregators)
	rg := newRig(ranks)
	rg.w.Run(func(r *mpisim.Rank) {
		ad, err := NewAdaptor(rg.host(r), "/alloc.bp4", toml)
		if err == nil {
			err = ad.Declare(schema)
		}
		if err != nil {
			tb.Error(err)
			return
		}
		for e := 0; e < epochs; e++ {
			for _, name := range names {
				ad.AccumulateVolume(name, 1000)
			}
			if err := ad.SaveIteration(0); err != nil {
				tb.Error(err)
				return
			}
		}
		if err := ad.Close(); err != nil {
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
	// Measured: 1.0 and 1.0 — per world and epoch, the rendezvous and
	// contribution block of the exscan, the EndStep gathers and the barrier
	// (9.9 while collectives boxed every contribution; 157.9 and 299.9
	// while every save resolved every component again). AllocsPerRun
	// averages are whole numbers, hence the slack of 1.
	if ten > 2 {
		t.Errorf("a steady-state SaveIteration allocates %.2f objects per rank, want at most 2", ten)
	}
	if twenty > ten+1 {
		t.Errorf("doubling the components took a steady-state SaveIteration from %.2f to %.2f allocations per rank", ten, twenty)
	}
}

// Opening and closing an adaptor — series, engine, the three communicator
// splits, the declared accumulators, no save — costs a rank a fixed
// number of objects: the ratchet BenchmarkAdaptorSave's
// allocs_per_rank_open reports at scale, held here on 16 ranks. What the
// aggregator count adds is per aggregator, not per rank.
func TestOpenAllocations(t *testing.T) {
	const ranks = 2 * 8
	perRank := func(aggregators int) float64 {
		return testing.AllocsPerRun(5, func() { saveEpochs(t, ranks, aggregators, 10, 0) }) / ranks
	}
	// An empty world of the same size, to take spawning out.
	spawn := testing.AllocsPerRun(5, func() { newRig(ranks).w.Run(func(*mpisim.Rank) {}) }) / ranks
	one, two := perRank(1)-spawn, perRank(2)-spawn
	t.Logf("allocations per rank of an open and close: %.2f with 1 aggregator, %.2f with 2", one, two)
	// Measured: 17.1 and 17.6 (28.8 and 30.1 before the settings were
	// shared), of which 11 are a rank's own handles (adaptor, its row of
	// numbers, series, two attributes, backend, IO, engine, three
	// communicators), 2 this rig's POSIX environment and the rest this
	// small world's per-world objects spread over 16 ranks. The bound is
	// that + 1, and one more for what the race detector allocates (17.7 to
	// 18.1 under it).
	limit := 18.2
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

// What is the same on every rank — the parsed TOML options, the ADIOS2
// settings they resolve to, the openPMD path strings — is built by the
// first rank that asks: a world of sixteen ranks builds exactly what a
// world of one does, so no other rank parsed or formatted anything.
func TestOnlyTheFirstRankResolves(t *testing.T) {
	const comps = 10
	one := saveEpochs(t, 1, 1, comps, 2).MemoBuilds()
	sixteen := saveEpochs(t, 16, 2, comps, 2).MemoBuilds()
	// Three for the world: the parsed options, the IO settings every rank's
	// IO is forked from, and what the schema resolves to in iteration 0 (its
	// components' paths and the ADIOS2 variable set of those names, one
	// value). Two per component: its record's path and its own, kept one by
	// one so that a component named on its own finds the same strings. (The
	// names were parsed before the world existed.)
	if want := 3 + 2*comps; one != want {
		t.Errorf("a world of one rank built %d memo values, want %d", one, want)
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
// volume accumulator), a put record, a selection snapshot and an exscan
// entry, 72 bytes — and no second copy of any of them.
func TestRankFootprint(t *testing.T) {
	const ranks, aggregators = 2 * 8, 2
	spawn := totalAlloc(func() { newRig(ranks).w.Run(func(*mpisim.Rank) {}) })
	perRank := func(comps int) float64 {
		return (totalAlloc(func() { saveEpochs(t, ranks, aggregators, comps, 1) }) - spawn) / ranks
	}
	ten, twenty := perRank(10), perRank(20)
	perComp := (twenty - ten) / 10
	t.Logf("bytes per rank of open + first save + close: %.0f with 10 components, %.0f with 20: %.1f per extra component", ten, twenty, perComp)
	// Measured (go1.24): 2965, 4261 and 129.6, of which 83 are the rank's
	// own and the rest this small world's per-component objects — names,
	// paths, the exscan's result — spread over 16 ranks (85.7 on 256). It
	// was 5748, 10138 and 439 while the adaptor, openPMD and ADIOS2 each
	// kept the numbers in handles of their own. The bounds are those + 10 %.
	if ten > 3260 {
		t.Errorf("open + first save + close of 10 components allocates %.0f bytes per rank, want at most 3260", ten)
	}
	if perComp > 143 {
		t.Errorf("an extra component costs a rank %.1f bytes, want at most 143", perComp)
	}
}

// bit1Frames is what a BIT1 run holds between the launcher and the
// adaptor, which this package's rig does not push: experiments.RunBIT1's
// rank closure 544 bytes, bit1.Run 288, runOpenPMD 192 (go tool objdump,
// go1.24 amd64).
const bit1Frames = 1024

// underBIT1Frames calls fn that much deeper.
//
//go:noinline
func underBIT1Frames(fn func(), i int) byte {
	var pad [bit1Frames]byte
	pad[i] = 1
	fn()
	return pad[len(pad)-1-i]
}

// parkedStack reports the bytes of goroutine stack per rank while a world
// is parked in the EndStep of its first save, with the frames of a BIT1 run
// above the adaptor: an observer process wakes halfway through the save and
// reads what the runtime has in stacks.
func parkedStack(tb testing.TB, ranks, aggregators, comps int) float64 {
	names := make([]string, comps)
	for i := range names {
		names[i] = fmt.Sprintf("s%d/momentum/x", i)
	}
	schema, err := NewSchema(names)
	if err != nil {
		tb.Fatal(err)
	}
	toml := fmt.Sprintf("[adios2.engine.parameters]\nNumAggregators = \"%d\"\nProfile = \"off\"\n", aggregators)
	// run saves once and reports when, in virtual time, the save began and
	// ended; observe, if any, runs in a process of its own at observeAt.
	run := func(observeAt sim.Time, observe func()) (begin, end sim.Time) {
		rg := newRig(ranks)
		if observe != nil {
			rg.k.Spawn("observer", func(p *sim.Proc) {
				p.SleepUntil(observeAt)
				observe()
			})
		}
		rg.w.Run(func(r *mpisim.Rank) {
			underBIT1Frames(func() {
				ad, err := NewAdaptor(rg.host(r), "/parked.bp4", toml)
				if err == nil {
					err = ad.Declare(schema)
				}
				if err != nil {
					tb.Error(err)
					return
				}
				for _, name := range names {
					ad.AccumulateVolume(name, 100_000)
				}
				r.Comm.Barrier()
				if r.ID == 0 {
					begin = r.Proc.Now()
				}
				if err := ad.SaveIteration(0); err != nil {
					tb.Error(err)
				}
				if r.ID == 0 {
					end = r.Proc.Now()
				}
				if err := ad.Close(); err != nil {
					tb.Error(err)
				}
			}, r.ID%bit1Frames)
		})
		return begin, end
	}
	// The kernel is deterministic: the second run's save is where the
	// first's was, and nearly all of it is the aggregators' write.
	begin, end := run(0, nil)
	var before, during runtime.MemStats
	runtime.GC() // return the first run's stacks
	runtime.ReadMemStats(&before)
	run((begin+end)/2, func() { runtime.ReadMemStats(&during) })
	if during.StackInuse == 0 {
		tb.Fatal("the observer never ran")
	}
	return float64(during.StackInuse-before.StackInuse) / float64(ranks)
}

// A rank parked in EndStep — where every rank of a world is while its
// aggregator writes — fits the 4 KiB stack a goroutine gets after its
// first growth: one frame too fat anywhere between World.Spawn and a park
// (the open's splits and a Put's memcpy sleep lie deeper than EndStep's
// gathers) and every rank doubles to 8 KiB and never shrinks, which is
// then what a simulated rank weighs.
func TestParkedRankStack(t *testing.T) {
	if raceBuild {
		t.Skip("frames are fatter under the race detector")
	}
	perRank := parkedStack(t, 512, 4, 10)
	t.Logf("%s: %.2f KiB of stack per parked rank", runtime.Version(), perRank/1024)
	// Measured (go1.24.0 amd64): 4.06, and 8.06 with Engine.EndStep's frame
	// at 760 bytes and bit1's 200 fatter, as they were. It stays 4.06 up to
	// 300 more bytes of frames; a BIT1 run, with no test closures in its
	// chain, has 500 to spare.
	if perRank > 4.5*1024 {
		t.Errorf("a parked rank holds %.2f KiB of stack, want at most 4.5", perRank/1024)
	}
}
