package core

import (
	"fmt"
	"testing"

	"picmcio/internal/mpisim"
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
// constant number of objects whatever the number of components: the
// handles, their dimension storage and the engine's selection buffer are
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
	// shared), of which 11 are a rank's own handles (adaptor, slots,
	// series, two attributes, backend, IO, engine, three communicators), 2
	// this rig's POSIX environment and the rest this small world's
	// per-world objects spread over 16 ranks.
	if one > 19 {
		t.Errorf("opening and closing an adaptor allocates %.2f objects per rank, want at most 19", one)
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
	// The options, the IO settings every rank's IO is forked from, the
	// schema's paths in iteration 0 and, per component, its record's path
	// and its own. (The names were parsed before the world existed.)
	if want := 3 + 2*comps; one != want {
		t.Errorf("a world of one rank built %d memo values, want %d", one, want)
	}
	if sixteen != one {
		t.Errorf("a world of 16 ranks built %d memo values, a world of one %d", sixteen, one)
	}
}
