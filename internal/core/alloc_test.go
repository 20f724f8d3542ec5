package core

import (
	"fmt"
	"testing"

	"picmcio/internal/mpisim"
)

// saveEpochs runs the BIT1 write pattern on a fresh world: every rank
// opens an adaptor on a BP4 series, then for each epoch accumulates comps
// components in volume mode and saves them as iteration 0. It returns the
// world, for its memo counter.
func saveEpochs(tb testing.TB, ranks, aggregators, comps, epochs int) *mpisim.World {
	tb.Helper()
	names := make([]string, comps)
	for i := range names {
		names[i] = fmt.Sprintf("s%d/momentum/x", i)
	}
	toml := fmt.Sprintf("[adios2.engine.parameters]\nNumAggregators = \"%d\"\nProfile = \"off\"\n", aggregators)
	rg := newRig(ranks)
	rg.w.Run(func(r *mpisim.Rank) {
		ad, err := NewAdaptor(rg.host(r), "/alloc.bp4", toml)
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
	// Measured: 9.9 and 9.9, all of it in the exscan and the EndStep
	// gathers; resolving every component again at each save read 157.9 and
	// 299.9. AllocsPerRun averages are whole numbers, hence the slack of 1.
	if ten > 16 {
		t.Errorf("a steady-state SaveIteration allocates %.2f objects per rank, want at most 16", ten)
	}
	if twenty > ten+1 {
		t.Errorf("doubling the components took a steady-state SaveIteration from %.2f to %.2f allocations per rank", ten, twenty)
	}
}

// What is the same on every rank — the parsed TOML options, the parsed
// component names, the openPMD path strings — is built by the first rank
// that asks: a world of sixteen ranks builds exactly what a world of one
// does, so no other rank parsed or formatted anything.
func TestOnlyTheFirstRankResolves(t *testing.T) {
	const comps = 10
	one := saveEpochs(t, 1, 1, comps, 2).MemoBuilds()
	sixteen := saveEpochs(t, 16, 2, comps, 2).MemoBuilds()
	// The options, and per component its name, its record and itself.
	if want := 1 + 3*comps; one != want {
		t.Errorf("a world of one rank built %d memo values, want %d", one, want)
	}
	if sixteen != one {
		t.Errorf("a world of 16 ranks built %d memo values, a world of one %d", sixteen, one)
	}
}
