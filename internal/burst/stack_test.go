package burst_test

import (
	"testing"

	"picmcio/internal/burst"
	"picmcio/internal/lustre"
	"picmcio/internal/mpisim"
	"picmcio/internal/openpmd"
	"picmcio/internal/pfs"
	"picmcio/internal/posix"
	"picmcio/internal/sim"
)

// writeIteration runs a 2-rank openPMD save through a staged environment
// and reports the tier's pending bytes at the instant the iteration close
// (ADIOS2 EndStep) returned on rank 0.
func writeIteration(t *testing.T, toml string, drainRate float64) (pendingAtClose int64, tier *burst.Tier) {
	t.Helper()
	k := sim.NewKernel()
	back := lustre.New(k, lustre.DefaultParams())
	tier = burst.NewTier(k, burst.Spec{
		CapacityBytes: 1 << 30, Rate: 10e9, DrainRate: drainRate,
		Policy: burst.PolicyEpochEnd,
	}, back)
	w := mpisim.NewWorld(k, 2, nil)
	w.Run(func(r *mpisim.Rank) {
		env := &posix.Env{
			FS:     back,
			Stage:  tier.FS(),
			Client: &pfs.Client{Node: 0, NIC: sim.NewServer(k, 25e9, 0)},
			Rank:   r.ID,
		}
		host := openpmd.Host{Proc: r.Proc, Env: env, Comm: r.Comm}
		series, err := openpmd.NewSeries(host, "/scratch/out.bp4", openpmd.AccessCreate, toml)
		if err != nil {
			t.Error(err)
			return
		}
		it, err := series.WriteIteration(0)
		if err != nil {
			t.Error(err)
			return
		}
		rc := it.Particles("e").Record("position").Component("x")
		rc.ResetDataset(openpmd.Dataset{Type: openpmd.Float64, Extent: []uint64{2 << 20}})
		if err := rc.StoreChunk([]uint64{uint64(r.ID) << 20}, []uint64{1 << 20}, nil); err != nil {
			t.Error(err)
			return
		}
		if err := it.Close(); err != nil {
			t.Error(err)
			return
		}
		if r.ID == 0 {
			pendingAtClose = tier.Stats().PendingBytes
		}
		if err := series.Close(); err != nil {
			t.Error(err)
		}
	})
	return pendingAtClose, tier
}

// TestDrainOrderingVsEpochClose pins the two durability contracts: with
// the default buffered durability, iteration close returns while write-back
// is still pending (the drain overlaps whatever comes next); with
// burst_durability = "pfs", close does not return until every staged byte
// of the step is on the parallel file system.
func TestDrainOrderingVsEpochClose(t *testing.T) {
	const slowDrain = 50e6 // make write-back visibly slower than absorb

	buffered, tier := writeIteration(t, "burst_buffer = true\n", slowDrain)
	if buffered == 0 {
		t.Error("buffered durability: EndStep must return before write-back completes")
	}
	if st := tier.Stats(); st.PendingBytes != 0 {
		t.Errorf("after the run the tier must have drained, pending %d", st.PendingBytes)
	}

	pfsDurable, _ := writeIteration(t, "burst_buffer = true\nburst_durability = \"pfs\"\n", slowDrain)
	if pfsDurable != 0 {
		t.Errorf("pfs durability: EndStep returned with %d bytes still buffered", pfsDurable)
	}
}

// TestStagingIsOptIn checks that a staged environment without the
// burst_buffer option keeps writing directly to the PFS.
func TestStagingIsOptIn(t *testing.T) {
	_, tier := writeIteration(t, "", 50e6)
	if st := tier.Stats(); st.AbsorbedBytes != 0 {
		t.Errorf("tier absorbed %d bytes without burst_buffer = true", st.AbsorbedBytes)
	}
}
