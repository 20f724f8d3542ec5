package bit1

import (
	"runtime"
	"testing"
)

// BenchmarkAdaptorSave is the aggr_sweep cell of the end-to-end benchmark
// cut down to the adaptor: 16 nodes × 128 ranks save ten volume-mode
// components as iteration 0 three times through 16 aggregators. It counts
// every heap object and byte the run allocates, adaptor open and close
// included, per rank and epoch — and, from a run of no epochs, what the
// open and close alone cost a rank — and what a rank parked in a save
// holds in stack.
func BenchmarkAdaptorSave(b *testing.B) {
	const ranks, aggregators, comps, epochs = 16 * 128, 16, 10, 3
	allocated := func(epochs int) (objects, bytes float64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		saveEpochs(b, ranks, aggregators, comps, epochs)
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs - before.Mallocs), float64(after.TotalAlloc - before.TotalAlloc)
	}
	var perRankEpoch, perRankOpen, bytesEpoch, bytesOpen, stack float64
	for i := 0; i < b.N; i++ {
		perRankEpoch, bytesEpoch = allocated(epochs)
		perRankOpen, bytesOpen = allocated(0)
		stack = parkedStack(b, ranks, aggregators, comps, 0)
	}
	perRankEpoch, bytesEpoch = perRankEpoch/(ranks*epochs), bytesEpoch/(ranks*epochs)
	perRankOpen, bytesOpen = perRankOpen/ranks, bytesOpen/ranks
	b.ReportMetric(perRankEpoch, "allocs_per_rank_epoch")
	b.ReportMetric(perRankOpen, "allocs_per_rank_open")
	b.ReportMetric(bytesEpoch, "bytes_per_rank_epoch")
	b.ReportMetric(bytesOpen, "bytes_per_rank_open")
	b.ReportMetric(stack/1024, "stack_KiB_per_rank")
	// The gated forms, bigger is better: rank-epochs saved, and ranks
	// opened, per thousand allocations.
	b.ReportMetric(1000/perRankEpoch, "rank_epochs_per_kalloc_ratchet")
	b.ReportMetric(1000/perRankOpen, "rank_opens_per_kalloc_ratchet")
}
