package core

import (
	"runtime"
	"testing"
)

// BenchmarkAdaptorSave is the aggr_sweep cell of the end-to-end benchmark
// cut down to the adaptor: 16 nodes × 128 ranks save ten volume-mode
// components as iteration 0 three times through 16 aggregators. It counts
// every heap object the run allocates, adaptor open and close included,
// per rank and epoch.
func BenchmarkAdaptorSave(b *testing.B) {
	const ranks, aggregators, comps, epochs = 16 * 128, 16, 10, 3
	var before, after runtime.MemStats
	for i := 0; i < b.N; i++ {
		runtime.ReadMemStats(&before)
		saveEpochs(b, ranks, aggregators, comps, epochs)
		runtime.ReadMemStats(&after)
	}
	perRankEpoch := float64(after.Mallocs-before.Mallocs) / (ranks * epochs)
	b.ReportMetric(perRankEpoch, "allocs_per_rank_epoch")
	// The gated form, bigger is better: rank-epochs saved per thousand
	// allocations.
	b.ReportMetric(1000/perRankEpoch, "rank_epochs_per_kalloc_ratchet")
}
