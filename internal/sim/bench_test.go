package sim

import (
	"fmt"
	"testing"
	"time"
)

// spawnKernelScale spawns the staggered-burst timer workload: `nodes`
// drain workers, each sleeping through `epochs` bursts of `chunks`
// back-to-back chunk write-backs separated by a long compute phase, with
// start offsets staggered so only a few workers are mid-burst at any
// instant. This is the event shape a machine-scale staging run produces —
// thousands of pending far-future timers with a handful of active
// near-term ones — and the regime the run-to-completion fast path is
// built for. resumed, when non-nil, is called after every sleep returns
// (the fast/slow equivalence test records its resume trace there).
func spawnKernelScale(k *Kernel, nodes int, resumed func(p *Proc)) {
	const (
		chunks   = 32
		chunkSec = Duration(2e-6)
		epochs   = 3
	)
	period := Duration(nodes) * chunks * chunkSec * 4
	for i := 0; i < nodes; i++ {
		i := i
		k.Spawn(fmt.Sprintf("node%d", i), func(p *Proc) {
			sleep := func(d Duration) {
				p.Sleep(d)
				if resumed != nil {
					resumed(p)
				}
			}
			sleep(period * Duration(i) / Duration(nodes))
			for e := 0; e < epochs; e++ {
				for c := 0; c < chunks; c++ {
					sleep(chunkSec)
				}
				sleep(period - chunks*chunkSec)
			}
		})
	}
}

// kernelScaleRun runs the spawnKernelScale workload and returns the
// kernel's exact event count, the final virtual time (for the
// determinism check between the two legs) and the wall-clock seconds
// spent inside Run.
func kernelScaleRun(nodes int, fastPath bool) (events uint64, end Time, wallSec float64) {
	k := NewKernel()
	k.fastPath = fastPath
	spawnKernelScale(k, nodes, nil)
	start := time.Now()
	k.Run()
	wallSec = time.Since(start).Seconds()
	return k.Stats().Events(), k.Now(), wallSec
}

// BenchmarkKernelScale is the kernel's nodes × events/sec record at
// machine scale: at 256, 1024 and 4096 nodes it runs the staggered-burst
// workload on the slow path (every sleep through the queue and two
// coroutine switches — the fast path's reference implementation, which
// only in-package code can select) and on the kernel as shipped,
// reporting both rates and their ratio. The raw events/sec metrics are
// host-dependent context; the 4096-node speedup ratio is host-independent
// — both sides measured in the same process — and the acceptance floor
// below pins it at ≥ 5× wherever the benchmark runs, make profile
// included. The ratio fell, 17.7 → ≈ 10, when processes became
// coroutines: its denominator, the slow path, got 2.5× faster (≈ 1.4 →
// ≈ 3.5 Mev/s at 4096 nodes) and the fast path, which hands nothing
// off, did not.
func BenchmarkKernelScale(b *testing.B) {
	nodeCounts := []int{256, 1024, 4096}
	for i := 0; i < b.N; i++ {
		for _, nodes := range nodeCounts {
			slowEv, slowEnd, slowWall := kernelScaleRun(nodes, false)
			fastEv, fastEnd, fastWall := kernelScaleRun(nodes, true)
			if slowEnd != fastEnd {
				b.Fatalf("%d nodes: virtual end time diverged between paths: %v vs %v", nodes, slowEnd, fastEnd)
			}
			if slowEv != fastEv {
				b.Fatalf("%d nodes: event count diverged between paths: %d vs %d", nodes, slowEv, fastEv)
			}
			slowRate := float64(slowEv) / slowWall
			fastRate := float64(fastEv) / fastWall
			speedup := fastRate / slowRate
			b.ReportMetric(slowRate/1e6, fmt.Sprintf("slow_Mev_per_s_%d", nodes))
			b.ReportMetric(fastRate/1e6, fmt.Sprintf("fast_Mev_per_s_%d", nodes))
			if nodes == 4096 && speedup < 5 {
				b.Fatalf("4096 nodes: the fast path is %.1f× the slow path, acceptance floor is 5×", speedup)
			}
			b.ReportMetric(speedup, fmt.Sprintf("speedup_%d_x", nodes))
		}
	}
}
