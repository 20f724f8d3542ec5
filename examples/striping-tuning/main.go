// Striping tuning: the §IV-E workflow as a user would run it — sweep
// Lustre stripe count × stripe size for a BIT1 openPMD+BP4+Blosc output
// on a simulated Dardel, print the write-time matrix, and report the best
// configuration (`lfs setstripe` parameters).
package main

import (
	"fmt"
	"log"

	"picmcio/internal/cluster"
	"picmcio/internal/experiments"
	"picmcio/internal/units"
)

func main() {
	o := experiments.Options{
		Seed:         1,
		RanksPerNode: 16, // laptop-scale sweep; raise to 128 for paper scale
		DiagEpochs:   1,
	}
	nodes := 8
	sizes := []int64{1 << 20, 4 << 20, 16 << 20}
	counts := []int{1, 4, 16, 48}

	t, err := o.Fig9(nodes, sizes, counts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(t.Render())

	// Re-run to find the minimum cell.
	ratio, err := experiments.MeasuredRatio("blosc")
	if err != nil {
		log.Fatal(err)
	}
	bestSec := -1.0
	var bestSize int64
	var bestCount int
	for _, size := range sizes {
		for _, count := range counts {
			sec, err := o.Fig9Cell(cluster.Dardel(), nodes, count, size, ratio)
			if err != nil {
				log.Fatal(err)
			}
			if bestSec < 0 || sec < bestSec {
				bestSec, bestSize, bestCount = sec, size, count
			}
		}
	}
	fmt.Printf("best configuration: lfs setstripe -c %d -S %s  (%s per write)\n",
		bestCount, units.Bytes(bestSize), units.Seconds(bestSec))
}
