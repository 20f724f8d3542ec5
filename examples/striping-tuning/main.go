// Striping tuning: the §IV-E workflow as a user would run it — sweep
// Lustre stripe count × stripe size for a BIT1 openPMD+BP4+Blosc output
// on a simulated Dardel, print the write-time matrix, and report the best
// configuration (`lfs setstripe` parameters).
package main

import (
	"fmt"
	"log"

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

	t, sec, err := o.Fig9(nodes, sizes, counts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(t.Render())

	bi, bj := 0, 0
	for i := range sec {
		for j := range sec[i] {
			if sec[i][j] < sec[bi][bj] {
				bi, bj = i, j
			}
		}
	}
	fmt.Printf("best configuration: lfs setstripe -c %d -S %s  (%s per write)\n",
		counts[bj], units.Bytes(sizes[bi]), units.Seconds(sec[bi][bj]))
}
