// Striping tuning: the §IV-E workflow as a user would run it — sweep
// Lustre stripe count × stripe size for a BIT1 openPMD+BP4+Blosc output
// on a simulated Dardel, print the write-time matrix, and report the best
// configuration (`lfs setstripe` parameters).
package main

import (
	"fmt"
	"io"
	"os"

	"picmcio/internal/experiments"
	"picmcio/internal/units"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the example on its arguments and output streams. It returns the
// exit status: 0, 1 on an error, 2 on any argument.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) != 0 {
		fmt.Fprintln(stderr, "usage: striping-tuning (no arguments)")
		return 2
	}
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
		fmt.Fprintln(stderr, "striping-tuning:", err)
		return 1
	}
	fmt.Fprintln(stdout, t.Render())

	bi, bj := 0, 0
	for i := range sec {
		for j := range sec[i] {
			if sec[i][j] < sec[bi][bj] {
				bi, bj = i, j
			}
		}
	}
	fmt.Fprintf(stdout, "best configuration: lfs setstripe -c %d -S %s  (%s per write)\n",
		counts[bj], units.Bytes(sizes[bi]), units.Seconds(sec[bi][bj]))
	return 0
}
