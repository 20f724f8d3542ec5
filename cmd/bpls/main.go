// Command bpls demonstrates the rapid metadata extraction of the BP4
// format: it writes a small openPMD series on a simulated file system,
// then lists its steps and variables by reading only md.idx and md.0 —
// never touching the data subfiles — and reports how few bytes that took.
// It is a self-contained demonstration: it reads no host file and takes
// no arguments.
//
//	bpls
package main

import (
	"fmt"
	"io"
	"os"
	"strings"

	"picmcio/internal/adios2"
	"picmcio/internal/lustre"
	"picmcio/internal/mpisim"
	"picmcio/internal/pfs"
	"picmcio/internal/posix"
	"picmcio/internal/sim"
	"picmcio/internal/units"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command on its arguments and output streams. It returns the
// exit status: 0, 1 on an error, 2 on any argument.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) != 0 {
		fmt.Fprintln(stderr, "usage: bpls (no arguments: it lists the demonstration series it writes)")
		return 2
	}
	if err := demo(stdout); err != nil {
		fmt.Fprintln(stderr, "bpls:", err)
		return 1
	}
	return 0
}

// demo writes the series, lists it and reports what the listing read. A
// rank that fails records its error and ends; the first one recorded is
// returned once the kernel has run.
func demo(stdout io.Writer) error {
	k := sim.NewKernel()
	fs := lustre.New(k, lustre.DefaultParams())
	w := mpisim.NewWorld(k, 8, mpisim.AlphaBeta(1e-6, 1.0/10e9))
	var err error
	fail := func(e error) {
		if err == nil {
			err = e
		}
	}

	// Write a 3-step series with two variables across 8 ranks.
	w.Run(func(r *mpisim.Rank) {
		a := adios2.New()
		io := a.DeclareIO("demo")
		io.SetParameter("NumAggregators", "2")
		h := adios2.Host{Proc: r.Proc, Env: &posix.Env{FS: fs, Client: &pfs.Client{}, Rank: r.ID}, Comm: r.Comm}
		const slab = 1024
		pos, _ := io.DefineVariable("e/position/x", adios2.TypeFloat64,
			[]uint64{8 * slab}, []uint64{uint64(slab * r.ID)}, []uint64{slab})
		mom, _ := io.DefineVariable("e/momentum/x", adios2.TypeFloat64,
			[]uint64{8 * slab}, []uint64{uint64(slab * r.ID)}, []uint64{slab})
		e, err := io.Open(h, "/demo.bp4", adios2.ModeWrite)
		if err != nil {
			fail(err)
			return
		}
		vals := make([]float64, slab)
		for s := 0; s < 3; s++ {
			e.BeginStep(int64(s))
			e.PutFloat64s(pos, vals)
			e.PutFloat64s(mom, vals)
			e.EndStep()
		}
		e.Close()
	})
	if err != nil {
		return err
	}

	// List it, counting read traffic.
	w2 := mpisim.NewWorld(k, 1, nil)
	w2.Run(func(r *mpisim.Rank) {
		before := fs.TotalBytesRead()
		a := adios2.New()
		h := adios2.Host{Proc: r.Proc, Env: &posix.Env{FS: fs, Client: &pfs.Client{}}, Comm: r.Comm}
		e, err := a.DeclareIO("ls").Open(h, "/demo.bp4", adios2.ModeRead)
		if err != nil {
			fail(err)
			return
		}
		steps, _ := e.Steps()
		fmt.Fprintf(stdout, "File info:\n  of steps:     %d\n", len(steps))
		for _, s := range steps {
			vars, _ := e.VariablesAt(s)
			for _, v := range vars {
				fmt.Fprintf(stdout, "  step %d: %-9s %-20s shape=%v chunks=%d bytes=%s\n",
					s, v.Type, v.Name, v.Shape, v.Chunks, units.Bytes(v.Bytes))
			}
		}
		e.Close()
		var dataBytes int64
		fs.Namespace().WalkFiles("/demo.bp4", func(p string, n *pfs.Node) {
			if strings.HasPrefix(p, "/demo.bp4/data.") {
				dataBytes += n.Size
			}
		})
		fmt.Fprintf(stdout, "\nrapid metadata extraction: read %s of metadata; %s of data untouched\n",
			units.Bytes(int64(fs.TotalBytesRead()-before)), units.Bytes(dataBytes))
	})
	return err
}
