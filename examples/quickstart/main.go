// Quickstart: run a small PIC MC simulation, write its particle data as
// an openPMD series through the ADIOS2 BP4 engine on a simulated Lustre
// file system, and read it back — the full public API in one file.
package main

import (
	"fmt"
	"io"
	"os"

	"picmcio/examples/internal/pic"
	"picmcio/internal/lustre"
	"picmcio/internal/mpisim"
	"picmcio/internal/openpmd"
	"picmcio/internal/pfs"
	"picmcio/internal/posix"
	"picmcio/internal/sim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the example on its arguments and output streams. It returns the
// exit status: 0, 1 on an error, 2 on any argument.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) != 0 {
		fmt.Fprintln(stderr, "usage: quickstart (no arguments)")
		return 2
	}
	if err := quickstart(stdout); err != nil {
		fmt.Fprintln(stderr, "quickstart:", err)
		return 1
	}
	return 0
}

// quickstart writes the series from 4 ranks and reads it back from one. A
// rank that fails records its error and ends; the first one recorded is
// returned once the kernel has run.
func quickstart(stdout io.Writer) error {
	const ranks = 4
	k := sim.NewKernel()
	fs := lustre.New(k, lustre.DefaultParams())
	w := mpisim.NewWorld(k, ranks, mpisim.AlphaBeta(1e-6, 1.0/10e9))
	var err error
	fail := func(e error) {
		if e != nil && err == nil {
			err = e
		}
	}

	// Phase 1: every rank evolves its slice of the plasma and writes one
	// openPMD iteration with its electron positions.
	w.Run(func(r *mpisim.Rank) { fail(writeElectrons(stdout, r, fs)) })
	if err != nil {
		return err
	}

	// Phase 2: read the series back and check the global array.
	w2 := mpisim.NewWorld(k, 1, nil)
	w2.Run(func(r *mpisim.Rank) {
		host := openpmd.Host{Proc: r.Proc, Env: &posix.Env{FS: fs, Client: &pfs.Client{}}, Comm: r.Comm}
		series, err := openpmd.NewSeries(host, "/out/quickstart.bp4", openpmd.AccessReadOnly, "")
		if err != nil {
			fail(err)
			return
		}
		its, _ := series.Iterations()
		it, _ := series.ReadIteration(its[0])
		data, shape, err := it.Particles("e").Record("position").Component("x").Load()
		if err != nil {
			fail(err)
			return
		}
		fmt.Fprintf(stdout, "read back iteration %d: %d electron positions (global extent %v)\n",
			its[0], len(data), shape)
		fmt.Fprintf(stdout, "virtual I/O time elapsed: %.6f s\n", float64(k.Now()))
		series.Close()
	})
	return err
}

// writeElectrons is one rank of phase 1.
func writeElectrons(stdout io.Writer, r *mpisim.Rank, fs *lustre.FS) error {
	s, err := pic.New(pic.Params{
		Cells: 64, Length: 1.0, Dt: 1e-9, Seed: uint64(r.ID) + 1,
		IonizationRate: 3e-15,
	}, []pic.SpeciesSpec{
		{Name: "e", Mass: pic.ElectronMass, Charge: -pic.ElementaryQ,
			NParticles: 2000, Density: 1e18, Temperature: 10},
		{Name: "D+", Mass: pic.DeuteronMass, Charge: pic.ElementaryQ,
			NParticles: 2000, Density: 1e18, Temperature: 1},
		{Name: "D", Mass: pic.DeuteronMass, Charge: 0,
			NParticles: 2000, Density: 1e18, Temperature: 0.1},
	})
	if err != nil {
		return err
	}
	for step := 0; step < 50; step++ {
		if err := s.Advance(); err != nil {
			return err
		}
	}
	e, _ := s.SpeciesByName("e")

	host := openpmd.Host{Proc: r.Proc, Env: &posix.Env{FS: fs, Client: &pfs.Client{}, Rank: r.ID}, Comm: r.Comm}
	series, err := openpmd.NewSeries(host, "/out/quickstart.bp4", openpmd.AccessCreate, `
[adios2.engine.parameters]
NumAggregators = "2"
`)
	if err != nil {
		return err
	}
	it, err := series.WriteIteration(50)
	if err != nil {
		return err
	}
	rc := it.Particles("e").Record("position").Component("x")
	local := int64(e.N())
	global := r.Comm.AllreduceI64(local, "sum")
	offset := r.Comm.ExscanI64(local)
	rc.ResetDataset(openpmd.Dataset{Type: openpmd.Float64, Extent: []uint64{uint64(global)}})
	if err := rc.StoreChunk([]uint64{uint64(offset)}, []uint64{uint64(local)}, e.X); err != nil {
		return err
	}
	if err := it.Close(); err != nil {
		return err
	}
	if err := series.Close(); err != nil {
		return err
	}
	if r.ID == 0 {
		fmt.Fprintf(stdout, "rank 0: wrote %d of %d electrons after %d PIC steps\n", local, global, s.Step)
	}
	return nil
}
