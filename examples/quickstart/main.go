// Quickstart: run a small PIC MC simulation, write its particle data as
// an openPMD series through the ADIOS2 BP4 engine on a simulated Lustre
// file system, and read it back — the full public API in ~100 lines.
package main

import (
	"fmt"
	"log"

	"picmcio/examples/internal/pic"
	"picmcio/internal/lustre"
	"picmcio/internal/mpisim"
	"picmcio/internal/openpmd"
	"picmcio/internal/pfs"
	"picmcio/internal/posix"
	"picmcio/internal/sim"
)

func main() {
	const ranks = 4
	k := sim.NewKernel()
	fs := lustre.New(k, lustre.DefaultParams())
	w := mpisim.NewWorld(k, ranks, mpisim.AlphaBeta(1e-6, 1.0/10e9))

	// Phase 1: every rank evolves its slice of the plasma and writes one
	// openPMD iteration with its electron positions.
	w.Run(func(r *mpisim.Rank) {
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
			log.Fatal(err)
		}
		for step := 0; step < 50; step++ {
			if err := s.Advance(); err != nil {
				log.Fatal(err)
			}
		}
		e, _ := s.SpeciesByName("e")

		host := openpmd.Host{Proc: r.Proc, Env: &posix.Env{FS: fs, Client: &pfs.Client{}, Rank: r.ID}, Comm: r.Comm}
		series, err := openpmd.NewSeries(host, "/out/quickstart.bp4", openpmd.AccessCreate, `
[adios2.engine.parameters]
NumAggregators = "2"
`)
		if err != nil {
			log.Fatal(err)
		}
		it, err := series.WriteIteration(50)
		if err != nil {
			log.Fatal(err)
		}
		rc := it.Particles("e").Record("position").Component("x")
		local := int64(e.N())
		global := r.Comm.AllreduceI64(local, "sum")
		offset := r.Comm.ExscanI64(local)
		rc.ResetDataset(openpmd.Dataset{Type: openpmd.Float64, Extent: []uint64{uint64(global)}})
		if err := rc.StoreChunk([]uint64{uint64(offset)}, []uint64{uint64(local)}, e.X); err != nil {
			log.Fatal(err)
		}
		if err := it.Close(); err != nil {
			log.Fatal(err)
		}
		if err := series.Close(); err != nil {
			log.Fatal(err)
		}
		if r.ID == 0 {
			fmt.Printf("rank 0: wrote %d of %d electrons after %d PIC steps\n", local, global, s.Step)
		}
	})

	// Phase 2: read the series back and check the global array.
	w2 := mpisim.NewWorld(k, 1, nil)
	w2.Run(func(r *mpisim.Rank) {
		host := openpmd.Host{Proc: r.Proc, Env: &posix.Env{FS: fs, Client: &pfs.Client{}}, Comm: r.Comm}
		series, err := openpmd.NewSeries(host, "/out/quickstart.bp4", openpmd.AccessReadOnly, "")
		if err != nil {
			log.Fatal(err)
		}
		its, _ := series.Iterations()
		it, _ := series.ReadIteration(its[0])
		data, shape, err := it.Particles("e").Record("position").Component("x").Load()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("read back iteration %d: %d electron positions (global extent %v)\n",
			its[0], len(data), shape)
		fmt.Printf("virtual I/O time elapsed: %.6f s\n", float64(k.Now()))
		series.Close()
	})
}
