// Ionization: the paper's §III-C physics scenario — an unbounded,
// unmagnetized plasma of electrons, D+ ions and D neutrals in which
// neutrals ionize against the electron background, so the neutral density
// decays as ∂n/∂t = −n·nₑ·R. The example runs the PIC MC kernel (field
// solver off, exactly as the paper's test), writes the density profile of
// each species per diagnostic epoch to an openPMD BP4 series, and checks
// the decay against theory.
package main

import (
	"fmt"
	"io"
	"math"
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
// exit status: 0, 1 on an error or a decay off theory, 2 on any argument.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) != 0 {
		fmt.Fprintln(stderr, "usage: ionization (no arguments)")
		return 2
	}
	k := sim.NewKernel()
	fs := lustre.New(k, lustre.DefaultParams())
	w := mpisim.NewWorld(k, 2, mpisim.AlphaBeta(1e-6, 1.0/10e9))
	// A rank that fails records its error and ends; the first one
	// recorded is reported once the kernel has run.
	var err error
	w.Run(func(r *mpisim.Rank) {
		if e := ionize(stdout, r, fs); e != nil && err == nil {
			err = e
		}
	})
	if err != nil {
		fmt.Fprintln(stderr, "ionization:", err)
		return 1
	}
	return 0
}

const (
	n0    = 20000 // macro-particles per species
	rate  = 2e-15 // ionization rate coefficient R (m³/s)
	steps = 400
)

// ionize is one rank's run.
func ionize(stdout io.Writer, r *mpisim.Rank, fs *lustre.FS) error {
	s, err := pic.New(pic.Params{
		Cells: 100, Length: 1.0, Dt: 1e-9, Seed: 7 + uint64(r.ID),
		IonizationRate: rate,
		// The paper's test does not use the field solver and smoother.
		UseFieldSolver: false,
	}, []pic.SpeciesSpec{
		{Name: "e", Mass: pic.ElectronMass, Charge: -pic.ElementaryQ, NParticles: n0, Density: 1e18, Temperature: 10},
		{Name: "D+", Mass: pic.DeuteronMass, Charge: pic.ElementaryQ, NParticles: n0, Density: 1e18, Temperature: 1},
		{Name: "D", Mass: pic.DeuteronMass, Charge: 0, NParticles: n0, Density: 1e18, Temperature: 0.1},
	})
	if err != nil {
		return err
	}
	e, _ := s.SpeciesByName("e")
	d, _ := s.SpeciesByName("D")
	ne := float64(e.N()) * e.Weight / s.P.Length

	host := openpmd.Host{Proc: r.Proc, Env: &posix.Env{FS: fs, Client: &pfs.Client{}, Rank: r.ID}, Comm: r.Comm}
	series, err := openpmd.NewSeries(host, "/out/ionization.bp4", openpmd.AccessCreate, "")
	if err != nil {
		return err
	}

	for step := 1; step <= steps; step++ {
		if err := s.Advance(); err != nil {
			return err
		}
		if step%100 != 0 {
			continue
		}
		// Diagnostic epoch: write each species' density profile.
		it, err := series.WriteIteration(uint64(step))
		if err != nil {
			return err
		}
		for _, sp := range s.Species {
			prof := s.DensityProfile(sp)
			rc := it.Meshes("density_" + sp.Name).Component(openpmd.Scalar)
			cells := uint64(len(prof))
			rc.ResetDataset(openpmd.Dataset{Type: openpmd.Float64, Extent: []uint64{cells * uint64(r.Comm.Size())}})
			rc.StoreChunk([]uint64{cells * uint64(r.Comm.Rank())}, []uint64{cells}, prof)
		}
		it.Close()
		if r.ID == 0 {
			frac := float64(d.N()) / n0
			theory := math.Exp(-ne * rate * float64(step) * s.P.Dt)
			fmt.Fprintf(stdout, "step %4d: neutral fraction %.4f (theory %.4f, err %+.2f%%)\n",
				step, frac, theory, 100*(frac-theory)/theory)
		}
	}
	series.Close()
	if r.ID == 0 {
		frac := float64(d.N()) / n0
		theory := math.Exp(-ne * rate * steps * s.P.Dt)
		if math.Abs(frac-theory)/theory > 0.2 {
			return fmt.Errorf("decay deviates from theory: %.4f vs %.4f", frac, theory)
		}
		fmt.Fprintln(stdout, "ionization decay matches ∂n/∂t = −n·nₑ·R within tolerance ✔")
	}
	return nil
}
