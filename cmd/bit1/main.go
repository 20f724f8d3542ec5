// Command bit1 runs one simulated BIT1 job on a chosen machine model and
// prints the Darshan-derived I/O summary — the quickest way to compare
// the original and openPMD output paths.
//
//	bit1 -machine dardel -nodes 10 -mode original
//	bit1 -machine dardel -nodes 10 -mode openpmd -aggregators 10 -compressor blosc
package main

import (
	"flag"
	"fmt"
	"os"

	"picmcio/internal/bit1"
	"picmcio/internal/cluster"
	"picmcio/internal/darshan"
	"picmcio/internal/experiments"
	"picmcio/internal/mpisim"
	"picmcio/internal/sim"
	"picmcio/internal/units"
	"picmcio/internal/workload"
)

func main() {
	def := experiments.Options{}.WithDefaults()
	machine := flag.String("machine", "dardel", "machine model: discoverer|dardel|vega")
	nodes := flag.Int("nodes", 1, "node allocation")
	ranksPerNode := flag.Int("ranks-per-node", def.RanksPerNode, "MPI ranks per node")
	mode := flag.String("mode", "openpmd", "I/O path: original|openpmd")
	aggregators := flag.Int("aggregators", 0, "BP4 aggregator count (0 = one per node)")
	compressor := flag.String("compressor", "", "compression operator: blosc|bzip2")
	deckPath := flag.String("input", "", "BIT1 input deck file (key = value)")
	diagEpochs := flag.Int("diag-epochs", def.DiagEpochs, "diagnostic epochs to simulate")
	seed := flag.Uint64("seed", 1, "simulation seed")
	flag.Parse()

	m, err := cluster.ByName(*machine)
	if err != nil {
		fatal(err)
	}

	deck := experiments.Options{DiagEpochs: *diagEpochs}.Deck()
	if *deckPath != "" {
		src, err := os.ReadFile(*deckPath)
		if err != nil {
			fatal(err)
		}
		if deck, err = bit1.ParseDeck(string(src)); err != nil {
			fatal(err)
		}
	}

	ioMode, err := bit1.ParseIOMode(*mode)
	if err != nil {
		fatal(err)
	}
	// A deck sets its own run length, and the original writer has no
	// aggregators and no compressor: set beside them, these flags are
	// mistakes, not ignored settings.
	flag.Visit(func(f *flag.Flag) {
		switch {
		case f.Name == "diag-epochs" && *deckPath != "":
			fatal(fmt.Errorf("-diag-epochs %s: the -input deck sets the run length", f.Value))
		case ioMode == bit1.IOOriginal && (f.Name == "aggregators" || f.Name == "compressor"):
			fatal(fmt.Errorf("-%s %s: an openPMD setting; -mode original has none", f.Name, f.Value))
		}
	})
	numAgg := *aggregators
	if numAgg < 0 {
		fatal(fmt.Errorf("-aggregators %d: want a count, or 0 for one per node", numAgg))
	}
	if numAgg == 0 {
		numAgg = *nodes
	}
	toml, err := experiments.BP4Options(numAgg, *compressor)
	if err != nil {
		fatal(err)
	}

	k := m.NewKernel(*nodes)
	sys, err := m.Build(k, *nodes, *seed)
	if err != nil {
		fatal(err)
	}
	col := darshan.NewCollector()
	w, envOf, err := sys.Launch(*ranksPerNode, col)
	if err != nil {
		fatal(err)
	}
	cfg := bit1.Config{
		Deck: deck, Sizing: workload.Default(), OutDir: "/scratch/bit1",
		Mode: ioMode, OpenPMDOptions: toml,
		StdioOverhead: sim.Duration(m.StdioWriteOverhead),
	}
	var runErr error
	w.Run(func(r *mpisim.Rank) {
		if err := bit1.Run(cfg, bit1.RankEnv{Rank: r, Env: envOf(r)}); err != nil && runErr == nil {
			runErr = err
		}
	})
	if runErr != nil {
		fatal(runErr)
	}
	log := col.Snapshot(darshan.JobMeta{
		Executable: "bit1 (" + ioMode.String() + ")", NProcs: w.Size,
		Machine: m.Name, RunSeconds: float64(k.Now()),
	})
	fmt.Printf("machine=%s nodes=%d ranks=%d mode=%s\n", m.Name, *nodes, w.Size, ioMode)
	fmt.Printf("virtual elapsed: %s\n", units.Seconds(float64(k.Now())))
	fmt.Print(log.Report())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bit1:", err)
	os.Exit(1)
}
