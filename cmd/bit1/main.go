// Command bit1 runs one simulated BIT1 job on a chosen machine model and
// prints the Darshan-derived I/O summary — the quickest way to compare
// the original and openPMD output paths. It launches through
// experiments.Options.RunBIT1, as every paper figure does.
//
//	bit1 -machine dardel -nodes 10 -mode original
//	bit1 -machine dardel -nodes 10 -mode openpmd -aggregators 10 -compressor blosc
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"picmcio/internal/bit1"
	"picmcio/internal/cluster"
	"picmcio/internal/darshan"
	"picmcio/internal/experiments"
	"picmcio/internal/units"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command on its arguments and output streams. It returns the
// exit status: 0, 1 on an error, 2 on a flag the parser rejects or an
// argument that is no flag.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet(os.Args[0], flag.ContinueOnError)
	fs.SetOutput(stderr)
	def := experiments.Options{}.WithDefaults()
	machine := fs.String("machine", "dardel", "machine model: discoverer|dardel|vega")
	nodes := fs.Int("nodes", 1, "node allocation")
	ranksPerNode := fs.Int("ranks-per-node", def.RanksPerNode, "MPI ranks per node")
	mode := fs.String("mode", "openpmd", "I/O path: original|openpmd")
	aggregators := fs.Int("aggregators", 0, "BP4 aggregator count (0 = one per node)")
	compressor := fs.String("compressor", "", "compression operator: blosc|bzip2|none")
	deckPath := fs.String("input", "", "BIT1 input deck file (key = value)")
	diagEpochs := fs.Int("diag-epochs", def.DiagEpochs, "diagnostic epochs to simulate")
	seed := fs.Uint64("seed", 1, "simulation seed")
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bit1: unexpected argument %q: every setting is a flag\n", fs.Arg(0))
		fs.Usage()
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bit1:", err)
		return 1
	}

	// Options reads a zero scale as "the default", so refuse one here
	// rather than silently run the default.
	if *nodes < 1 {
		return fail(fmt.Errorf("-nodes %d: need at least 1", *nodes))
	}
	if *ranksPerNode < 1 {
		return fail(fmt.Errorf("-ranks-per-node %d: need at least 1", *ranksPerNode))
	}
	if *diagEpochs < 1 {
		return fail(fmt.Errorf("-diag-epochs %d: need at least 1", *diagEpochs))
	}
	ranks := *nodes * *ranksPerNode
	m, err := cluster.ByName(*machine)
	if err != nil {
		return fail(err)
	}
	var deck *bit1.InputDeck
	if *deckPath != "" {
		src, err := os.ReadFile(*deckPath)
		if err != nil {
			return fail(err)
		}
		d, err := bit1.ParseDeck(string(src))
		if err != nil {
			return fail(err)
		}
		deck = &d
	}
	ioMode, err := bit1.ParseIOMode(*mode)
	if err != nil {
		return fail(err)
	}
	// A deck sets its own run length, and the original writer has no
	// aggregators and no compressor: set beside them, these flags are
	// mistakes, not ignored settings.
	fs.Visit(func(f *flag.Flag) {
		switch {
		case err != nil: // report the first
		case f.Name == "diag-epochs" && deck != nil:
			err = fmt.Errorf("-diag-epochs %s: the -input deck sets the run length", f.Value)
		case ioMode == bit1.IOOriginal && (f.Name == "aggregators" || f.Name == "compressor"):
			err = fmt.Errorf("-%s %s: an openPMD setting; -mode original has none", f.Name, f.Value)
		}
	})
	if err != nil {
		return fail(err)
	}
	numAgg := *aggregators
	if numAgg < 0 {
		return fail(fmt.Errorf("-aggregators %d: want a count, or 0 for one per node", numAgg))
	}
	if numAgg > ranks {
		return fail(fmt.Errorf("-aggregators %d: more than the %d ranks", numAgg, ranks))
	}
	if numAgg == 0 {
		numAgg = *nodes
	}
	toml, err := experiments.BP4Options(numAgg, *compressor)
	if err != nil {
		return fail(err)
	}

	o := experiments.Options{Seed: *seed, RanksPerNode: *ranksPerNode, DiagEpochs: *diagEpochs}
	res, err := o.RunBIT1(experiments.Run{
		Machine: m, Nodes: *nodes, Deck: deck,
		Config: experiments.Config{Mode: ioMode, TOML: func(int) (string, error) { return toml, nil }},
	})
	if err != nil {
		return fail(err)
	}
	log := res.Darshan.Snapshot(darshan.JobMeta{
		Executable: "bit1 (" + ioMode.String() + ")", NProcs: ranks,
		Machine: m.Name, RunSeconds: res.ElapsedSec,
	})
	fmt.Fprintf(stdout, "machine=%s nodes=%d ranks=%d mode=%s\n", m.Name, *nodes, ranks, ioMode)
	fmt.Fprintf(stdout, "virtual elapsed: %s\n", units.Seconds(res.ElapsedSec))
	fmt.Fprint(stdout, log.Report())
	return 0
}
