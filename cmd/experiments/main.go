// Command experiments regenerates the paper's tables and figures on the
// simulated substrate. Each artifact prints as a text series or table;
// sweep-backed artifacts can emit machine-readable JSON instead.
// README.md's "Running things" lists the artifacts; DESIGN.md §14 says
// what a paper figure is run against and how it is extrapolated.
//
// Usage:
//
//	experiments -list                # catalogue with descriptions
//	experiments -run fig2            # one artifact
//	experiments -run all             # everything (about a minute)
//	experiments -run fig6 -nodes 200 # with explicit scale
//	experiments -json figsizing      # sweep table as JSON
//	experiments -parallel 8 figfault # bit-identical to -parallel 1
//	experiments -optimal campfail    # validate the ckptopt interval
//	experiments -cpuprofile cpu.pprof -memprofile mem.pprof -run fig6
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"picmcio/internal/experiments"
)

func main() {
	runWhat := flag.String("run", "all", "comma-separated artifact names (see -list), or all")
	list := flag.Bool("list", false, "print every artifact name with its description and exit")
	jsonOut := flag.Bool("json", false, "emit the sweep table as JSON instead of text (sweep-backed artifacts)")
	parallel := flag.Int("parallel", 1, "sweep trial worker pool size (output is bit-identical at any width)")
	nodes := flag.Int("nodes", 200, "node count for fixed-scale artifacts (fig5, fig6, fig8, fig9)")
	nodeList := flag.String("node-list", "", "comma-separated node counts for scaling artifacts (default: paper set)")
	ranksPerNode := flag.Int("ranks-per-node", 128, "MPI ranks per node")
	diagEpochs := flag.Int("diag-epochs", 5, "simulated diagnostic epochs (paper run: 200)")
	seed := flag.Uint64("seed", 1, "simulation seed")
	campaignRuns := flag.Int("campaign-runs", 0, "campfail Monte-Carlo draws per cell (0 = auto-size to the expected-failure target)")
	campaignMTBF := flag.Float64("campaign-mtbf", 0, "campfail/figinterval per-node MTBF override in hours (0 = machine preset)")
	optimal := flag.Bool("optimal", false, "campfail validation mode: run at the ckptopt-recommended interval vs fixed baselines")
	schedJobs := flag.Int("sched-jobs", 0, "figsched expected jobs per campaign cell (0 = default 240)")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the artifact runs to this file")
	memProfile := flag.String("memprofile", "", "write a pprof allocation profile (every allocation sampled) to this file")
	flag.Parse()
	if *list {
		for _, a := range experiments.Catalog() {
			fmt.Printf("%-14s  %s\n", a.Name, a.Desc)
		}
		return
	}
	if args := flag.Args(); len(args) > 0 {
		// Positional form: `experiments figfault [figburst ...]`. Flags
		// must come first (flag parsing stops at the first positional),
		// and mixing the positional form with -run is ambiguous.
		for _, a := range args {
			if strings.HasPrefix(a, "-") {
				fatal(fmt.Errorf("flag %q after artifact names: flags must precede positional artifacts", a))
			}
		}
		if *runWhat != "all" {
			fatal(fmt.Errorf("use either -run or positional artifact names, not both"))
		}
		joined := strings.Join(args, ",")
		runWhat = &joined
	}
	// Options reads a zero scale as "the default", so refuse one here
	// rather than silently run 128 ranks a node or 5 epochs; a node
	// count below 1 is no machine at all.
	if *nodes < 1 {
		fatal(fmt.Errorf("-nodes %d: need at least 1", *nodes))
	}
	if *ranksPerNode < 1 {
		fatal(fmt.Errorf("-ranks-per-node %d: need at least 1", *ranksPerNode))
	}
	if *diagEpochs < 1 {
		fatal(fmt.Errorf("-diag-epochs %d: need at least 1", *diagEpochs))
	}
	if *parallel < 1 {
		fatal(fmt.Errorf("-parallel %d: need at least 1 worker", *parallel))
	}
	// Zero means "the default" for these three; a negative value (or a
	// NaN MTBF) is no setting at all.
	if *schedJobs < 0 {
		fatal(fmt.Errorf("-sched-jobs %d: need 0 (the default) or more", *schedJobs))
	}
	if *campaignRuns < 0 {
		fatal(fmt.Errorf("-campaign-runs %d: need 0 (auto-size) or more", *campaignRuns))
	}
	if !(*campaignMTBF >= 0) {
		fatal(fmt.Errorf("-campaign-mtbf %g: need 0 (the machine preset) or more", *campaignMTBF))
	}

	o := experiments.Options{
		Seed:              *seed,
		RanksPerNode:      *ranksPerNode,
		DiagEpochs:        *diagEpochs,
		Parallel:          *parallel,
		CampaignRuns:      *campaignRuns,
		CampaignMTBFHours: *campaignMTBF,
		CampaignOptimal:   *optimal,
		SchedJobs:         *schedJobs,
	}
	if *nodeList != "" {
		for _, part := range strings.Split(*nodeList, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				fatal(err)
			}
			if n < 1 {
				fatal(fmt.Errorf("-node-list %s: node count %d: need at least 1", *nodeList, n))
			}
			o.NodeCounts = append(o.NodeCounts, n)
		}
	}
	o = o.WithDefaults()

	names := strings.Split(*runWhat, ",")
	if *runWhat == "all" {
		names = nil
		for _, a := range experiments.Catalog() {
			names = append(names, a.Name)
		}
	}
	if *jsonOut && len(names) > 1 {
		// One table per document: concatenated top-level JSON values would
		// break any consumer doing a single parse of the output.
		fatal(fmt.Errorf("-json emits one JSON document; run one artifact per invocation (got %d)", len(names)))
	}
	stop, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fatal(err)
	}
	for _, name := range names {
		name = strings.TrimSpace(name)
		a, ok := experiments.Lookup(name)
		if !ok {
			fatal(fmt.Errorf("unknown artifact %q (see -list)", name))
		}
		out, err := a.Run(o, *nodes)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		if *jsonOut {
			if err := emitJSON(name, out); err != nil {
				fatal(fmt.Errorf("%s: %w", name, err))
			}
			continue
		}
		fmt.Print(out.Text)
	}
	if err := stop(); err != nil {
		fatal(err)
	}
}

// startProfiles begins the requested pprof profiles and returns the
// function that finishes and writes them. A run that ends in fatal
// leaves no profile: there is nothing worth reading in one.
func startProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		if err = pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	if memPath != "" {
		// The allocation hunt counts objects, so sample every one.
		runtime.MemProfileRate = 1
	}
	return func() error {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				return err
			}
		}
		if memPath == "" {
			return nil
		}
		f, err := os.Create(memPath)
		if err != nil {
			return err
		}
		runtime.GC() // fold the last cycle's frees into the profile
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}, nil
}

// emitJSON writes the artifact's machine-readable form: the sweep table
// for sweep-backed artifacts, a {artifact, text} wrapper otherwise.
func emitJSON(name string, out experiments.Output) error {
	if out.Table != nil {
		buf, err := out.Table.JSON()
		if err != nil {
			return err
		}
		os.Stdout.Write(buf)
		return nil
	}
	buf, err := json.MarshalIndent(struct {
		Artifact string `json:"artifact"`
		Text     string `json:"text"`
	}{name, out.Text}, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(buf))
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
