// Command experiments regenerates the paper's tables and figures on the
// simulated substrate. Each artifact prints as a text series or table;
// sweep-backed artifacts can emit machine-readable JSON instead.
// README.md's "Running things" lists the artifacts; DESIGN.md §14 says
// what a paper figure is run against and how it is extrapolated.
//
// Usage:
//
//	experiments -list                      # catalogue with descriptions
//	experiments -run fig2                  # one artifact
//	experiments -run all                   # everything (about a minute)
//	experiments -run fig6 -nodes 200       # with explicit scale
//	experiments -json -run figsizing       # sweep table as JSON
//	experiments -parallel 8 -run figfault  # bit-identical to -parallel 1
//	experiments -run campopt               # validate the ckptopt interval
//	experiments -cpuprofile cpu.pprof -memprofile mem.pprof -run fig6
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"picmcio/internal/experiments"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command on its arguments and output streams. It returns the
// exit status: 0, 1 on an error or a refused value, 2 on a flag the
// parser rejects.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet(os.Args[0], flag.ContinueOnError)
	fs.SetOutput(stderr)
	def := experiments.Options{}.WithDefaults()
	runWhat := fs.String("run", "all", "comma-separated artifact names (see -list), or all")
	list := fs.Bool("list", false, "print every artifact name with its description and exit")
	jsonOut := fs.Bool("json", false, "emit the sweep table as JSON instead of text (sweep-backed artifacts)")
	parallel := fs.Int("parallel", 1, "sweep trial worker pool size (output is bit-identical at any width)")
	nodes := fs.Int("nodes", 200, "node count for fixed-scale artifacts (fig5, fig6, fig8, fig9)")
	nodeList := fs.String("node-list", joinInts(def.NodeCounts), "comma-separated node counts for scaling artifacts")
	ranksPerNode := fs.Int("ranks-per-node", def.RanksPerNode, "MPI ranks per node")
	diagEpochs := fs.Int("diag-epochs", def.DiagEpochs, "simulated diagnostic epochs (paper run: 200)")
	seed := fs.Uint64("seed", 1, "simulation seed")
	campaignRuns := fs.Int("campaign-runs", 0, "campfail/campopt Monte-Carlo draws per cell (0 = auto-size to the expected-failure target)")
	campaignMTBF := fs.Float64("campaign-mtbf", 0, "campfail/campopt/figinterval per-node MTBF override in hours (0 = machine preset)")
	schedJobs := fs.Int("sched-jobs", def.SchedJobs, "figsched expected jobs per campaign cell")
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile of the artifact runs to this file")
	memProfile := fs.String("memprofile", "", "write a pprof allocation profile (every allocation sampled) to this file")
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "experiments:", err)
		return 1
	}
	if *list {
		for _, a := range experiments.Catalog() {
			fmt.Fprintf(stdout, "%-14s  %s\n", a.Name, a.Desc)
		}
		return 0
	}
	if fs.NArg() > 0 {
		return fail(fmt.Errorf("unexpected argument %q: name artifacts with -run", fs.Arg(0)))
	}
	// Options reads a zero scale as "the default", so refuse one here
	// rather than silently run the default; a node count below 1 is no
	// machine at all.
	if *nodes < 1 {
		return fail(fmt.Errorf("-nodes %d: need at least 1", *nodes))
	}
	if *ranksPerNode < 1 {
		return fail(fmt.Errorf("-ranks-per-node %d: need at least 1", *ranksPerNode))
	}
	if *diagEpochs < 1 {
		return fail(fmt.Errorf("-diag-epochs %d: need at least 1", *diagEpochs))
	}
	if *parallel < 1 {
		return fail(fmt.Errorf("-parallel %d: need at least 1 worker", *parallel))
	}
	// Zero means "the default" for these three; a negative value (or a
	// NaN or infinite MTBF) is no setting at all.
	if *schedJobs < 0 {
		return fail(fmt.Errorf("-sched-jobs %d: need 0 (the default) or more", *schedJobs))
	}
	if *campaignRuns < 0 {
		return fail(fmt.Errorf("-campaign-runs %d: need 0 (auto-size) or more", *campaignRuns))
	}
	if !(*campaignMTBF >= 0) {
		return fail(fmt.Errorf("-campaign-mtbf %g: need 0 (the machine preset) or more", *campaignMTBF))
	}
	if math.IsInf(*campaignMTBF, 1) {
		return fail(fmt.Errorf("-campaign-mtbf %g: need a finite number of hours", *campaignMTBF))
	}

	o := experiments.Options{
		Seed:              *seed,
		RanksPerNode:      *ranksPerNode,
		DiagEpochs:        *diagEpochs,
		Parallel:          *parallel,
		CampaignRuns:      *campaignRuns,
		CampaignMTBFHours: *campaignMTBF,
		SchedJobs:         *schedJobs,
	}
	for _, part := range strings.Split(*nodeList, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return fail(fmt.Errorf("-node-list %s: %q is not a node count of 1 or more", *nodeList, part))
		}
		o.NodeCounts = append(o.NodeCounts, n)
	}

	// Resolve every name before running anything: a typo at the end of
	// the list must not cost the artifacts before it.
	var arts []experiments.Artifact
	if *runWhat == "all" {
		arts = experiments.Catalog()
	} else {
		for _, name := range strings.Split(*runWhat, ",") {
			name = strings.TrimSpace(name)
			a, ok := experiments.Lookup(name)
			if !ok {
				return fail(fmt.Errorf("unknown artifact %q (see -list)", name))
			}
			arts = append(arts, a)
		}
	}
	if *jsonOut && len(arts) > 1 {
		// One table per document: concatenated top-level JSON values would
		// break any consumer doing a single parse of the output.
		return fail(fmt.Errorf("-json emits one JSON document; run one artifact per invocation (got %d)", len(arts)))
	}
	stop, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		return fail(err)
	}
	err = runArtifacts(stdout, o, *nodes, arts, *jsonOut)
	if serr := stop(); err == nil {
		err = serr
	}
	if err != nil {
		return fail(err)
	}
	return 0
}

// runArtifacts runs each artifact in turn and prints it as text, or as
// JSON with asJSON.
func runArtifacts(stdout io.Writer, o experiments.Options, nodes int, arts []experiments.Artifact, asJSON bool) error {
	for _, a := range arts {
		out, err := a.Run(o, nodes)
		if err == nil && asJSON {
			err = emitJSON(stdout, a.Name, out)
		} else if err == nil {
			_, err = io.WriteString(stdout, out.Text)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", a.Name, err)
		}
	}
	return nil
}

// joinInts renders a node list the way -node-list takes it.
func joinInts(ns []int) string {
	s := make([]string, len(ns))
	for i, n := range ns {
		s[i] = strconv.Itoa(n)
	}
	return strings.Join(s, ",")
}

// startProfiles begins the requested pprof profiles and returns the
// function that finishes and writes them, which a failed run calls too.
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
func emitJSON(stdout io.Writer, name string, out experiments.Output) error {
	if out.Table != nil {
		buf, err := out.Table.JSON()
		if err != nil {
			return err
		}
		_, err = stdout.Write(buf)
		return err
	}
	buf, err := json.MarshalIndent(struct {
		Artifact string `json:"artifact"`
		Text     string `json:"text"`
	}{name, out.Text}, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(stdout, string(buf))
	return err
}
