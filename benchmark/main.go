// Command benchmark is the end-to-end benchmark of the paper artifacts:
// four catalogue workloads, four gated host-cost metrics each with the
// ungated wall_s beside them, and a per-layer ledger measured from
// outside the program. See README.md.
//
//	go run ./benchmark [-seed N]                      # every workload, 5 rounds, then the ledger
//	go run ./benchmark -workload W -seed N -seconds S -trace 0|1   # one workload, one JSON line
//	go run ./benchmark -compare a.json b.json         # do two result files agree?
//	go run ./benchmark -update-digests                # rewrite testdata/digests.json (its own PR)
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

const (
	// rounds is how many times the full form runs every workload;
	// minRounds is the floor of the driver's form, which measures by the
	// clock. A median needs three.
	rounds    = 5
	minRounds = 3
	// driverDeadline keeps a single-workload run inside the 180 s the
	// driver allows, whatever a child does.
	driverDeadline = 170 * time.Second
)

// Result is what a full run writes and -compare reads.
type Result struct {
	Seed      uint64                     `json:"seed"`
	Rounds    int                        `json:"rounds"`
	P         int                        `json:"p"`
	GoVersion string                     `json:"go_version"`
	Workloads map[string]*WorkloadResult `json:"workloads"`
}

func main() {
	if raw := os.Getenv(childEnv); raw != "" {
		childMain(raw)
		return
	}
	workload := flag.String("workload", "", "run only this workload and print one JSON result line (the driver's form)")
	seed := flag.Uint64("seed", digestSeed, "simulation seed; digests are checked at seed 1 only, shape checks at every seed")
	seconds := flag.Float64("seconds", 20, "with -workload: keep running rounds (at least 3) until this much time has been measured")
	trace := flag.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer ledger")
	out := flag.String("out", filepath.Join("benchmark", "out"), "directory for result.json and trace-<workload>.json")
	compare := flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
	update := flag.Bool("update-digests", false, "run every workload once at seed 1 and rewrite "+digestsPath+"; times nothing")
	flag.Parse()

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two result files"))
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1)))
	case *update:
		if err := updateDigests(); err != nil {
			fatal(err)
		}
	case *workload != "":
		w, ok := lookupWorkload(*workload)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *workload))
		}
		if err := driverRun(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace != 0, *out); err != nil {
			fatal(err)
		}
	default:
		if err := fullRun(*seed, *out); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// measure runs rounds of the workloads, interleaved inside each round so
// machine drift spreads evenly over them, until at least n rounds
// are done and `atLeast` has elapsed. It returns the per-workload results
// with the end-to-end metrics folded in, and the raw samples.
func measure(ctx context.Context, ws []Workload, seed uint64, n int, atLeast time.Duration) (map[string]*WorkloadResult, map[string]samples, error) {
	want, err := loadDigests()
	if err != nil {
		return nil, nil, err
	}
	results := map[string]*WorkloadResult{}
	raw := map[string]samples{}
	for _, w := range ws {
		results[w.Name] = &WorkloadResult{EndToEnd: map[string]Stat{}, PerLayer: map[string]Stat{}}
		raw[w.Name] = samples{}
	}
	start := time.Now()
	for r := 0; r < n || time.Since(start) < atLeast; r++ {
		for _, w := range ws {
			measureOnce(ctx, w, warmup, seed, want, results[w.Name], raw[w.Name])
		}
		if ctx.Err() != nil {
			break
		}
	}
	for _, w := range ws {
		fold(raw[w.Name], EndToEnd, results[w.Name].EndToEnd)
	}
	return results, raw, nil
}

// ledgerOf runs w's traced cell (and its untraced twin), merges the
// readings of the probes that touch w and the child-side samples, and
// fills res.PerLayer with every per-layer metric; a metric the workload's
// layers never touch reads 0.
func ledgerOf(w Workload, seed uint64, s samples, probeLed ledger, outDir string, res *WorkloadResult) {
	t := newTracer()
	res.OpsTotal += 2 // the traced cell and its untraced twin
	cell, err := runCell(w, w.seedFor(seed), t)
	if err != nil {
		res.fail(2, "%s: %v", w.Name, err)
	}
	if err = os.MkdirAll(outDir, 0o755); err == nil {
		err = t.write(filepath.Join(outDir, "trace-"+w.Name+".json"))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: writing trace:", err)
	}
	for _, m := range PerLayer {
		if xs, ok := s[m.Name]; ok {
			res.PerLayer[m.Name] = statOf(xs, m.Unit)
			continue
		}
		v, ok := cell[m.Name]
		if !ok {
			v = probeLed[m.Name]
		}
		res.PerLayer[m.Name] = Stat{Value: v, Min: v, Max: v, N: 1, Unit: m.Unit}
	}
}

// fullRun is the no-argument form: every workload, then the ledger.
func fullRun(seed uint64, outDir string) error {
	ctx := context.Background()
	results, raw, err := measure(ctx, Workloads, seed, rounds, 0)
	if err != nil {
		return err
	}
	probeLeds, err := runProbes(fullProbes, time.Second, Workloads)
	if err != nil {
		return err
	}
	for _, w := range Workloads {
		ledgerOf(w, seed, raw[w.Name], probeLeds[w.Name], outDir, results[w.Name])
	}
	res := Result{Seed: seed, Rounds: rounds, P: procs(), GoVersion: runtime.Version(), Workloads: results}
	printReport(os.Stdout, res)
	buf, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(outDir, "result.json")
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s and %s\n", path, filepath.Join(outDir, "trace-<workload>.json"))
	for _, r := range results {
		if r.OpsFailed > 0 {
			return fmt.Errorf("operations failed; see above")
		}
	}
	return nil
}

// driverLine is the one JSON object the driver reads from the last line
// of standard output.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverRun is the single-workload form. Tracing off: the end-to-end
// metrics over at least 3 rounds and `seconds` of measuring. Tracing on:
// one round for the child-side readings (wall_s, host.*, experiments.*),
// then the workload's cell and the probes that touch it.
func driverRun(w Workload, seed uint64, seconds time.Duration, traced bool, outDir string) error {
	ctx, cancel := context.WithTimeout(context.Background(), driverDeadline)
	defer cancel()
	n, atLeast := minRounds, seconds
	if traced {
		n, atLeast = 1, 0
	}
	results, raw, err := measure(ctx, []Workload{w}, seed, n, atLeast)
	if err != nil {
		return err
	}
	res := results[w.Name]
	line := driverLine{Metrics: map[string]driverValue{}}
	if traced {
		// Each probe gets a twentieth of the run; at most nine touch w.
		probeLeds, err := runProbes(fullProbes, seconds/20, []Workload{w})
		if err != nil {
			res.OpsTotal++
			res.fail(1, "%v", err)
		}
		ledgerOf(w, seed, raw[w.Name], probeLeds[w.Name], outDir, res)
		for _, m := range PerLayer {
			line.Metrics[m.Name] = driverValue{res.PerLayer[m.Name].Value, m.Unit}
		}
	} else {
		for _, m := range EndToEnd {
			line.Metrics[m.Name] = driverValue{res.EndToEnd[m.Name].Value, m.Unit}
		}
	}
	for _, f := range res.Failures {
		fmt.Fprintln(os.Stderr, "benchmark: FAILED", f)
	}
	line.Attempted, line.Failed, line.Correct = res.OpsTotal, res.OpsFailed, res.OpsFailed == 0
	buf, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(buf))
	return nil
}

// updateDigests runs every workload once at the digest seed, untimed,
// and rewrites the digest file. Refreshing digests is a statement that
// simulated results changed on purpose; it goes in a PR of its own.
func updateDigests() error {
	d := digests{}
	for _, w := range Workloads {
		cr := runChild(childSpec{Workload: w, Seed: digestSeed, Parallel: procs()})
		for _, op := range cr.Ops {
			if op.Err != "" {
				return fmt.Errorf("%s/%s: %s", w.Name, op.Artifact, op.Err)
			}
			d[w.Name+"/"+op.Artifact] = op.Digest
			fmt.Printf("%s/%s %s\n", w.Name, op.Artifact, op.Digest)
		}
	}
	return d.save()
}
