package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"picmcio/internal/experiments"
)

// This file is the end-to-end half. It imports from the product only
// picmcio/internal/experiments and uses only what cmd/experiments/main.go
// uses (Lookup, Artifact.Run, Options, Output), so it breaks only when
// the CLI would.

// childEnv carries a JSON childSpec; a process that finds it set is a
// child: it runs the spec, prints one JSON childResult line, and exits.
// An environment variable instead of a flag lets the tier-1 test
// re-execute its own test binary through the same path.
const childEnv = "PICMCIO_BENCH_CHILD"

type childSpec struct {
	Workload Workload
	Warmup   Workload
	Seed     uint64
	Parallel int
}

// opResult is one operation: one artifact invocation.
type opResult struct {
	Artifact string  `json:"artifact"`
	WallS    float64 `json:"wall_s"`
	Digest   string  `json:"digest,omitempty"`
	Err      string  `json:"err,omitempty"` // run error, recovered panic, or failed check
}

type childResult struct {
	ReadyUnixNano int64      `json:"ready_unix_nano"` // end of set-up, start of the timed region
	WallS         float64    `json:"wall_s"`
	Mallocs       uint64     `json:"mallocs"`
	AllocBytes    uint64     `json:"alloc_bytes"`
	GCCycles      uint32     `json:"gc_cycles"`
	GCPauseNs     uint64     `json:"gc_pause_ns"`
	Ops           []opResult `json:"ops"`
}

// runArtifact is the CLI's Lookup → Run, with a panic turned into an
// error so one bad artifact costs one operation, not the child.
func runArtifact(name string, o experiments.Options, nodes int) (out experiments.Output, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	a, ok := experiments.Lookup(name)
	if !ok {
		return out, fmt.Errorf("unknown artifact %q", name)
	}
	return a.Run(o, nodes)
}

func (w Workload) options(seed uint64, parallel int) experiments.Options {
	o := w.Opts
	o.Seed = seed
	o.Parallel = parallel
	return o.WithDefaults()
}

// runChild does the set-up (warm-up run), then times the workload's
// artifacts back to back. Digests and checks are computed after the
// timed region so they add nothing to the allocation counters.
func runChild(spec childSpec) childResult {
	if wu := spec.Warmup; len(wu.Artifacts) > 0 {
		o := wu.options(spec.Seed, spec.Parallel)
		for _, name := range wu.Artifacts {
			if _, err := runArtifact(name, o, wu.Nodes); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: warm-up %s: %v\n", name, err)
			}
		}
	}
	w := spec.Workload
	o := w.options(spec.Seed, spec.Parallel)
	outs := make([]experiments.Output, len(w.Artifacts))
	res := childResult{Ops: make([]opResult, len(w.Artifacts))}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	res.ReadyUnixNano = start.UnixNano()
	for i, name := range w.Artifacts {
		t := time.Now()
		out, err := runArtifact(name, o, w.Nodes)
		res.Ops[i] = opResult{Artifact: name, WallS: time.Since(t).Seconds()}
		if err != nil {
			res.Ops[i].Err = err.Error()
		}
		outs[i] = out
	}
	res.WallS = time.Since(start).Seconds()
	runtime.ReadMemStats(&m1)
	res.Mallocs = m1.Mallocs - m0.Mallocs
	res.AllocBytes = m1.TotalAlloc - m0.TotalAlloc
	res.GCCycles = m1.NumGC - m0.NumGC
	res.GCPauseNs = m1.PauseTotalNs - m0.PauseTotalNs

	for i := range res.Ops {
		op := &res.Ops[i]
		if op.Err != "" {
			continue
		}
		var table []byte
		if outs[i].Table != nil {
			var err error
			if table, err = outs[i].Table.JSON(); err != nil {
				op.Err = "table JSON: " + err.Error()
				continue
			}
		}
		op.Digest = digestOf(outs[i].Text, table)
		if err := checkShape(op.Artifact, outs[i].Text, table); err != nil {
			op.Err = "shape: " + err.Error()
		}
	}
	return res
}

// childMain is the child process's whole life.
func childMain(raw string) {
	var spec childSpec
	if err := json.Unmarshal([]byte(raw), &spec); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: bad child spec:", err)
		os.Exit(2)
	}
	buf, err := json.Marshal(runChild(spec))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	fmt.Println(string(buf))
}
