package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"syscall"
	"time"
)

// Stat is a metric's value for one workload: the median over n samples,
// with the extremes beside it. Three to five samples support no
// percentile above the median, so none is reported.
type Stat struct {
	Value float64 `json:"value"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	N     int     `json:"n"`
	Unit  string  `json:"unit"`
}

func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(xs))
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func statOf(xs []float64, unit string) Stat {
	return Stat{Value: median(xs), Min: slices.Min(xs), Max: slices.Max(xs), N: len(xs), Unit: unit}
}

// WorkloadResult is everything the benchmark reports for one workload.
type WorkloadResult struct {
	OpsTotal  int             `json:"ops_total"`
	OpsFailed int             `json:"ops_failed"`
	Failures  []string        `json:"failures,omitempty"`
	EndToEnd  map[string]Stat `json:"end_to_end,omitempty"`
	PerLayer  map[string]Stat `json:"per_layer,omitempty"`
}

func (r *WorkloadResult) fail(n int, format string, args ...any) {
	r.OpsFailed += n
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// samples accumulates per-child observations, keyed by metric name.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

// spawn starts one fresh child process for the spec and returns what it
// printed plus what the kernel accounted to it. A fresh process per pass
// is what a CLI user pays, and stops a process-lifetime cache from
// flattering later passes.
func spawn(ctx context.Context, spec childSpec, timeout time.Duration) (childResult, *syscall.Rusage, time.Time, error) {
	var res childResult
	exe, err := os.Executable()
	if err != nil {
		return res, nil, time.Time{}, err
	}
	raw, err := json.Marshal(spec)
	if err != nil {
		return res, nil, time.Time{}, err
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe)
	cmd.Env = append(os.Environ(), childEnv+"="+string(raw), "GOMAXPROCS="+strconv.Itoa(spec.Parallel))
	cmd.Stderr = os.Stderr
	var out bytes.Buffer
	cmd.Stdout = &out
	started := time.Now()
	err = cmd.Run()
	var ru *syscall.Rusage
	if cmd.ProcessState != nil {
		ru, _ = cmd.ProcessState.SysUsage().(*syscall.Rusage)
	}
	if ctx.Err() != nil {
		return res, ru, started, fmt.Errorf("child timed out after %s", timeout)
	}
	if err != nil {
		return res, ru, started, fmt.Errorf("child: %w", err)
	}
	line := bytes.TrimSpace(out.Bytes())
	if i := bytes.LastIndexByte(line, '\n'); i >= 0 {
		line = line[i+1:]
	}
	if err := json.Unmarshal(line, &res); err != nil {
		return res, ru, started, fmt.Errorf("child printed no result: %w", err)
	}
	if ru == nil {
		return res, ru, started, fmt.Errorf("child left no rusage")
	}
	return res, ru, started, nil
}

func tvSeconds(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

// measureOnce runs one pass of w in a child, after the warm-up run warm,
// and folds it into res and s. At the digest seed the outputs are held
// to want (nil: never); at any seed the child has already applied the
// shape checks.
func measureOnce(ctx context.Context, w, warm Workload, seed uint64, want digests, res *WorkloadResult, s samples) {
	nOps := len(w.Artifacts)
	res.OpsTotal += nOps
	seed = w.seedFor(seed)
	if seed != digestSeed {
		want = nil
	}
	spec := childSpec{Workload: w, Warmup: warm, Seed: seed, Parallel: procs()}
	cr, ru, started, err := spawn(ctx, spec, 10*w.Pass)
	if err != nil {
		res.fail(nOps, "%s: %v", w.Name, err)
		return
	}
	if len(cr.Ops) != nOps {
		res.fail(nOps, "%s: child reported %d operations, want %d", w.Name, len(cr.Ops), nOps)
		return
	}
	failed := 0
	for _, op := range cr.Ops {
		switch {
		case op.Err != "":
			res.fail(1, "%s/%s: %s", w.Name, op.Artifact, op.Err)
			failed++
		case want != nil && want[w.Name+"/"+op.Artifact] != op.Digest:
			res.fail(1, "%s/%s: digest %s, want %s", w.Name, op.Artifact, op.Digest, want[w.Name+"/"+op.Artifact])
			failed++
		}
	}
	if failed > 0 {
		// A pass with a failed operation did different work; its costs
		// do not belong among the samples.
		return
	}
	s.add("setup_s", float64(cr.ReadyUnixNano-started.UnixNano())/1e9)
	s.add("wall_s", cr.WallS)
	s.add("mallocs_M", float64(cr.Mallocs)/1e6)
	s.add("alloc_MiB", float64(cr.AllocBytes)/(1<<20))
	s.add("peak_rss_MiB", float64(ru.Maxrss)/1024) // ru_maxrss is KiB on Linux

	cpu := tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
	s.add("host.cpu_s", cpu)
	if cpu > 0 {
		s.add("host.sys_share", tvSeconds(ru.Stime)/cpu)
	}
	s.add("host.ctx_switches_k", float64(ru.Nvcsw)/1e3)
	s.add("host.gc_cycles", float64(cr.GCCycles))
	s.add("host.gc_pause_ms", float64(cr.GCPauseNs)/1e6)
	for _, op := range cr.Ops {
		s.add("experiments."+op.Artifact+"_s", op.WallS)
	}
}

// fold turns the collected samples of the named metrics into Stats.
func fold(s samples, metrics []Metric, into map[string]Stat) {
	for _, m := range metrics {
		if xs, ok := s[m.Name]; ok {
			into[m.Name] = statOf(xs, m.Unit)
		}
	}
}
