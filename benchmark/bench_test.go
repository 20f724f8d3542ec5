package main

import (
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary be its own benchmark child: spawn
// re-executes os.Executable() with childEnv set, exactly as the real
// binary does.
func TestMain(m *testing.M) {
	if raw := os.Getenv(childEnv); raw != "" {
		if os.Getenv(dieEnv) != "" {
			os.Exit(3)
		}
		childMain(raw)
		return
	}
	os.Exit(m.Run())
}

// dieEnv makes a child exit without a result, standing in for a crash.
const dieEnv = "PICMCIO_BENCH_TEST_DIE"

const testSeed = 3 // not the digest seed: toy-scale outputs have no digests

// toy shrinks a workload to 2 nodes × 8 ranks. One node count: the
// original writer's event count follows the bytes written, not the ranks,
// so every extra fig2 point costs the same at any scale.
func toy(w Workload) Workload {
	w.Nodes = 2
	w.Opts.RanksPerNode = 8
	w.Opts.DiagEpochs = 1
	if len(w.Opts.NodeCounts) > 0 {
		w.Opts.NodeCounts = []int{2}
	}
	if w.Opts.SchedJobs > 0 {
		w.Opts.SchedJobs = 60
	}
	return w
}

var toyProbes = probeSizes{
	SimProcs: 64, SimRounds: 4,
	MPIRanks: 64, MPIGroups: 4, MPIReps: 2,
	ADIOSRanks: 16, ADIOSAggs: 2,
	LustreProcs: 16,
	BurstNodes:  2, BurstChunks: 4,
	JobNodes:   2,
	SweepEmpty: 100, SweepBusy: 4,
	PayloadFloats: 1 << 10,
}

// toyRun measures every workload at toy scale through the real spawn
// path (one round, no warm-up) and builds its ledger with toy-sized
// probes.
func toyRun(t *testing.T) map[string]*WorkloadResult {
	t.Helper()
	probeLeds, err := runProbes(toyProbes, 0, Workloads)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]*WorkloadResult{}
	dir := t.TempDir()
	for _, w := range Workloads {
		w = toy(w)
		res := &WorkloadResult{EndToEnd: map[string]Stat{}, PerLayer: map[string]Stat{}}
		s := samples{}
		measureOnce(context.Background(), w, Workload{}, testSeed, nil, res, s)
		fold(s, EndToEnd, res.EndToEnd)
		ledgerOf(w, testSeed, s, probeLeds[w.Name], dir, res)
		if res.OpsFailed > 0 {
			t.Fatalf("%s: %d of %d operations failed: %v", w.Name, res.OpsFailed, res.OpsTotal, res.Failures)
		}
		if _, err := os.Stat(filepath.Join(dir, "trace-"+w.Name+".json")); err != nil {
			t.Error(err)
		}
		out[w.Name] = res
	}
	return out
}

// benchmarkJSON is the contract file at the repository root.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func keys[V any](m map[string]V) []string { return slices.Sorted(maps.Keys(m)) }

// TestMetricsMatchBenchmarkJSON: a toy run produces every workload and
// metric BENCHMARK.json names, with its unit, and no others.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	t.Parallel()
	buf, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(buf, &bj); err != nil {
		t.Fatal(err)
	}
	got := toyRun(t)

	if len(bj.Workloads) != len(Workloads) || len(got) != len(Workloads) {
		t.Fatalf("%d workloads ran, spec.go has %d, BENCHMARK.json %d", len(got), len(Workloads), len(bj.Workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != Workloads[i].Name || w.Why != Workloads[i].Why {
			t.Errorf("workloads[%d] = %+v differs from spec.go", i, w)
		}
	}
	wantE := map[string]string{}
	for _, m := range bj.EndToEnd {
		wantE[m.Name] = m.Unit
	}
	wantL := map[string]string{}
	for _, m := range bj.PerLayer {
		wantL[m.Name] = m.Unit
	}
	for name, res := range got {
		for _, c := range []struct {
			kind string
			got  map[string]Stat
			want map[string]string
		}{{"end_to_end", res.EndToEnd, wantE}, {"per_layer", res.PerLayer, wantL}} {
			if g, w := keys(c.got), keys(c.want); strings.Join(g, ",") != strings.Join(w, ",") {
				t.Errorf("%s %s metrics:\n got  %v\n want %v", name, c.kind, g, w)
			}
			for k, st := range c.got {
				if st.Unit != c.want[k] {
					t.Errorf("%s %s: unit %q, BENCHMARK.json says %q", name, k, st.Unit, c.want[k])
				}
			}
		}
		for _, m := range EndToEnd {
			if !(res.EndToEnd[m.Name].Value > 0) {
				t.Errorf("%s %s = %v, want > 0", name, m.Name, res.EndToEnd[m.Name].Value)
			}
		}
	}
	// The bounds and directions are stated twice; keep them equal.
	for i, m := range bj.EndToEnd {
		if i >= len(EndToEnd) || EndToEnd[i].Name != m.Name || EndToEnd[i].Bound != m.Bound || EndToEnd[i].Better != m.Better {
			t.Errorf("end_to_end[%d] = %+v differs from spec.go", i, m)
		}
	}
	for i, m := range bj.PerLayer {
		if i >= len(PerLayer) || PerLayer[i].Name != m.Name || PerLayer[i].Better != m.Better {
			t.Errorf("per_layer[%d] = %+v differs from spec.go", i, m)
		}
	}
}

// cliArgs are the cmd/experiments flags equivalent to a child spec.
func cliArgs(w Workload, seed uint64, parallel int) []string {
	args := []string{
		"-seed", strconv.FormatUint(seed, 10), "-parallel", strconv.Itoa(parallel),
		"-nodes", strconv.Itoa(w.Nodes), "-ranks-per-node", strconv.Itoa(w.Opts.RanksPerNode),
		"-diag-epochs", strconv.Itoa(w.Opts.DiagEpochs), "-sched-jobs", strconv.Itoa(w.Opts.SchedJobs),
		"-run", strings.Join(w.Artifacts, ","),
	}
	if len(w.Opts.NodeCounts) > 0 {
		var ns []string
		for _, n := range w.Opts.NodeCounts {
			ns = append(ns, strconv.Itoa(n))
		}
		args = append(args, "-node-list", strings.Join(ns, ","))
	}
	return args
}

// TestChildTextEqualsCLI: what the child's runArtifact renders from a
// spec's options is byte-for-byte what cmd/experiments prints for the
// same flags.
func TestChildTextEqualsCLI(t *testing.T) {
	t.Parallel()
	cli := filepath.Join(t.TempDir(), "experiments")
	if out, err := exec.Command("go", "build", "-o", cli, "picmcio/cmd/experiments").CombinedOutput(); err != nil {
		t.Fatalf("building cmd/experiments: %v\n%s", err, out)
	}
	for _, w := range Workloads {
		w = toy(w)
		if w.Opts.RanksPerNode == 0 || w.Opts.DiagEpochs == 0 {
			t.Fatalf("%s: toy scale leaves a CLI flag at its default", w.Name)
		}
		var text strings.Builder
		for _, name := range w.Artifacts {
			out, err := runArtifact(name, w.options(testSeed, 2), w.Nodes)
			if err != nil {
				t.Fatalf("%s/%s: %v", w.Name, name, err)
			}
			text.WriteString(out.Text)
		}
		out, err := exec.Command(cli, cliArgs(w, testSeed, 2)...).Output()
		if err != nil {
			t.Fatalf("%s: cmd/experiments: %v", w.Name, err)
		}
		if string(out) != text.String() {
			t.Errorf("%s: child text differs from cmd/experiments\nchild:\n%s\ncli:\n%s", w.Name, text.String(), out)
		}
	}
}

// TestExactCountsRepeat: every per-layer count marked exact reads the
// same on two traced passes.
func TestExactCountsRepeat(t *testing.T) {
	t.Parallel()
	for _, w := range Workloads {
		w = toy(w)
		a, err := runCell(w, testSeed, newTracer())
		if err != nil {
			t.Fatal(err)
		}
		b, err := runCell(w, testSeed, newTracer())
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range PerLayer {
			if m.Exact && a[m.Name] != b[m.Name] {
				t.Errorf("%s %s: %v then %v", w.Name, m.Name, a[m.Name], b[m.Name])
			}
		}
	}
}

// TestFailuresAreCounted: a bad artifact name, a child that dies and a
// child that overruns each cost their operations and nothing else; the
// healthy artifact beside the bad one still runs.
func TestFailuresAreCounted(t *testing.T) {
	w := toy(Workloads[0])
	w.Artifacts = []string{w.Artifacts[0], "no-such-artifact"}
	res := &WorkloadResult{}
	s := samples{}
	measureOnce(context.Background(), w, toy(warmup), testSeed, nil, res, s)
	if res.OpsTotal != 2 || res.OpsFailed != 1 {
		t.Errorf("bad artifact: %d of %d failed, want 1 of 2 (%v)", res.OpsFailed, res.OpsTotal, res.Failures)
	}
	if len(res.Failures) != 1 || !strings.Contains(res.Failures[0], "no-such-artifact") {
		t.Errorf("failures = %v", res.Failures)
	}
	if len(s) != 0 {
		t.Errorf("a failed pass left samples: %v", keys(s))
	}

	if _, _, _, err := spawn(context.Background(), childSpec{Workload: toy(Workloads[0]), Parallel: 1}, time.Nanosecond); err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Errorf("overrunning child: err = %v", err)
	}

	t.Setenv(dieEnv, "1")
	res = &WorkloadResult{}
	measureOnce(context.Background(), toy(Workloads[3]), Workload{}, testSeed, nil, res, samples{})
	if res.OpsTotal != 2 || res.OpsFailed != 2 {
		t.Errorf("dead child: %d of %d failed, want 2 of 2 (%v)", res.OpsFailed, res.OpsTotal, res.Failures)
	}
}

func TestShapeChecksReject(t *testing.T) {
	series := func(ys ...float64) string {
		var b strings.Builder
		b.WriteString("# title\nx   label with spaces\n")
		for i, y := range ys {
			fmt.Fprintf(&b, "%d   %g\n", 10*(i+1), y)
		}
		return b.String() + "\n"
	}
	if err := checkFig6(series(1, 3, 2)); err != nil {
		t.Error(err)
	}
	if err := checkFig6(series(1, 2, 3)); err == nil {
		t.Error("fig6: optimum at the last point passed")
	}
	if err := checkFig2(series(3, 4, 3.5)); err != nil {
		t.Error(err)
	}
	if err := checkFig2(series(3, 4, 0)); err == nil {
		t.Error("fig2: zero throughput passed")
	}
	// x runs 10, 20, 30: past the 20 nodes from which Discoverer must have
	// peaked, so a last point at the peak fails; a sweep that stops at 10
	// nodes is too small to judge and passes.
	if err := checkFig2(series(3, 4, 5)); err == nil {
		t.Error("fig2: Discoverer at its peak on the last point (30 nodes) passed")
	}
	if err := checkFig2(series(3)); err != nil {
		t.Error(err)
	}
	table := func(easyWait float64, easyJobs int) []byte {
		return []byte(fmt.Sprintf(`{"points":[
			{"params":[{"name":"machine","value":"m"},{"name":"load","value":"1"},{"name":"policy","value":"fcfs"}],
			 "values":[{"name":"jobs","value":10},{"name":"mean_wait_h","value":5}]},
			{"params":[{"name":"machine","value":"m"},{"name":"load","value":"1"},{"name":"policy","value":"easy-backfill"}],
			 "values":[{"name":"jobs","value":%d},{"name":"mean_wait_h","value":%g}]}]}`, easyJobs, easyWait))
	}
	if err := checkShape("figsched", "", table(4, 10)); err != nil {
		t.Error(err)
	}
	if err := checkShape("figsched", "", table(6, 10)); err == nil {
		t.Error("figsched: EASY waiting longer than FCFS passed")
	}
	if err := checkShape("figsched", "", table(4, 9)); err == nil {
		t.Error("figsched: unequal job counts passed")
	}
	if err := checkFigBurst([]byte(`{"points":[{"params":[{"name":"nodes","value":"5"}],
		"values":[{"name":"direct_gibps","value":3},{"name":"staged_gibps","value":2}]}]}`)); err == nil {
		t.Error("figburst: staged below direct passed")
	}
}

func TestCompareResults(t *testing.T) {
	mk := func(cost, events float64) Result {
		r := Result{Seed: 1, Workloads: map[string]*WorkloadResult{}}
		for _, w := range Workloads {
			wr := &WorkloadResult{EndToEnd: map[string]Stat{}, PerLayer: map[string]Stat{}}
			for _, m := range EndToEnd {
				wr.EndToEnd[m.Name] = Stat{Value: cost}
			}
			for _, m := range PerLayer {
				wr.PerLayer[m.Name] = Stat{Value: events}
			}
			r.Workloads[w.Name] = wr
		}
		return r
	}
	var sink strings.Builder
	if n := compareResults(&sink, mk(10, 7), mk(10.1, 7)); n != 0 {
		t.Errorf("1%% apart: %d breaches\n%s", n, sink.String())
	}
	// 4% apart breaches the 2% bounds (mallocs_M, alloc_MiB) on every
	// workload and no other.
	if n := compareResults(&sink, mk(10, 7), mk(10.4, 7)); n != 2*len(Workloads) {
		t.Errorf("4%% apart: %d breaches, want %d", n, 2*len(Workloads))
	}
	// 40% apart also breaches peak_rss_MiB; setup_s is host seconds and
	// only unresolved.
	sink.Reset()
	if n := compareResults(&sink, mk(10, 7), mk(14, 7)); n != 3*len(Workloads) || !strings.Contains(sink.String(), "unresolved") {
		t.Errorf("40%% apart: %d breaches, want %d\n%s", n, 3*len(Workloads), sink.String())
	}
	exact := 0
	for _, m := range PerLayer {
		if m.Exact {
			exact++
		}
	}
	if n := compareResults(&sink, mk(10, 7), mk(10, 8)); n != exact*len(Workloads) {
		t.Errorf("exact counts differ: %d breaches, want %d", n, exact*len(Workloads))
	}
}
