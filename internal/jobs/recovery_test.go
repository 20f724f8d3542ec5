package jobs_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"picmcio/internal/cluster"
	"picmcio/internal/fault"
	"picmcio/internal/jobs"
	"picmcio/internal/units"
)

// TestRecoveryFence pins every fault.Report field of four job kinds — a
// staged flat job losing one node, the same job losing every node, a
// staged rank job over uneven aggregator groups losing every node, and a
// direct job losing one node — under both survivability models at two
// kill fractions, against testdata/recovery.txt. A divergence is saved as
// testdata/recovery.got.txt.
func TestRecoveryFence(t *testing.T) {
	kinds := []struct {
		name   string
		specs  func(f *fault.Spec) []jobs.Spec
		victim int
		spec   fault.Spec
	}{
		{"flat-node", faultSpecs, 0, fault.Spec{KillEpoch: 2, Node: 0, RestartDelay: 0.05}},
		{"flat-whole", faultSpecs, 0, fault.Spec{KillEpoch: 1, WholeJob: true, RestartDelay: 0.1}},
		{"rank-whole", func(f *fault.Spec) []jobs.Spec {
			s := rankSpec(3, 2)
			s.Fault = f
			return []jobs.Spec{s}
		}, 0, fault.Spec{KillEpoch: 1, WholeJob: true, RestartDelay: 0.05}},
		{"direct", func(f *fault.Spec) []jobs.Spec {
			s := faultSpecs(nil)
			s[1].Fault = f
			return s
		}, 1, fault.Spec{KillEpoch: 2, Node: 1, RestartDelay: 0.05}},
	}
	var b strings.Builder
	fmt.Fprintln(&b, "kind        survive  frac  buffered  durable  restart  lost_ep_buf  lost_ep_pfs  lost_bytes  redrain_bytes  durable_s")
	for _, k := range kinds {
		for _, sv := range []fault.Survivability{fault.SurviveNone, fault.SurviveNVMe} {
			for _, frac := range []float64{0.25, 0.75} {
				f := k.spec
				f.Survival, f.KillFrac = sv, frac
				res, err := jobs.Run(cluster.Dardel(), k.specs(&f), 1)
				if err != nil {
					t.Fatalf("%s %s %v: %v", k.name, sv, frac, err)
				}
				r := res[k.victim]
				rep := r.Fault
				if rep == nil {
					t.Fatalf("%s %s %v: no fault report", k.name, sv, frac)
				}
				fmt.Fprintf(&b, "%-11s %-8s %-5v %-9d %-8d %-8d %-12d %-12d %-11d %-14d %.9g\n",
					k.name, sv, frac, rep.BufferedEpochs, rep.DurableEpochs, rep.RestartEpoch,
					rep.LostEpochsBuffered, rep.LostEpochsPFS, rep.LostBytes, rep.RedrainBytes, r.DurableSec)
			}
		}
	}
	want, err := os.ReadFile(filepath.Join("testdata", "recovery.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		path := filepath.Join("testdata", "recovery.got.txt")
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Logf("could not save diverging output: %v", err)
		}
		t.Fatalf("recovery positions diverged (saved to %s):\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// TestRecoveryZeroBytes: a job that stages nothing has nothing to lose
// to a node, so a whole-job kill restarts it from its buffered position —
// the same report whether the workload is flat or aggregating.
func TestRecoveryZeroBytes(t *testing.T) {
	f := fault.Spec{KillEpoch: 1, KillFrac: 0.5, WholeJob: true, Survival: fault.SurviveNone, RestartDelay: 0.05}
	var reps []fault.Report
	for _, wl := range []jobs.Workload{
		jobs.ChunkedWriter{Epochs: 3, ComputeSec: 0.02, ChunkBytes: 16 * units.MiB},
		jobs.RankWorkload{Epochs: 3, RanksPerNode: 4, ComputeSec: 0.02, ChunkBytes: 16 * units.MiB},
	} {
		spec := rankSpec(2, 1)
		spec.Workload, spec.Fault = wl, &f
		res, err := jobs.Run(cluster.Dardel(), []jobs.Spec{spec}, 1)
		if err != nil {
			t.Fatal(err)
		}
		if res[0].Fault == nil {
			t.Fatalf("%T: no fault report", wl)
		}
		reps = append(reps, *res[0].Fault)
	}
	want := fault.Report{Spec: f, BufferedEpochs: 2, DurableEpochs: 2, RestartEpoch: 2}
	for i, name := range []string{"ChunkedWriter", "RankWorkload"} {
		if reps[i] != want {
			t.Errorf("zero-byte %s recovered as %+v, want %+v", name, reps[i], want)
		}
	}
}
