package experiments

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"picmcio/internal/cluster"
	"picmcio/internal/darshan"
)

// fingerprint is everything a run measured, its Darshan log included,
// as text; it releases the result.
func fingerprint(t *testing.T, r *RunResult) string {
	t.Helper()
	var b bytes.Buffer
	if err := r.Darshan.Snapshot(darshan.JobMeta{Executable: "bit1"}).Encode(&b); err != nil {
		t.Fatal(err)
	}
	r.release()
	res := *r
	res.Darshan = nil
	var profile, burst any
	if res.Profile != nil {
		profile = *res.Profile
	}
	if res.Burst != nil {
		burst = *res.Burst
	}
	res.Profile, res.Burst = nil, nil
	return fmt.Sprintf("%+v %+v %+v %x", res, profile, burst, b.Bytes())
}

// TestConcurrentRunsShareThePools: four runs on four goroutines, each
// releasing its file system, its records and its world's blocks into the
// pools the others take from, measure what each measures alone — the
// path a figure's trials take with -parallel 2. The BP4 runs are worlds
// of 8 and 16 ranks, so blocks pass between sizes both ways, and two of
// 16 with 2 and 16 aggregators, so split storage cut for different group
// counts does too. Run it under -race.
func TestConcurrentRunsShareThePools(t *testing.T) {
	o := testOptions()
	cells := []Run{
		{Machine: cluster.Dardel(), Nodes: 2, Config: Original},
		{Machine: cluster.Vega(), Nodes: 1, Config: BP4BloscOneAggr},
		{Machine: cluster.Dardel(), Nodes: 2, Config: BP4},
		{Machine: cluster.Dardel(), Nodes: 2, Config: bp4("BIT1 openPMD + BP4 + 16 AGGR", func(int) int { return 16 })},
	}
	want := make([]string, len(cells))
	for i, run := range cells {
		r, err := o.RunBIT1(run)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = fingerprint(t, r)
	}
	var wg sync.WaitGroup
	for i, run := range cells {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := range 3 {
				r, err := o.RunBIT1(run)
				if err != nil {
					t.Error(err)
					return
				}
				if got := fingerprint(t, r); got != want[i] {
					t.Errorf("%s, round %d beside the other runs: measured differently from the serial run", run.Config.Label, round)
				}
			}
		}()
	}
	wg.Wait()
}

// TestArtifactsIgnoreWhatRanBefore: the paper's artifacts and the scenario
// figures that reach the BP4 path render the same text whatever ran
// before them in the process — forward serially, backward serially, then
// forward two trials at a time — so storage a finished run gave back to
// the pools leaves nothing behind in the next.
func TestArtifactsIgnoreWhatRanBefore(t *testing.T) {
	names := []string{"fig2", "fig3", "fig6", "fig9", "figburst", "figworkload", "tab2"}
	o := Options{Seed: 1, RanksPerNode: 8, NodeCounts: []int{1, 2}, DiagEpochs: 1}
	const nodes = 2
	first := map[string]string{}
	render := func(pass string, name string, parallel int) {
		a, ok := Lookup(name)
		if !ok {
			t.Fatalf("no artifact %q", name)
		}
		o.Parallel = parallel
		out, err := a.Run(o, nodes)
		if err != nil {
			t.Fatalf("%s, %s: %v", name, pass, err)
		}
		if want, ok := first[name]; !ok {
			first[name] = out.Text
		} else if out.Text != want {
			t.Errorf("%s, %s: the text differs from the first pass's:\n--- got ---\n%s\n--- want ---\n%s", name, pass, out.Text, want)
		}
	}
	for _, name := range names {
		render("forward at -parallel 1", name, 1)
	}
	for i := len(names) - 1; i >= 0; i-- {
		render("backward at -parallel 1", names[i], 1)
	}
	for _, name := range names {
		render("forward at -parallel 2", name, 2)
	}
}
