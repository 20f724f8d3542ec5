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

// TestConcurrentRunsShareThePools: three runs on three goroutines, each
// releasing its file system, its records and its world's blocks into the
// pools the others take from, measure what each measures alone — the
// path a figure's trials take with -parallel 2. The two BP4 runs are
// worlds of 8 and 16 ranks, so blocks pass between sizes both ways. Run
// it under -race.
func TestConcurrentRunsShareThePools(t *testing.T) {
	o := testOptions()
	cells := []Run{
		{Machine: cluster.Dardel(), Nodes: 2, Config: Original},
		{Machine: cluster.Vega(), Nodes: 1, Config: BP4BloscOneAggr},
		{Machine: cluster.Dardel(), Nodes: 2, Config: BP4},
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
