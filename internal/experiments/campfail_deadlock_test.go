package experiments

import (
	"fmt"
	"testing"

	"picmcio/internal/burst"
	"picmcio/internal/cluster"
	"picmcio/internal/fault"
	"picmcio/internal/jobs"
	"picmcio/internal/sweep"
)

// runKill runs the campfail co-schedule with one kill placed at frac of
// epoch 2's compute phase, turning a kernel panic into an error.
func runKill(pol burst.Policy, node int, frac float64) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%v", r)
		}
	}()
	m := cluster.Dardel()
	f := &fault.Spec{KillEpoch: 2, KillFrac: frac, Node: node, Survival: m.NVMeSurvival, RestartDelay: 0.05}
	_, err = jobs.Run(m, faultScenario(pol, burst.QoS{}, f), 1)
	return err
}

// TestKillDuringDeferredClose is the campfail reproducer
// (`experiments -run campfail -campaign-runs 20000 -campaign-mtbf 500`
// died with "sim: deadlock: 2 process(es) parked with no pending
// events"): a kill that reaches the victim's drain worker while it is
// blocked in a drained file's deferred close used to skip the tier's
// pending-gauge release, so every surviving writer parked in WaitDrained
// forever on bytes that were already durable.
func TestKillDuringDeferredClose(t *testing.T) {
	if err := runKill(burst.PolicyImmediate, 1, 0.41922042699903361); err != nil {
		t.Fatal(err)
	}
}

// TestKillFracSweepNeverDeadlocks walks the kill across the whole compute
// phase — 2000 steps × both victim nodes × both drain policies — so the
// narrow windows where the kill meets the drain worker between segments
// (a few 1/2000 steps wide each) are all crossed.
func TestKillFracSweepNeverDeadlocks(t *testing.T) {
	const steps = 2000
	pols := []burst.Policy{burst.PolicyImmediate, burst.PolicyEpochEnd}
	err := sweep.ForEach(steps*2*len(pols), 4, func(i int) error {
		pol, node, step := pols[i/(2*steps)], i/steps%2, i%steps
		frac := float64(step) / steps
		if err := runKill(pol, node, frac); err != nil {
			return fmt.Errorf("%v node %d KillFrac %v: %w", pol, node, frac, err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
