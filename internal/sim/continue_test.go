package sim

import (
	"fmt"
	"runtime"
	"testing"
)

// stepSleeps is a continuation of sleeps: at each step it calls rec, then
// sleeps the next of ds, and panics at step boom (counting from 1; 0 never).
// done counts the deferred releases of the record that holds it, as a
// pooled record's owner would return it.
type stepSleeps struct {
	ds   []Duration
	i    int
	rec  func(p *Proc)
	boom int
	done int
}

func (s *stepSleeps) Step(p *Proc) (Time, bool) {
	if s.i+1 == s.boom {
		panic("step boom")
	}
	s.rec(p)
	t := p.Now() + s.ds[s.i]
	s.i++
	return t, s.i < len(s.ds)
}

// spawnSleepers spawns n processes that each record a resume at every one
// of a seeded series of sleeps and once more after the last: as a
// continuation when continued, else as a SleepUntil loop. Both record at
// the same instants; the queue can tell them apart only by its counters.
func spawnSleepers(k *Kernel, seed int64, n int, continued bool, rec func(p *Proc)) []*stepSleeps {
	ss := make([]*stepSleeps, n)
	for i := range ss {
		ds := make([]Duration, 6+i)
		for j := range ds {
			// Dyadic multiples of the mix's unit, so sums tie exactly.
			ds[j] = Duration((seed+int64(3*i+j))%5) / 16384
		}
		s := &stepSleeps{ds: ds, rec: rec}
		ss[i] = s
		k.Spawn(fmt.Sprintf("sleeper%d", i), func(p *Proc) {
			defer func() { s.done++ }()
			if continued {
				p.Continue(s)
			} else {
				for _, d := range ds {
					rec(p)
					p.SleepUntil(p.Now() + d)
					s.i++
				}
			}
			rec(p)
		})
	}
	return ss
}

// TestContinueMatchesSleeps holds a continuation to the SleepUntil loop it
// stands for, with the fast path on and off (as TestFastPathDisabled
// does for the fast path): among spawnFastPathMix's gauges, broadcasts,
// superseded wakes and kills, each sleeper's continuation resumes every
// process at the same instants in the same order, ends at the same time
// and delivers as many events as the loop, a step's pop counted in
// StepEvents instead of QueueEvents.
func TestContinueMatchesSleeps(t *testing.T) {
	type resume struct {
		name string
		at   Time
	}
	run := func(seed int64, continued, fastPath bool) (Time, KernelStats, []resume) {
		k := NewKernel()
		k.fastPath = fastPath
		var trace []resume
		rec := func(p *Proc) { trace = append(trace, resume{p.Name(), p.Now()}) }
		spawnFastPathMix(k, seed, rec)
		for _, s := range spawnSleepers(k, seed, 4, continued, rec) {
			defer func() {
				if s.done != 1 || s.i != len(s.ds) {
					t.Errorf("seed %d: a sleeper made %d of %d steps and released %d times", seed, s.i, len(s.ds), s.done)
				}
			}()
		}
		return k.Run(), k.Stats(), trace
	}
	var stepped, inline bool
	for seed := int64(1); seed <= 100; seed++ {
		wantEnd, wantStats, wantTrace := run(seed, false, false)
		for _, fastPath := range []bool{false, true} {
			end, stats, trace := run(seed, true, fastPath)
			if end != wantEnd || stats.Events() != wantStats.Events() {
				t.Fatalf("seed %d, fast path %v: end %v after %d events, the sleep loop %v after %d", seed, fastPath, end, stats.Events(), wantEnd, wantStats.Events())
			}
			if len(trace) != len(wantTrace) {
				t.Fatalf("seed %d, fast path %v: %d resumes, the sleep loop %d", seed, fastPath, len(trace), len(wantTrace))
			}
			for i := range trace {
				if trace[i] != wantTrace[i] {
					t.Fatalf("seed %d, fast path %v: resume %d is %+v, the sleep loop's %+v", seed, fastPath, i, trace[i], wantTrace[i])
				}
			}
			if !fastPath && (stats.FastPathEvents != 0 || stats.StepEvents == 0 || stats.QueueEvents+stats.StepEvents != wantStats.QueueEvents) {
				t.Fatalf("seed %d: with the fast path off %+v, the sleep loop %+v", seed, stats, wantStats)
			}
			stepped = stepped || stats.StepEvents > 0
			inline = inline || fastPath && stats.FastPathEvents > 0
		}
	}
	if !stepped || !inline {
		t.Fatalf("no seed ran a step from the queue (%v) or a step's sleep in-line (%v)", stepped, inline)
	}
}

// TestContinueKilled: a kill landing while a process waits between steps
// unwinds it as a kill inside a sleep does — at the kill's instant, its
// deferred functions run (a pooled record's owner gets it back there), no
// step after the kill runs — and Run ends clean, the carrier idle with no
// step held.
func TestContinueKilled(t *testing.T) {
	baseline := runtime.NumGoroutine() - idleCarriers()
	k := NewKernel()
	var at []Time
	s := &stepSleeps{ds: []Duration{0.5, 1, 1, 1, 1}, rec: func(p *Proc) { at = append(at, p.Now()) }}
	var diedAt Time
	victim := k.Spawn("victim", func(p *Proc) {
		defer func() { s.done++; diedAt = p.Now() }()
		p.Continue(s)
		t.Error("a killed continuation returned")
	})
	k.Spawn("killer", func(p *Proc) {
		p.Sleep(3)
		k.Kill(victim)
	})
	if end := k.Run(); end != 3 {
		t.Fatalf("Run ended at %v, want 3", end)
	}
	if fmt.Sprint(at) != "[0 0.5 1.5 2.5]" || s.done != 1 || diedAt != 3 {
		t.Fatalf("steps at %v, released %d times, died at %v; want steps at [0 0.5 1.5 2.5], one release at 3", at, s.done, diedAt)
	}
	if victim.stepping {
		t.Fatal("a dead process is still stepping")
	}
	for c := range idleSet() {
		if c.step != nil {
			t.Fatal("an idle carrier holds a step")
		}
	}
	if got := runtime.NumGoroutine() - idleCarriers(); got > baseline {
		t.Fatalf("%d goroutines after Run beside the idle carriers, %d before", got, baseline)
	}
}

// TestContinuePanics: a panic out of a step is its process's, whether the
// step ran in-line in the process or from the queue in Run's loop: Run
// reports it as it reports a body's, after unwinding the world — a
// process waiting between steps included — so no goroutine is left.
func TestContinuePanics(t *testing.T) {
	for _, boom := range []int{1, 3} {
		baseline := runtime.NumGoroutine()
		k := NewKernel()
		deferred := unwoundWorld(k, 10, false)
		rec := func(*Proc) {}
		// Its step at 0.55 sends the stepper's second step, at 0.6, through
		// the queue: the third, the one that panics with boom 3, runs in
		// Run's loop. With boom 1 the panic is the first step's, in-line.
		waiting := &stepSleeps{ds: []Duration{0.25, 0.3, 100, 1}, rec: rec}
		k.Spawn("waiting", func(p *Proc) {
			defer func() { waiting.done++ }()
			p.Continue(waiting)
		})
		s := &stepSleeps{ds: []Duration{0.1, 0.1, 0.1}, rec: rec, boom: boom}
		k.SpawnAt(0.5, "stepper", func(p *Proc) {
			defer func() { s.done++ }()
			p.Continue(s)
		})
		if r, want := runRecovered(k), `sim: process "stepper" panicked: step boom`; r != want {
			t.Fatalf("boom at step %d: Run panicked with %v, want %q", boom, r, want)
		}
		checkUnwound(t, baseline, append(deferred, waiting.done, s.done))
		if k.inStep != nil {
			t.Fatal("the kernel still names a process in a step")
		}
	}
}
