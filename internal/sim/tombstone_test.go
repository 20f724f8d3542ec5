package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestWakeAtSupersedesPendingWake is the regression test for the stale
// heap entry bug: a WakeAt earlier than a pending scheduled resumption
// used to leave the later entry in the queue, and it re-fired — resuming
// the process a second time without anyone waking it. With tombstoning,
// the latest wake is the only one delivered.
func TestWakeAtSupersedesPendingWake(t *testing.T) {
	k := NewKernel()
	var resumes []Time
	sleeper := k.Spawn("sleeper", func(p *Proc) {
		p.Park() // woken by the waker below
		resumes = append(resumes, p.Now())
		p.Park() // must stay parked until the t=20 wake, not the stale t=10 entry
		resumes = append(resumes, p.Now())
	})
	k.Spawn("waker", func(p *Proc) {
		p.k.WakeAt(10, sleeper) // pending resumption at 10...
		p.k.WakeAt(2, sleeper)  // ...superseded by an earlier one
		p.Sleep(20)
		p.k.Wake(sleeper) // the only legitimate second wake, at 20
	})
	k.Run()
	if len(resumes) != 2 || resumes[0] != 2 || resumes[1] != 20 {
		t.Fatalf("resumes = %v, want [2 20] (stale entry at 10 must not re-fire)", resumes)
	}
}

// TestWakeAtLaterSupersedes is the mirror case: re-waking at a later
// time moves the pending resumption instead of delivering both.
func TestWakeAtLaterSupersedes(t *testing.T) {
	k := NewKernel()
	var resumes []Time
	sleeper := k.Spawn("sleeper", func(p *Proc) {
		p.Park()
		resumes = append(resumes, p.Now())
	})
	k.Spawn("waker", func(p *Proc) {
		p.k.WakeAt(3, sleeper)
		p.k.WakeAt(7, sleeper)
	})
	k.Run()
	if len(resumes) != 1 || resumes[0] != 7 {
		t.Fatalf("resumes = %v, want [7] (latest wake wins, delivered once)", resumes)
	}
}

// TestKillSupersedesPendingSleep kills a victim whose sleep resumption is
// already queued: the kill must land at the kill time, and the victim's
// own (now stale) sleep event must neither resume it nor advance the
// clock past the rest of the run.
func TestKillSupersedesPendingSleep(t *testing.T) {
	k := NewKernel()
	resumed := false
	var diedAt Time
	victim := k.Spawn("victim", func(p *Proc) {
		defer func() { diedAt = p.Now() }()
		p.Sleep(1000)
		resumed = true
	})
	k.Spawn("killer", func(p *Proc) {
		p.Sleep(4)
		p.k.Kill(victim)
	})
	if end := k.Run(); end != 4 {
		t.Fatalf("run ended at %v, want 4", end)
	}
	if resumed || diedAt != 4 {
		t.Fatalf("victim resumed=%v diedAt=%v, want death at 4 without resuming", resumed, diedAt)
	}
}

// TestSelfKillThenSleep has a process kill itself while running: the
// pending kill must not be overtaken by the subsequent sleep, and the
// process must die at the kill instant.
func TestSelfKillThenSleep(t *testing.T) {
	k := NewKernel()
	var diedAt Time
	resumed := false
	k.Spawn("suicidal", func(p *Proc) {
		defer func() { diedAt = p.Now() }()
		p.Sleep(2)
		p.k.Kill(p) // takes effect at the next suspension
		p.Sleep(50)
		resumed = true
	})
	end := k.Run()
	if resumed {
		t.Fatal("self-killed process resumed past its sleep")
	}
	if diedAt != 2 || end != 2 {
		t.Fatalf("diedAt=%v end=%v, want both 2 (kill beats the t=52 sleep entry)", diedAt, end)
	}
}

// TestKillDuringPooledWait parks several waiters on a Completion, kills
// some of them, then completes — and then reuses the (recycled) wait
// list for a second cycle. Dead procs must never resurrect, and the
// recycled backing array must not leak wakes between primitives.
func TestKillDuringPooledWait(t *testing.T) {
	k := NewKernel()
	c1 := NewCompletion(k)
	c2 := NewCompletion(k)
	var woke1, woke2 []string
	victims := make([]*Proc, 0, 2)
	for _, name := range []string{"a", "b", "c", "d"} {
		name := name
		p := k.Spawn(name, func(p *Proc) {
			c1.Wait(p)
			woke1 = append(woke1, p.Name())
			c2.Wait(p)
			woke2 = append(woke2, p.Name())
		})
		if name == "b" || name == "d" {
			victims = append(victims, p)
		}
	}
	k.Spawn("driver", func(p *Proc) {
		p.Sleep(1)
		for _, v := range victims {
			p.k.Kill(v)
		}
		p.Sleep(1)
		c1.Complete() // wait list recycles into the kernel pool here
		p.Sleep(1)
		c2.Complete() // second cycle runs on a recycled array
	})
	k.Run()
	if got, want := len(woke1), 2; got != want {
		t.Fatalf("first cycle woke %v, want the 2 surviving procs", woke1)
	}
	for _, n := range woke1 {
		if n == "b" || n == "d" {
			t.Fatalf("killed proc %q resurrected through the pooled wait list", n)
		}
	}
	if len(woke2) != 2 {
		t.Fatalf("second cycle woke %v, want the same 2 survivors", woke2)
	}
}

// TestKillDuringFastPathSleepStorm interleaves a killer with a victim
// running mostly fast-path (run-to-completion) sleeps: the kill must
// still land at the next suspension after it is issued, proving the fast
// path checks for a pending death and no recycled event resurrects the
// victim afterwards.
func TestKillDuringFastPathSleepStorm(t *testing.T) {
	k := NewKernel()
	steps := 0
	victim := k.Spawn("victim", func(p *Proc) {
		for i := 0; i < 1000; i++ {
			p.Sleep(0.5)
			steps++
		}
	})
	k.Spawn("killer", func(p *Proc) {
		p.Sleep(10.25)
		p.k.Kill(victim)
	})
	end := k.Run()
	if end != 10.25 {
		t.Fatalf("run ended at %v, want 10.25", end)
	}
	// The victim completed the sleeps that ended at or before 10.25
	// (t=0.5 … 10) and died inside the next one.
	if steps != 20 {
		t.Fatalf("victim completed %d steps, want 20", steps)
	}
}

// TestStatsCounters sanity-checks the scheduler counters: a pure timer
// workload should resume mostly through the fast path, and superseded
// wakes should surface as stale tombstones.
func TestStatsCounters(t *testing.T) {
	k := NewKernel()
	sleeper := k.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Sleep(1)
		}
	})
	_ = sleeper
	k.Run()
	st := k.Stats()
	if st.FastPathEvents < 90 {
		t.Fatalf("FastPathEvents = %d, want nearly all of the 100 sleeps", st.FastPathEvents)
	}
	if st.Events() != st.QueueEvents+st.FastPathEvents {
		t.Fatalf("Events() = %d, want QueueEvents+FastPathEvents", st.Events())
	}

	k2 := NewKernel()
	parked := k2.Spawn("parked", func(p *Proc) { p.Park() })
	k2.Spawn("waker", func(p *Proc) {
		p.k.WakeAt(5, parked)
		p.k.WakeAt(1, parked)
	})
	k2.Run()
	if st2 := k2.Stats(); st2.Stale == 0 {
		t.Fatalf("Stale = 0, want the superseded wake counted; stats %+v", st2)
	}
}

// spawnFastPathMix spawns a seeded mix of everything that can interact
// with the timer fast path: gauge traffic with barrier waiters, a timed
// broadcast, superseded wakes of a parked process, and kills landing on a
// sleep storm, on a process parked forever and on one that has not
// started. Durations are small multiples of a dyadic unit, so equal sums
// tie exactly and the strict `>` in SleepUntil decides the order. All
// randomness is drawn here, at spawn time; rec is called after every
// resume.
func spawnFastPathMix(k *Kernel, seed int64, rec func(p *Proc)) {
	rng := rand.New(rand.NewSource(seed))
	const u = Duration(1) / 16384
	durs := func(n int) []Duration {
		ds := make([]Duration, n)
		for i := range ds {
			ds[i] = u * Duration(1+rng.Intn(8))
		}
		return ds
	}

	// Producers hold the gauge up while they work; barriers wait for
	// its zero crossings.
	g := NewGauge(k)
	for i := 0; i < 3; i++ {
		ds := durs(8)
		k.Spawn(fmt.Sprintf("producer%d", i), func(p *Proc) {
			for j := 0; j < len(ds); j += 2 {
				g.Add(1)
				p.Sleep(ds[j])
				rec(p)
				g.Add(-1)
				p.Sleep(ds[j+1])
				rec(p)
			}
		})
	}
	for i := 0; i < 2; i++ {
		ds := durs(4)
		k.Spawn(fmt.Sprintf("barrier%d", i), func(p *Proc) {
			for _, d := range ds {
				p.Sleep(d)
				rec(p)
				g.Wait(p)
				rec(p)
			}
		})
	}

	// A timed broadcast releasing three waiters at one instant.
	c := NewCompletion(k)
	for i := 0; i < 3; i++ {
		k.Spawn(fmt.Sprintf("waiter%d", i), func(p *Proc) {
			c.Wait(p)
			rec(p)
			p.Sleep(u)
			rec(p)
		})
	}
	cd := durs(2)
	k.Spawn("completer", func(p *Proc) {
		p.Sleep(cd[0])
		rec(p)
		c.CompleteAt(p.Now() + cd[1])
	})

	// Each round's second WakeAt supersedes the first, leaving a
	// tombstone; the waker then sleeps past the wake so the parker is
	// parked again for the next round.
	const rounds = 4
	wd := durs(3 * rounds)
	parker := k.Spawn("parker", func(p *Proc) {
		for i := 0; i < rounds; i++ {
			p.Park()
			rec(p)
		}
	})
	k.Spawn("waker", func(p *Proc) {
		for i := 0; i < rounds; i++ {
			a, b := wd[3*i], wd[3*i+1]
			k.WakeAt(p.Now()+a, parker)
			k.WakeAt(p.Now()+b, parker)
			p.Sleep(b + wd[3*i+2])
			rec(p)
		}
	})

	// Kills fire at 4–32 units: inside the sleep storm, while the
	// parked victim's gauge is still held, and before the late victim's
	// start at 40 units.
	stuck := NewGauge(k)
	stuck.Add(1)
	victims := []*Proc{
		k.Spawn("victim.storm", func(p *Proc) {
			for i := 0; i < 1000; i++ {
				p.Sleep(u / 2)
				rec(p)
			}
		}),
		k.Spawn("victim.parked", func(p *Proc) {
			stuck.Wait(p)
			rec(p)
		}),
		k.SpawnAt(40*u, "victim.unstarted", func(p *Proc) { rec(p) }),
	}
	for i, d := range durs(len(victims)) {
		v := victims[i]
		k.Spawn(fmt.Sprintf("killer%d", i), func(p *Proc) {
			p.Sleep(4 * d)
			rec(p)
			k.Kill(v)
		})
	}
}

// TestFastPathDisabled checks the fast path against its reference: with
// fastPath cleared every sleep goes through the queue, and the
// BenchmarkKernelScale timer storm running alongside spawnFastPathMix
// must end at the same time, resume every process at the same instants
// in the same order, and count the same events as with it set.
func TestFastPathDisabled(t *testing.T) {
	type resume struct {
		name string
		at   Time
	}
	run := func(seed int64, fastPath bool) (Time, KernelStats, []resume) {
		k := NewKernel()
		k.fastPath = fastPath
		var trace []resume
		rec := func(p *Proc) { trace = append(trace, resume{p.Name(), p.Now()}) }
		spawnKernelScale(k, 16, rec)
		spawnFastPathMix(k, seed, rec)
		return k.Run(), k.Stats(), trace
	}
	for seed := int64(1); seed <= 100; seed++ {
		slowEnd, slowStats, slowTrace := run(seed, false)
		fastEnd, fastStats, fastTrace := run(seed, true)
		if slowStats.FastPathEvents != 0 {
			t.Fatalf("seed %d: FastPathEvents = %d with the fast path disabled", seed, slowStats.FastPathEvents)
		}
		if fastStats.FastPathEvents == 0 || fastStats.QueueEvents == 0 || fastStats.Stale == 0 {
			t.Fatalf("seed %d: schedule does not exercise both paths and tombstones: %+v", seed, fastStats)
		}
		if slowEnd != fastEnd {
			t.Fatalf("seed %d: end time diverged: slow %v fast %v", seed, slowEnd, fastEnd)
		}
		if slowStats.Events() != fastStats.Events() {
			t.Fatalf("seed %d: event count diverged: slow %d fast %d", seed, slowStats.Events(), fastStats.Events())
		}
		if len(slowTrace) != len(fastTrace) {
			t.Fatalf("seed %d: trace length diverged: slow %d fast %d", seed, len(slowTrace), len(fastTrace))
		}
		for i := range slowTrace {
			if slowTrace[i] != fastTrace[i] {
				t.Fatalf("seed %d: resume %d diverged: slow %+v fast %+v", seed, i, slowTrace[i], fastTrace[i])
			}
		}
	}
}
