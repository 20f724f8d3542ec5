package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// A broadcast is one queue entry carrying its whole process list
// (Kernel.release). The per-waiter form it replaced stays here as its
// oracle: one WakeAt per waiter in list order, and, for a rendezvous, the
// last arriver's own SleepUntil behind them.

// oracleList is the wait list of the oracle's primitives.
type oracleList struct {
	k  *Kernel
	ws []*Proc
}

func (w *oracleList) park(p *Proc) {
	w.ws = append(w.ws, p)
	p.Park()
}

func (w *oracleList) wakeAllAt(t Time) {
	ws := w.ws
	w.ws = nil
	for _, q := range ws {
		w.k.WakeAt(t, q)
	}
}

// oracleCompletion and oracleGauge are Completion and Gauge on oracleList.
type oracleCompletion struct {
	done bool
	w    oracleList
}

func (c *oracleCompletion) Wait(p *Proc) {
	if !c.done {
		c.w.park(p)
	}
}

func (c *oracleCompletion) CompleteAt(t Time) {
	checkTime(t)
	if !c.done {
		c.done = true
		c.w.wakeAllAt(t)
	}
}

type oracleGauge struct {
	v int64
	w oracleList
}

func (g *oracleGauge) Add(d int64) {
	if g.v += d; g.v == 0 {
		g.w.wakeAllAt(g.w.k.now)
	}
}

func (g *oracleGauge) Wait(p *Proc) {
	for g.v != 0 {
		g.w.park(p)
	}
}

// oracleRelease is a rendezvous' release as the MPI layer made it: a
// WakeAt of every parked member in list order, then the last arriver's
// SleepUntil.
func oracleRelease(p *Proc, t Time, ws []*Proc) {
	for _, q := range ws {
		if q != p {
			p.k.WakeAt(t, q)
		}
	}
	p.SleepUntil(t)
}

type (
	broadcast interface {
		Wait(p *Proc)
		CompleteAt(t Time)
	}
	counter interface {
		Add(d int64)
		Wait(p *Proc)
	}
)

// rendezvous is a group whose last arriver releases the others — the shape
// of an MPI collective — over a slab of parking slots that it never
// clears: the last arriver's own slot may still hold it, and a member
// resumed early (by a stray wake) parks into its slot again, while the
// batch that holds the slab is being delivered.
type rendezvous struct {
	released, arrived int
	parked            []*Proc
}

func (g *rendezvous) enter(p *Proc, idx, round int, delay Duration, release func(p *Proc, t Time, ws []*Proc), onRelease func()) {
	g.arrived++
	if g.arrived < len(g.parked) {
		g.parked[idx] = p
		for g.released <= round {
			p.Park()
		}
		return
	}
	g.arrived = 0
	g.released++
	onRelease()
	release(p, p.Now()+delay, g.parked)
}

// spawnReleaseMix spawns a seeded mix of everything a batch release meets:
// rendezvous groups, a timed broadcast and a gauge whose zero crossings
// are undone at once, so its waiters park in it again; kills of members
// before a release and between a release and its wake-up, the last
// arriver's among them; and stray wakes, earlier and later than the
// release's, of members in every state. With oracle the primitives are the
// per-waiter forms above. Durations are small multiples of a dyadic unit,
// so instants tie exactly; all randomness is drawn here, at spawn time.
// rec is called after every resume.
func spawnReleaseMix(k *Kernel, seed int64, oracle bool, rec func(p *Proc)) {
	rng := rand.New(rand.NewSource(seed))
	const u = Duration(1) / 1024
	dur := func(hi int) Duration { return u * Duration(rng.Intn(hi+1)) }

	release := (*Proc).WakeAllAndSleepUntil
	var c broadcast = NewCompletion(k)
	var g counter = NewGauge(k)
	if oracle {
		release = oracleRelease
		c = &oracleCompletion{w: oracleList{k: k}}
		g = &oracleGauge{w: oracleList{k: k}}
	}

	// disturber returns a process body, drawn now, that waits up to 6
	// units, kills one of procs (if kill), and wakes another at up to 6
	// units from then.
	disturber := func(procs []*Proc, kill bool) func(p *Proc) {
		wait, victim, woken, at := dur(6), rng.Intn(len(procs)), rng.Intn(len(procs)), dur(6)
		return func(p *Proc) {
			p.Sleep(wait)
			rec(p)
			if kill {
				k.Kill(procs[victim])
			}
			k.WakeAt(p.Now()+at, procs[woken])
		}
	}

	// Rendezvous groups: a release may spawn a disturber, which may kill
	// only in the last round — a member killed earlier would never arrive
	// — where the last arriver may also kill a member that is waiting, so
	// that the release leaves it out (and, in a group of two, has nobody
	// to release).
	for gi := 0; gi < 2; gi++ {
		size, rounds := 2+rng.Intn(5), 2+rng.Intn(3)
		grp := &rendezvous{parked: make([]*Proc, size)}
		members := make([]*Proc, size)
		delays := make([]Duration, rounds)
		for r := range delays {
			delays[r] = dur(4)
		}
		onRelease := make([]func(p *Proc), rounds)
		for r := range onRelease {
			if rng.Intn(3) > 0 {
				onRelease[r] = disturber(members, r == rounds-1)
			}
		}
		early := rng.Intn(2 * size) // a member to kill at the last release, if < size
		for i := range members {
			sleeps := make([]Duration, rounds)
			for r := range sleeps {
				sleeps[r] = dur(6)
			}
			members[i] = k.Spawn(fmt.Sprintf("g%d.%d", gi, i), func(p *Proc) {
				for r := range rounds {
					p.Sleep(sleeps[r])
					rec(p)
					grp.enter(p, i, r, delays[r], release, func() {
						if r == rounds-1 && early < size && members[early] != p {
							k.Kill(members[early])
						}
						if onRelease[r] != nil {
							k.Spawn(fmt.Sprintf("g%d.disturb%d", gi, r), onRelease[r])
						}
					})
					rec(p)
				}
			})
		}
	}

	// A timed broadcast: waiters, one killed at a random instant, and a
	// disturber spawned at the release.
	waiters := make([]*Proc, 3+rng.Intn(3))
	for i := range waiters {
		before := dur(6)
		waiters[i] = k.Spawn(fmt.Sprintf("c.%d", i), func(p *Proc) {
			p.Sleep(before)
			rec(p)
			c.Wait(p)
			rec(p)
			p.Sleep(u)
			rec(p)
		})
	}
	kill, victim := dur(10), waiters[rng.Intn(len(waiters))]
	k.Spawn("c.killer", func(p *Proc) {
		p.Sleep(kill)
		rec(p)
		k.Kill(victim)
	})
	at, delay, disturb := dur(8), dur(4), disturber(waiters, true)
	k.Spawn("c.completer", func(p *Proc) {
		p.Sleep(at)
		rec(p)
		k.Spawn("c.disturb", disturb)
		c.CompleteAt(p.Now() + delay)
	})

	// A gauge: producers whose zero crossings are sometimes undone at the
	// same instant, waiters that wait for it three times, and a killer.
	for i := 0; i < 2; i++ {
		steps := make([]Duration, 9)
		for j := range steps {
			steps[j] = dur(4)
		}
		undo := rng.Intn(2) == 0
		k.Spawn(fmt.Sprintf("g.producer%d", i), func(p *Proc) {
			for j := 0; j < len(steps); j += 3 {
				g.Add(1)
				p.Sleep(steps[j])
				rec(p)
				g.Add(-1)
				if undo {
					g.Add(1) // the waiters just released find it held again
					p.Sleep(steps[j+1])
					rec(p)
					g.Add(-1)
				}
				p.Sleep(steps[j+2])
				rec(p)
			}
		})
	}
	gaugeWaiters := make([]*Proc, 2+rng.Intn(2))
	for i := range gaugeWaiters {
		sleeps := []Duration{dur(6), dur(6), dur(6)}
		gaugeWaiters[i] = k.Spawn(fmt.Sprintf("g.waiter%d", i), func(p *Proc) {
			for _, d := range sleeps {
				p.Sleep(d)
				rec(p)
				g.Wait(p)
				rec(p)
			}
		})
	}
	gkill, gvictim := dur(20), gaugeWaiters[rng.Intn(len(gaugeWaiters))]
	k.Spawn("g.killer", func(p *Proc) {
		p.Sleep(gkill)
		rec(p)
		k.Kill(gvictim)
	})
}

// TestBatchReleaseMatchesPerWaiterWakes: over 100 seeds, a release as one
// queue entry resumes every process at the same instants in the same
// order, counts the same events and the same tombstones, and ends at the
// same time as one WakeAt per waiter — on the fast path and on its
// reference.
func TestBatchReleaseMatchesPerWaiterWakes(t *testing.T) {
	type resume struct {
		name string
		at   Time
	}
	run := func(seed int64, oracle, fastPath bool) (Time, KernelStats, []resume) {
		k := NewKernel()
		k.fastPath = fastPath
		var trace []resume
		spawnReleaseMix(k, seed, oracle, func(p *Proc) { trace = append(trace, resume{p.Name(), p.Now()}) })
		return k.Run(), k.Stats(), trace
	}
	var stale, fast uint64
	for seed := int64(1); seed <= 100; seed++ {
		for _, fastPath := range []bool{true, false} {
			wantEnd, wantStats, want := run(seed, true, fastPath)
			end, stats, got := run(seed, false, fastPath)
			if end != wantEnd || stats != wantStats {
				t.Fatalf("seed %d, fastPath %v: ended at %v with %+v, per-waiter wakes at %v with %+v", seed, fastPath, end, stats, wantEnd, wantStats)
			}
			if len(got) != len(want) {
				t.Fatalf("seed %d, fastPath %v: %d resumes, per-waiter wakes %d", seed, fastPath, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %d, fastPath %v: resume %d is %+v, per-waiter wakes %+v", seed, fastPath, i, got[i], want[i])
				}
			}
			stale += stats.Stale
			fast += stats.FastPathEvents
		}
	}
	if stale == 0 || fast == 0 {
		t.Fatalf("the mix never exercised tombstones (%d) or the fast path (%d)", stale, fast)
	}
}

// A release allocates nothing once warm: neither a rendezvous of 64
// processes released by its last arriver, nor a gauge's broadcast to them.
func TestBatchReleaseAllocatesNothing(t *testing.T) {
	const n, rounds = 64, 1000
	k := NewKernel()
	g := NewGauge(k)
	grp := &rendezvous{parked: make([]*Proc, n)}
	for i := 0; i < n; i++ {
		k.Spawn("member", func(p *Proc) {
			for r := range rounds {
				grp.enter(p, i, r, 1, (*Proc).WakeAllAndSleepUntil, func() {})
				g.Wait(p)
			}
		})
	}
	k.Spawn("holder", func(p *Proc) {
		g.Add(1)
		p.Sleep(1.5)
		cycle := func() {
			g.Add(-1) // releases the members parked on it, into a rendezvous
			p.Sleep(0.5)
			g.Add(1) // held again before they leave it
			p.Sleep(0.5)
		}
		cycle() // grows the queue and fills the pools
		if perCycle := testing.AllocsPerRun(rounds/2, cycle); perCycle != 0 {
			t.Errorf("%.2f objects per rendezvous and broadcast of %d processes, want 0", perCycle, n)
		}
		g.Add(-1)
	})
	k.Run()
	if grp.released != rounds {
		t.Fatalf("%d rendezvous released, want %d", grp.released, rounds)
	}
}

// The releases the mix seldom makes, against the oracle: one whose waiters
// all died before it, which has nobody to release and leaves the last
// arriver's sleep to the fast path; one by a last arriver that killed
// itself, which dies at its kill's entry instead of riding; one of a
// rendezvous of one.
func TestReleaseEdgeCases(t *testing.T) {
	type result struct {
		end   Time
		stats KernelStats
		trace string
	}
	cases := []struct {
		name string
		run  func(k *Kernel, release func(p *Proc, t Time, ws []*Proc), rec func(p *Proc))
	}{
		{"waiters dead", func(k *Kernel, release func(p *Proc, t Time, ws []*Proc), rec func(p *Proc)) {
			ws := make([]*Proc, 3)
			for i := range 2 {
				ws[i] = k.Spawn(fmt.Sprint("w", i), func(p *Proc) { p.Park(); rec(p) })
			}
			ws[2] = k.Spawn("last", func(p *Proc) {
				k.Kill(ws[0])
				k.Kill(ws[1])
				p.Sleep(1)
				rec(p)
				release(p, 2, ws)
				rec(p)
			})
		}},
		{"last arriver killed", func(k *Kernel, release func(p *Proc, t Time, ws []*Proc), rec func(p *Proc)) {
			ws := make([]*Proc, 2)
			ws[0] = k.Spawn("w", func(p *Proc) { p.Park(); rec(p) })
			ws[1] = k.Spawn("last", func(p *Proc) {
				p.Sleep(1)
				rec(p)
				k.Kill(p)
				release(p, 2, ws)
				rec(p)
			})
		}},
		{"alone", func(k *Kernel, release func(p *Proc, t Time, ws []*Proc), rec func(p *Proc)) {
			k.Spawn("only", func(p *Proc) {
				release(p, 1, []*Proc{p})
				rec(p)
				release(p, 1, []*Proc{nil})
				rec(p)
			})
		}},
	}
	for _, c := range cases {
		run := func(release func(p *Proc, t Time, ws []*Proc)) result {
			k := NewKernel()
			var r result
			c.run(k, release, func(p *Proc) { r.trace += fmt.Sprintf("%s@%v ", p.Name(), p.Now()) })
			r.end = k.Run()
			r.stats = k.Stats()
			return r
		}
		if got, want := run((*Proc).WakeAllAndSleepUntil), run(oracleRelease); got != want {
			t.Errorf("%s: %+v, per-waiter wakes %+v", c.name, got, want)
		}
	}
}
