package sim

import "testing"

// TestKillSleeping kills a process mid-sleep: it must die at the kill
// time, never resume, and not count as a panic or a deadlock.
func TestKillSleeping(t *testing.T) {
	k := NewKernel()
	resumed := false
	var diedAt Time
	victim := k.Spawn("victim", func(p *Proc) {
		defer func() { diedAt = p.Now() }()
		p.Sleep(10)
		resumed = true
	})
	k.Spawn("killer", func(p *Proc) {
		p.Sleep(3)
		p.k.Kill(victim)
	})
	end := k.Run()
	if resumed {
		t.Fatal("killed process resumed past its sleep")
	}
	if diedAt != 3 {
		t.Fatalf("victim died at t=%v, want t=3 (deferred funcs must run at kill time)", diedAt)
	}
	if end != 3 {
		t.Fatalf("run ended at t=%v, want 3 (victim's stale wake must not advance the clock)", end)
	}
	if !victim.Killed() {
		t.Fatal("Killed() must report true after Kill")
	}
}

// TestKillParked kills a process parked on a gauge that never reaches
// zero; without the kill this run would deadlock.
func TestKillParked(t *testing.T) {
	k := NewKernel()
	g := NewGauge(k)
	victim := k.Spawn("victim", func(p *Proc) {
		g.Add(1)
		g.Wait(p)
	})
	k.Spawn("killer", func(p *Proc) {
		p.Sleep(1)
		p.k.Kill(victim)
	})
	k.Run() // must not panic with a deadlock
}

// TestKillBeforeStart kills a process scheduled but not yet begun: its
// body must never run.
func TestKillBeforeStart(t *testing.T) {
	k := NewKernel()
	ran := false
	victim := k.SpawnAt(5, "victim", func(p *Proc) { ran = true })
	k.Spawn("killer", func(p *Proc) { p.k.Kill(victim) })
	k.Run()
	if ran {
		t.Fatal("killed process body ran")
	}
}

// TestKillIdempotent verifies double kills and kills of finished
// processes are no-ops.
func TestKillIdempotent(t *testing.T) {
	k := NewKernel()
	fast := k.Spawn("fast", func(p *Proc) {})
	victim := k.Spawn("victim", func(p *Proc) { p.Sleep(10) })
	k.Spawn("killer", func(p *Proc) {
		p.Sleep(1)
		p.k.Kill(victim)
		p.k.Kill(victim)
		p.k.Kill(fast)
		p.k.Kill(nil)
	})
	k.Run()
}

// TestKillThenWake verifies a Wake racing a Kill at the same instant does
// not resurrect the victim.
func TestKillThenWake(t *testing.T) {
	k := NewKernel()
	resumed := false
	victim := k.Spawn("victim", func(p *Proc) {
		p.Park()
		resumed = true
	})
	k.Spawn("killer", func(p *Proc) {
		p.Sleep(2)
		p.k.Kill(victim)
		p.k.Wake(victim)
	})
	k.Run()
	if resumed {
		t.Fatal("wake resurrected a killed process")
	}
}

// TestKillLeavesOthersRunning checks the rest of the schedule is
// untouched by a kill.
func TestKillLeavesOthersRunning(t *testing.T) {
	k := NewKernel()
	done := 0
	victim := k.Spawn("victim", func(p *Proc) { p.Sleep(100) })
	for i := 0; i < 3; i++ {
		k.Spawn("worker", func(p *Proc) {
			p.Sleep(5)
			done++
		})
	}
	k.Spawn("killer", func(p *Proc) {
		p.Sleep(1)
		p.k.Kill(victim)
	})
	if end := k.Run(); end != 5 {
		t.Fatalf("run ended at t=%v, want 5", end)
	}
	if done != 3 {
		t.Fatalf("%d workers finished, want 3", done)
	}
}
