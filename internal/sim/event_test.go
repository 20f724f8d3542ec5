package sim

import "testing"

func TestCompletionBroadcast(t *testing.T) {
	k := NewKernel()
	c := NewCompletion(k)
	var wokeA, wokeB Time
	k.Spawn("a", func(p *Proc) { c.Wait(p); wokeA = p.Now() })
	k.Spawn("b", func(p *Proc) { c.Wait(p); wokeB = p.Now() })
	k.Spawn("completer", func(p *Proc) {
		p.Sleep(2)
		c.Complete()
		c.Complete() // idempotent
	})
	k.Run()
	if wokeA != 2 || wokeB != 2 {
		t.Errorf("waiters woke at %v/%v, want 2", wokeA, wokeB)
	}
	if !c.done {
		t.Error("completion must report done")
	}
	// Waiting after completion returns immediately.
	var late Time
	k2 := NewKernel()
	c2 := NewCompletion(k2)
	c2.Complete()
	k2.Spawn("late", func(p *Proc) { c2.Wait(p); late = p.Now() })
	k2.Run()
	if late != 0 {
		t.Errorf("late waiter blocked until %v", late)
	}
}

func TestGaugeWait(t *testing.T) {
	k := NewKernel()
	g := NewGauge(k)
	g.Add(3)
	var woke Time
	k.Spawn("waiter", func(p *Proc) { g.Wait(p); woke = p.Now() })
	k.Spawn("worker", func(p *Proc) {
		p.Sleep(1)
		g.Add(-1)
		p.Sleep(1)
		g.Add(-2)
	})
	k.Run()
	if woke != 2 {
		t.Errorf("waiter woke at %v, want 2", woke)
	}
	if g.Value() != 0 {
		t.Errorf("gauge value %d, want 0", g.Value())
	}
	// Wait on an already-zero gauge must not park.
	k.Spawn("instant", func(p *Proc) {
		t0 := p.Now()
		g.Wait(p)
		if p.Now() != t0 {
			t.Error("Wait blocked on a zero gauge")
		}
	})
	k.Run()
}

func TestGaugeNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative gauge must panic")
		}
	}()
	g := NewGauge(NewKernel())
	g.Add(-1)
}
