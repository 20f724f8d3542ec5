package sim

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

// idleCarriers reports how many carriers wait on the idle list.
func idleCarriers() int {
	idle.Lock()
	defer idle.Unlock()
	return len(idle.cs)
}

// idleSet returns the carriers waiting on the idle list.
func idleSet() map[*carrier]bool {
	idle.Lock()
	defer idle.Unlock()
	set := make(map[*carrier]bool, len(idle.cs))
	for _, c := range idle.cs {
		set[c] = true
	}
	return set
}

// carriersOf returns the carriers of k's processes in spawn order, while
// none has finished.
func carriersOf(k *Kernel) []*carrier {
	var cs []*carrier
	for _, ps := range k.spawned {
		for i := range ps {
			cs = append(cs, ps[i].c)
		}
	}
	return cs
}

// warmIdle runs a clean world of n processes, which leaves exactly n
// carriers idle, and returns them with the goroutine count beside them.
func warmIdle(t *testing.T, n int) (map[*carrier]bool, int) {
	t.Helper()
	k := NewKernel()
	k.SpawnN(n, "warm", func(i int, p *Proc) { p.Sleep(1) })
	k.Run()
	warm := idleSet()
	if len(warm) != n {
		t.Fatalf("%d carriers idle after a clean world of %d, want %d", len(warm), n, n)
	}
	return warm, runtime.NumGoroutine() - n
}

// checkOnIdle fails unless every carrier of cs was waiting in from.
func checkOnIdle(t *testing.T, cs []*carrier, from map[*carrier]bool) {
	t.Helper()
	for i, c := range cs {
		if !from[c] {
			t.Fatalf("process %d runs on a new carrier, want an idle one", i)
		}
	}
}

// checkNoLeak fails if more goroutines than baseline run beside the idle
// carriers, after a grace period for a goroutine on its way out.
func checkNoLeak(t *testing.T, baseline int) {
	t.Helper()
	got := runtime.NumGoroutine() - idleCarriers()
	for deadline := time.Now().Add(5 * time.Second); got > baseline && time.Now().Before(deadline); {
		runtime.Gosched()
		got = runtime.NumGoroutine() - idleCarriers()
	}
	if got > baseline {
		t.Fatalf("%d goroutines beside the idle carriers, %d before: a carrier leaked", got, baseline)
	}
}

// checkReuse checks what a world, spawned on carriers the idle list held,
// left there: only live carriers, none of dead — those of the processes
// unfinished when it ended badly — and no other goroutine beside
// baseline. Then a clean world of as many processes as carriers wait
// reuses every one of them.
func checkReuse(t *testing.T, baseline int, dead []*carrier) {
	t.Helper()
	left := idleSet()
	for c := range left {
		if c.next == nil {
			t.Fatal("a stopped carrier is on the idle list")
		}
	}
	for i, c := range dead {
		if left[c] {
			t.Fatalf("unfinished process %d's carrier is on the idle list after its world ended badly", i)
		}
	}
	checkNoLeak(t, baseline)
	k := NewKernel()
	ran := 0
	k.SpawnN(len(left), "next", func(i int, p *Proc) {
		p.Sleep(1)
		ran++
	})
	checkOnIdle(t, carriersOf(k), left)
	k.Run()
	if ran != len(left) {
		t.Fatalf("%d of the next world's %d bodies ran", ran, len(left))
	}
	checkNoLeak(t, baseline)
}

// TestReusedCarrierKilledBeforeFirstResume: processes killed before they
// ever ran, on carriers that ran processes before, end cleanly, and the
// carriers of the whole world go on to the next.
func TestReusedCarrierKilledBeforeFirstResume(t *testing.T) {
	warm, baseline := warmIdle(t, 8)
	k := NewKernel()
	var ran []int
	var world [4]*Proc
	k.Spawn("killer", func(p *Proc) {
		k.Kill(world[1])
		k.Kill(world[3])
	})
	k.SpawnN(len(world), "w", func(i int, p *Proc) { ran = append(ran, i) })
	for i := range world {
		world[i] = &k.spawned[1][i]
	}
	cs := carriersOf(k)
	checkOnIdle(t, cs, warm)
	k.Run()
	if len(ran) != 2 || ran[0] != 0 || ran[1] != 2 {
		t.Fatalf("bodies that ran: %v, want [0 2]", ran)
	}
	if n := idleCarriers(); n != len(cs) {
		t.Fatalf("%d carriers idle after a clean world of %d, want %d", n, len(cs), len(cs))
	}
	checkReuse(t, baseline, nil)
}

// TestReusedCarrierPanics: a process that panics on a reused carrier
// takes its world down; the carriers of its unfinished processes die with
// it, and the one a finished process left waits idle beside those the
// world did not take, for the next world.
func TestReusedCarrierPanics(t *testing.T) {
	warm, baseline := warmIdle(t, 8)
	k := NewKernel()
	k.Spawn("early", func(p *Proc) {})
	deferred := unwoundWorld(k, 3, false)
	k.SpawnAt(0.5, "boom", func(p *Proc) { panic("boom") })
	cs := carriersOf(k)
	checkOnIdle(t, cs, warm)
	if r, want := runRecovered(k), `sim: process "boom" panicked: boom`; r != want {
		t.Fatalf("Run panicked with %v, want %q", r, want)
	}
	for i, n := range deferred {
		if n != 1 {
			t.Fatalf("process %d's deferred function ran %d times, want once", i, n)
		}
	}
	if n := idleCarriers(); n != 8-len(cs)+1 {
		t.Fatalf("%d carriers idle, want the %d the world did not take and early's", n, 8-len(cs))
	}
	checkReuse(t, baseline, cs[1:])
}

// TestReusedCarrierGoexit: a runtime.Goexit on a reused carrier ends the
// goroutine that called Run and the carriers of the world's unfinished
// processes with it; the one a finished process left waits idle beside
// those the world did not take, for the next world.
func TestReusedCarrierGoexit(t *testing.T) {
	warm, baseline := warmIdle(t, 8)
	k := NewKernel()
	k.Spawn("early", func(p *Proc) {})
	deferred := unwoundWorld(k, 3, false)
	k.SpawnAt(0.5, "quitter", func(p *Proc) { runtime.Goexit() })
	cs := carriersOf(k)
	checkOnIdle(t, cs, warm)
	returned, exited := false, make(chan struct{})
	go func() {
		defer close(exited)
		k.Run()
		returned = true
	}()
	<-exited
	if returned {
		t.Fatal("Run returned, want its goroutine ended by the Goexit")
	}
	for i, n := range deferred {
		if n != 1 {
			t.Fatalf("process %d's deferred function ran %d times, want once", i, n)
		}
	}
	if n := idleCarriers(); n != 8-len(cs)+1 {
		t.Fatalf("%d carriers idle, want the %d the world did not take and early's", n, 8-len(cs))
	}
	checkReuse(t, baseline, cs[1:])
}

// TestIdleListTrimmed: after a clean world of n processes at most n
// carriers wait, and the goroutines of those trimmed away have ended.
func TestIdleListTrimmed(t *testing.T) {
	NewKernel().Run()
	if n := idleCarriers(); n != 0 {
		t.Fatalf("%d carriers idle after an empty world, want 0", n)
	}
	baseline := runtime.NumGoroutine()
	for _, n := range []int{64, 3, 0, 17, 200, 1} {
		k := NewKernel()
		k.SpawnN(n, "p", func(i int, p *Proc) { p.Sleep(Duration(i)) })
		k.Run()
		if got := idleCarriers(); got > n {
			t.Errorf("%d carriers idle after a clean world of %d processes", got, n)
		}
		if got := runtime.NumGoroutine() - idleCarriers(); got > baseline {
			t.Errorf("after a world of %d: %d goroutines beside the idle carriers, %d before", n, got, baseline)
		}
	}
}

// TestSpawnInsideRunReusesCarriers: a process spawned while its world
// runs takes a carrier a finished process of that world left, so a chain
// of processes each spawning the next as its last act runs on two.
func TestSpawnInsideRunReusesCarriers(t *testing.T) {
	NewKernel().Run()
	const n = 100
	k := NewKernel()
	used := map[*carrier]bool{}
	var link func(p *Proc)
	ran := 0
	link = func(p *Proc) {
		used[p.c] = true
		ran++
		p.Sleep(1)
		if ran < n {
			k.Spawn("link", link)
		}
	}
	k.Spawn("link", link)
	if end := k.Run(); end != n {
		t.Fatalf("Run ended at %v, want %d", end, n)
	}
	if ran != n || len(used) != 2 {
		t.Fatalf("%d processes ran on %d carriers, want %d on 2", ran, len(used), n)
	}
	if got := idleCarriers(); got != 2 {
		t.Fatalf("%d carriers idle after a world that held 2", got)
	}
}

// TestIdleListSharedByKernels: kernels on two goroutines take carriers
// from the one idle list, and queue storage from the one pool, and give
// them back, each world still running to its own end, with no goroutine
// left beside the idle carriers. Run it under -race.
func TestIdleListSharedByKernels(t *testing.T) {
	NewKernel().Run()
	baseline := runtime.NumGoroutine()
	const worlds = 40
	var wg sync.WaitGroup
	used := [2]map[*carrier]bool{{}, {}}
	for g := range used {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for w := 0; w < worlds; w++ {
				n := 1 + (w*7+g*13)%48
				k := NewKernel()
				var sum int
				k.SpawnN(n, "p", func(i int, p *Proc) {
					p.Sleep(Duration(i))
					sum += i
				})
				for _, c := range carriersOf(k) {
					used[g][c] = true
				}
				if end := k.Run(); end != Time(n-1) || sum != n*(n-1)/2 {
					t.Errorf("goroutine %d, world %d of %d: ended at %v with sum %d", g, w, n, end, sum)
					return
				}
			}
		}()
	}
	wg.Wait()
	shared := 0
	for c := range used[0] {
		if used[1][c] {
			shared++
		}
	}
	t.Logf("%d and %d carriers used, %d by both goroutines' kernels", len(used[0]), len(used[1]), shared)
	if got := idleCarriers(); got > 48 {
		t.Errorf("%d carriers idle, more than the largest world's 48", got)
	}
	if got := runtime.NumGoroutine() - idleCarriers(); got > baseline {
		t.Errorf("%d goroutines beside the idle carriers, %d before", got, baseline)
	}
}
