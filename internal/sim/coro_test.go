package sim

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"iter"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"unsafe"
)

// unwoundWorld spawns n processes that sleep (or, with park set, park
// forever), each with a deferred function counting its runs, and returns
// the counts.
func unwoundWorld(k *Kernel, n int, park bool) []int {
	deferred := make([]int, n)
	k.SpawnN(n, "p", func(i int, p *Proc) {
		defer func() { deferred[i]++ }()
		if park {
			p.Park()
		}
		p.Sleep(Duration(1 + i))
	})
	return deferred
}

// runRecovered runs the kernel and returns what Run panicked with.
func runRecovered(k *Kernel) (r any) {
	defer func() { r = recover() }()
	k.Run()
	return nil
}

// checkUnwound is the leak fence: after a Run that ended abnormally the
// goroutine count is back at (or under: an earlier test's may still be
// going) its baseline and every process's deferred
// function has run exactly once.
func checkUnwound(t *testing.T, baseline int, deferred []int) {
	t.Helper()
	if got := runtime.NumGoroutine(); got > baseline {
		t.Errorf("%d goroutines after Run, %d before: the world was not unwound", got, baseline)
	}
	for i, n := range deferred {
		if n != 1 {
			t.Fatalf("process %d's deferred function ran %d times, want exactly once", i, n)
		}
	}
}

func TestRunUnwindsWorldOnPanic(t *testing.T) {
	baseline := runtime.NumGoroutine()
	k := NewKernel()
	deferred := unwoundWorld(k, 1000, false)
	k.SpawnAt(0.5, "boom", func(p *Proc) { panic("boom") })
	unstarted := false
	k.SpawnAt(5000, "late", func(p *Proc) { unstarted = true })
	r := runRecovered(k)
	if want := `sim: process "boom" panicked: boom`; r != want {
		t.Fatalf("Run panicked with %v, want %q", r, want)
	}
	checkUnwound(t, baseline, deferred)
	if unstarted {
		t.Fatal("a process that had not started ran its body during the unwind")
	}
}

func TestRunUnwindsWorldOnDeadlock(t *testing.T) {
	baseline := runtime.NumGoroutine()
	k := NewKernel()
	deferred := unwoundWorld(k, 1000, true)
	r := runRecovered(k)
	if want := "sim: deadlock: 1000 process(es) parked with no pending events at t=0"; r != want {
		t.Fatalf("Run panicked with %v, want %q", r, want)
	}
	checkUnwound(t, baseline, deferred)
}

// TestUnwindKeepsTheFirstFailure: a process whose deferred function
// panics while the world is being unwound does not replace the panic that
// took Run down, and does not stop the rest of the world from unwinding.
func TestUnwindKeepsTheFirstFailure(t *testing.T) {
	baseline := runtime.NumGoroutine()
	k := NewKernel()
	k.Spawn("sore loser", func(p *Proc) {
		defer func() { panic("while unwinding") }()
		p.Park()
	})
	deferred := unwoundWorld(k, 10, false)
	k.SpawnAt(0.5, "boom", func(p *Proc) { panic("boom") })
	if r, want := runRecovered(k), `sim: process "boom" panicked: boom`; r != want {
		t.Fatalf("Run panicked with %v, want %q", r, want)
	}
	checkUnwound(t, baseline, deferred)
}

// TestGoexitInsideProc pins what a t.FailNow (runtime.Goexit) inside a
// process does: it ends the goroutine that called Run, as iter.Pull
// documents — Run neither returns nor panics — and the world is unwound on
// the way out.
func TestGoexitInsideProc(t *testing.T) {
	baseline := runtime.NumGoroutine()
	k := NewKernel()
	deferred := unwoundWorld(k, 100, false)
	k.SpawnAt(0.5, "quitter", func(p *Proc) { runtime.Goexit() })
	returned, panicked, exited := false, any(nil), make(chan struct{})
	go func() {
		defer close(exited)
		defer func() { panicked = recover() }()
		k.Run()
		returned = true
	}()
	<-exited
	if returned || panicked != nil {
		t.Fatalf("Run returned=%v panicked=%v, want its goroutine ended by the Goexit", returned, panicked)
	}
	for runtime.NumGoroutine() > baseline { // Run's own goroutine is past its last defer, not yet gone
		runtime.Gosched()
	}
	checkUnwound(t, baseline, deferred)
}

// TestKilledBeforeFirstResume: a process killed before it ever ran dies at
// its first resume without running its body, in a SpawnN world as for a
// single, and is neither a deadlock nor a leaked goroutine: after the
// clean Run no goroutine is left beside the carriers on the idle list.
func TestKilledBeforeFirstResume(t *testing.T) {
	baseline := runtime.NumGoroutine() - idleCarriers()
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
	if end := k.Run(); end != 0 {
		t.Fatalf("Run ended at %v, want 0", end)
	}
	if fmt.Sprint(ran) != "[0 2]" {
		t.Fatalf("bodies that ran: %v, want [0 2]", ran)
	}
	if got := runtime.NumGoroutine() - idleCarriers(); got > baseline {
		t.Fatalf("%d goroutines after Run beside the idle carriers, %d before", got, baseline)
	}
}

// TestSpawnInsideRun: processes spawned by a running process (burst drain
// workers are) start in (time, seq) order among themselves and the events
// already queued.
func TestSpawnInsideRun(t *testing.T) {
	for _, fastPath := range []bool{true, false} {
		k := NewKernel()
		k.fastPath = fastPath
		var order []string
		rec := func(p *Proc) { order = append(order, fmt.Sprintf("%s@%v", p.Name(), p.Now())) }
		k.Spawn("parent", func(p *Proc) {
			p.Sleep(1)
			k.SpawnAt(3, "late", rec)
			k.Spawn("now", rec)
			k.SpawnN(2, "w", func(_ int, p *Proc) {
				rec(p)
				k.Spawn("grandchild", rec)
			})
			k.SpawnAt(2, "soon", rec)
			p.Sleep(1) // same instant as "soon", queued after it
			rec(p)
		})
		k.Spawn("bystander", func(p *Proc) {
			p.Sleep(1) // same instant as the spawns, queued before them
			rec(p)
		})
		k.Run()
		want := "bystander@1 now@1 w00000@1 w00001@1 grandchild@1 grandchild@1 soon@2 parent@2 late@3"
		if got := strings.Join(order, " "); got != want {
			t.Fatalf("fastPath=%v: start order\n got %s\nwant %s", fastPath, got, want)
		}
	}
}

// TestSpawnNNames: a world's names are its prefix and the zero-padded
// index, formatted on demand, and a panic message carries the same name.
func TestSpawnNNames(t *testing.T) {
	k := NewKernel()
	var names []string
	k.SpawnN(3, "rank", func(i int, p *Proc) {
		names = append(names, p.Name())
		if i == 2 {
			panic("boom")
		}
	})
	r := runRecovered(k)
	if got := strings.Join(names, " "); got != "rank00000 rank00001 rank00002" {
		t.Fatalf("names %q", got)
	}
	if want := `sim: process "rank00002" panicked: boom`; r != want {
		t.Fatalf("Run panicked with %v, want %q", r, want)
	}
}

// TestKernelScaleResumeTrace is the fence the coroutine kernel was built
// behind: every resume of the BenchmarkKernelScale workload at 256 nodes —
// who, and at what time to the last bit — equals, entry for entry, the
// trace captured from the channel-and-goroutine kernel's binary (PR 23's
// tree: one line per resume, the process's name and the time in hex
// floating point, gzip'd), on the fast path and on its reference.
func TestKernelScaleResumeTrace(t *testing.T) {
	const golden = "testdata/kernelscale256_resumes.txt.gz"
	trace := func(fastPath bool) []string {
		k := NewKernel()
		k.fastPath = fastPath
		var out []string
		spawnKernelScale(k, 256, func(p *Proc) {
			out = append(out, p.Name()+" "+strconv.FormatFloat(float64(p.Now()), 'x', -1, 64))
		})
		k.Run()
		return out
	}
	f, err := os.Open(golden)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	z, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for sc := bufio.NewScanner(z); sc.Scan(); {
		want = append(want, sc.Text())
	}
	if len(want) != 256*(1+3*33) {
		t.Fatalf("%s holds %d resumes, want %d", golden, len(want), 256*(1+3*33))
	}
	for _, fastPath := range []bool{true, false} {
		got := trace(fastPath)
		if len(got) != len(want) {
			t.Fatalf("fastPath=%v: %d resumes, the committed trace has %d", fastPath, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("fastPath=%v: resume %d is %q, the committed trace has %q", fastPath, i, got[i], want[i])
			}
		}
	}
}

// allocsPer reports the heap objects and bytes f allocates, per each of
// its n units of work, on its second run: the first pays for the runtime's
// goroutine descriptors, which later worlds of the process reuse.
func allocsPer(n int, f func()) (objects, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n), float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// TestSpawnNAllocations is the ratchet on the spawn chain: objects and
// bytes per process spawned through SpawnN and run to completion. A world
// spawned after one of its size finds its carriers idle. A cold one — the
// idle list emptied first by a clean world of none — pays for them, and
// is bounded above what iter.Pull itself allocates on the running
// toolchain: that is the Go release's business, and the probe keeps the
// bound meaningful on any.
func TestSpawnNAllocations(t *testing.T) {
	const n = 1024
	world := func() {
		k := NewKernel()
		k.SpawnN(n, "rank", func(i int, p *Proc) { p.Sleep(1) })
		k.Run()
	}
	pullObjects, pullBytes := allocsPer(n, func() {
		for i := 0; i < n; i++ {
			next, stop := iter.Pull(func(yield func(struct{}) bool) { yield(struct{}{}) })
			next()
			stop()
		}
	})
	coldObjects, coldBytes := allocsPer(n, func() {
		NewKernel().Run()
		world()
	})
	objects, bytes := allocsPer(n, world)
	ownObjects, ownBytes := coldObjects-pullObjects, coldBytes-pullBytes
	t.Logf("SpawnN: %.3f objects and %.0f B per process on idle carriers; cold %.2f and %.0f, of them iter.Pull %.2f and %.0f, the kernel %.2f and %.0f",
		objects, bytes, coldObjects, coldBytes, pullObjects, pullBytes, ownObjects, ownBytes)
	// Measured on go1.24: on idle carriers 0.004 objects and 57 B (a
	// Proc: the process block and the kernel's record of the block are
	// one allocation each per world, and the queue's storage is the last
	// world's, from the pool); cold, 1.01 objects above iter.Pull (the
	// carrier's loop closure; the carriers are one block per world) and
	// 105 B (the Proc, a carrier and the closure).
	if objects > 0.05 {
		t.Errorf("SpawnN on idle carriers allocates %.3f objects per process, bound 0.05", objects)
	}
	if bytes > 130 {
		t.Errorf("SpawnN on idle carriers allocates %.0f B per process, bound 130", bytes)
	}
	if ownObjects > 1.05 {
		t.Errorf("a cold SpawnN allocates %.2f objects per process above iter.Pull's %.2f, bound 1", ownObjects, pullObjects)
	}
	if ownBytes > 160 {
		t.Errorf("a cold SpawnN allocates %.0f B per process above iter.Pull's %.0f, bound 160", ownBytes, pullBytes)
	}
}

// TestProcSize pins a process at 56 bytes: a world of n ranks is one block
// of n of them, kept until its kernel goes.
func TestProcSize(t *testing.T) {
	if got := unsafe.Sizeof(Proc{}); got > 56 {
		t.Errorf("a Proc is %d bytes, bound 56", got)
	}
}

// TestQueuedSleepAllocates: a sleep that goes through the event queue and
// two coroutine switches allocates nothing.
func TestQueuedSleepAllocates(t *testing.T) {
	k := NewKernel()
	k.fastPath = false
	const sleeps = 1000
	for i := 0; i < 2; i++ {
		k.Spawn("sleeper", func(p *Proc) {
			p.Sleep(1) // grows the queue to its steady-state capacity
			for j := 0; j < 5*sleeps; j++ {
				p.Sleep(1)
			}
		})
	}
	// One process to drive Run from: AllocsPerRun wants a function it
	// can call repeatedly, and each call below is `sleeps` queued sleeps
	// of each sleeper.
	step := 0
	k.Spawn("driver", func(p *Proc) {
		p.Sleep(0.5)
		perSleep := testing.AllocsPerRun(3, func() {
			step++
			p.SleepUntil(Time(step*sleeps) + 0.5)
		}) / (2 * sleeps)
		if perSleep != 0 {
			t.Errorf("%.4f objects per queued sleep, want 0", perSleep)
		}
	})
	k.Run()
	if st := k.Stats(); st.FastPathEvents != 0 || st.QueueEvents < 2*5*sleeps {
		t.Fatalf("the sleeps did not go through the queue: %+v", st)
	}
}
