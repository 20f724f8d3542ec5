package sim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestSleepAdvancesClock(t *testing.T) {
	k := NewKernel()
	var got Time
	k.Spawn("a", func(p *Proc) {
		p.Sleep(1.5)
		p.Sleep(2.5)
		got = p.Now()
	})
	end := k.Run()
	if got != 4.0 {
		t.Fatalf("proc observed t=%v, want 4.0", got)
	}
	if end != 4.0 {
		t.Fatalf("Run returned %v, want 4.0", end)
	}
}

func TestDeterministicInterleaving(t *testing.T) {
	run := func() []string {
		k := NewKernel()
		var order []string
		for _, n := range []string{"p0", "p1", "p2"} {
			n := n
			k.Spawn(n, func(p *Proc) {
				for i := 0; i < 3; i++ {
					p.Sleep(1)
					order = append(order, n)
				}
			})
		}
		k.Run()
		return order
	}
	a, b := run(), run()
	if len(a) != 9 || len(b) != 9 {
		t.Fatalf("lengths %d %d, want 9", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverged at %d: %v vs %v", i, a, b)
		}
	}
	// Same-time events run in spawn (seq) order.
	want := []string{"p0", "p1", "p2", "p0", "p1", "p2", "p0", "p1", "p2"}
	for i := range want {
		if a[i] != want[i] {
			t.Fatalf("order %v, want %v", a, want)
		}
	}
}

func TestSpawnAt(t *testing.T) {
	k := NewKernel()
	var first, second Time
	k.SpawnAt(5, "late", func(p *Proc) { second = p.Now() })
	k.Spawn("early", func(p *Proc) { first = p.Now() })
	k.Run()
	if first != 0 || second != 5 {
		t.Fatalf("start times %v %v, want 0 and 5", first, second)
	}
}

func TestParkWake(t *testing.T) {
	k := NewKernel()
	var wakeTime Time
	var sleeper *Proc
	sleeper = k.Spawn("sleeper", func(p *Proc) {
		p.Park()
		wakeTime = p.Now()
	})
	k.Spawn("waker", func(p *Proc) {
		p.Sleep(3)
		k.Wake(sleeper)
	})
	k.Run()
	if wakeTime != 3 {
		t.Fatalf("woke at %v, want 3", wakeTime)
	}
}

func TestDeadlockDetected(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected deadlock panic")
		}
	}()
	k := NewKernel()
	k.Spawn("stuck", func(p *Proc) { p.Park() })
	k.Run()
}

func TestProcPanicPropagates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic propagation")
		}
	}()
	k := NewKernel()
	k.Spawn("boom", func(p *Proc) { panic("boom") })
	k.Run()
}

// TestNaNTimePanics covers every boundary where a caller-computed time
// enters the kernel, on an empty and on a non-empty event queue: a NaN
// must panic there instead of becoming the clock value (empty queue:
// the fast path's `at > t` is false for NaN) or an unordered heap entry.
func TestNaNTimePanics(t *testing.T) {
	nan := Time(math.NaN())
	cases := []struct {
		name string
		call func(p *Proc, parked *Proc, c *Completion)
	}{
		{"Sleep", func(p, _ *Proc, _ *Completion) { p.Sleep(nan) }},
		{"SleepUntil", func(p, _ *Proc, _ *Completion) { p.SleepUntil(nan) }},
		{"WakeAt", func(p, parked *Proc, _ *Completion) { p.k.WakeAt(nan, parked) }},
		{"SpawnAt", func(p, _ *Proc, _ *Completion) { p.k.SpawnAt(nan, "child", func(*Proc) {}) }},
		{"CompleteAt", func(p, _ *Proc, c *Completion) { c.CompleteAt(nan) }},
	}
	for _, tc := range cases {
		for _, busy := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/busy=%v", tc.name, busy), func(t *testing.T) {
				defer func() {
					r := recover()
					if r == nil || !strings.Contains(fmt.Sprint(r), "sim: NaN time") {
						t.Fatalf("recovered %v, want a panic carrying \"sim: NaN time\"", r)
					}
				}()
				k := NewKernel()
				c := NewCompletion(k)
				parked := k.Spawn("parked", func(p *Proc) { p.Park() })
				k.Spawn("waiter", func(p *Proc) { c.Wait(p) })
				if busy {
					k.Spawn("bystander", func(p *Proc) { p.Sleep(5) })
				}
				k.Spawn("caller", func(p *Proc) {
					if got := k.q.n > 0; got != busy {
						t.Errorf("queue non-empty = %v at the call, want %v", got, busy)
					}
					tc.call(p, parked, c)
				})
				end := k.Run()
				t.Fatalf("Run returned %v (clock %v) without panicking", end, k.Now())
			})
		}
	}
}

func TestServerFCFS(t *testing.T) {
	k := NewKernel()
	// 100 B/s, no per-op cost. Two 100-byte ops arriving together must
	// serialize: completions at t=1 and t=2.
	var ends []Time
	k.Spawn("setup", func(p *Proc) {
		s := NewServer(k, 100, 0)
		for i := 0; i < 2; i++ {
			i := i
			k.Spawn("w", func(p *Proc) {
				p.SleepUntil(s.Reserve(100))
				ends = append(ends, p.Now())
				_ = i
			})
		}
	})
	k.Run()
	sort.Slice(ends, func(i, j int) bool { return ends[i] < ends[j] })
	if len(ends) != 2 || ends[0] != 1 || ends[1] != 2 {
		t.Fatalf("ends=%v, want [1 2]", ends)
	}
}

func TestServerPerOpLatency(t *testing.T) {
	k := NewKernel()
	var end Time
	k.Spawn("w", func(p *Proc) {
		s := NewServer(k, 0, 0.25) // latency-only server
		p.SleepUntil(s.Reserve(1 << 20))
		end = p.Now()
	})
	k.Run()
	if end != 0.25 {
		t.Fatalf("end=%v, want 0.25", end)
	}
}

func TestMultiServerParallelism(t *testing.T) {
	k := NewKernel()
	var ends []Time
	k.Spawn("setup", func(p *Proc) {
		m := NewMultiServer(k, 2)
		for i := 0; i < 4; i++ {
			k.Spawn("w", func(p *Proc) {
				p.SleepUntil(m.ReserveDur(1.0))
				ends = append(ends, p.Now())
			})
		}
	})
	k.Run()
	sort.Slice(ends, func(i, j int) bool { return ends[i] < ends[j] })
	want := []Time{1, 1, 2, 2}
	for i := range want {
		if ends[i] != want[i] {
			t.Fatalf("ends=%v, want %v", ends, want)
		}
	}
}

// Property: for a single FCFS server, total completion time of a batch of
// same-instant jobs equals the sum of their service times, regardless of
// order, and per-job completion times are non-decreasing in arrival order.
func TestServerWorkConservationProperty(t *testing.T) {
	f := func(sizes []uint16) bool {
		if len(sizes) == 0 || len(sizes) > 64 {
			return true
		}
		k := NewKernel()
		ok := true
		k.Spawn("setup", func(p *Proc) {
			s := NewServer(k, 1000, 0.001)
			var want Duration
			prev := Time(-1)
			for _, n := range sizes {
				want += s.ServiceTime(int64(n))
				end := s.Reserve(int64(n))
				if end < prev {
					ok = false
				}
				prev = end
			}
			if diff := float64(prev - want); diff > 1e-9 || diff < -1e-9 {
				ok = false
			}
		})
		k.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: MultiServer with c servers finishes n identical latency-1 jobs
// at time ceil(n/c).
func TestMultiServerMakespanProperty(t *testing.T) {
	f := func(nRaw, cRaw uint8) bool {
		n := int(nRaw%50) + 1
		c := int(cRaw%8) + 1
		k := NewKernel()
		var last Time
		k.Spawn("setup", func(p *Proc) {
			m := NewMultiServer(k, c)
			for i := 0; i < n; i++ {
				end := m.ReserveDur(1.0)
				if end > last {
					last = end
				}
			}
		})
		k.Run()
		want := Time((n + c - 1) / c)
		return last == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestManyProcsStress(t *testing.T) {
	k := NewKernel()
	const n = 2000
	count := 0
	for i := 0; i < n; i++ {
		d := Time(rand.New(rand.NewSource(int64(i))).Float64())
		k.Spawn("p", func(p *Proc) {
			p.Sleep(d)
			count++
		})
	}
	k.Run()
	if count != n {
		t.Fatalf("count=%d, want %d", count, n)
	}
}
