package mpisim

import (
	"testing"
	"testing/quick"

	"picmcio/internal/sim"
)

func world(size int) *World {
	return NewWorld(sim.NewKernel(), size, AlphaBeta(1e-6, 1.0/10e9))
}

func TestBarrierSynchronizes(t *testing.T) {
	w := world(8)
	var after []sim.Time
	w.Run(func(r *Rank) {
		r.Proc.Sleep(sim.Time(r.ID) * 0.01) // staggered arrivals
		r.Comm.Barrier()
		after = append(after, r.Proc.Now())
	})
	if len(after) != 8 {
		t.Fatalf("ranks finished: %d", len(after))
	}
	for _, v := range after {
		if v < 0.07 {
			t.Fatalf("rank left barrier at %v, before last arrival at 0.07", v)
		}
		if v != after[0] {
			t.Fatalf("ranks left barrier at different times: %v", after)
		}
	}
}

func TestAllreduce(t *testing.T) {
	w := world(16)
	w.Run(func(r *Rank) {
		sum := r.Comm.AllreduceF64(float64(r.ID), "sum")
		if sum != 120 {
			t.Errorf("rank %d: sum=%v, want 120", r.ID, sum)
		}
		max := r.Comm.AllreduceF64(float64(r.ID), "max")
		if max != 15 {
			t.Errorf("rank %d: max=%v", r.ID, max)
		}
		min := r.Comm.AllreduceI64(int64(r.ID+3), "min")
		if min != 3 {
			t.Errorf("rank %d: min=%v", r.ID, min)
		}
	})
}

func TestExscan(t *testing.T) {
	w := world(10)
	w.Run(func(r *Rank) {
		off := r.Comm.ExscanI64(int64(100 + r.ID))
		want := int64(0)
		for i := 0; i < r.ID; i++ {
			want += int64(100 + i)
		}
		if off != want {
			t.Errorf("rank %d: exscan=%d, want %d", r.ID, off, want)
		}
	})
}

func TestAllgather(t *testing.T) {
	w := world(5)
	w.Run(func(r *Rank) {
		all := r.Comm.AllgatherI64(int64(r.ID * r.ID))
		for i, v := range all {
			if v != int64(i*i) {
				t.Errorf("rank %d: all[%d]=%d", r.ID, i, v)
			}
		}
	})
}

func TestBcast(t *testing.T) {
	w := world(6)
	w.Run(func(r *Rank) {
		v := int64(-1)
		if r.ID == 2 {
			v = 777
		}
		got := r.Comm.BcastI64(v, 2)
		if got != 777 {
			t.Errorf("rank %d: bcast=%d", r.ID, got)
		}
	})
}

func TestGathervBytes(t *testing.T) {
	w := world(4)
	w.Run(func(r *Rank) {
		data := []byte{byte(r.ID), byte(r.ID), byte(r.ID)}
		chunks := r.Comm.GathervBytes(int64(len(data)), data, 0)
		if r.ID != 0 {
			if chunks != nil {
				t.Errorf("rank %d: non-root got chunks", r.ID)
			}
			return
		}
		if len(chunks) != 4 {
			t.Fatalf("root got %d chunks", len(chunks))
		}
		for i, ch := range chunks {
			if ch.Rank != i || ch.N != 3 || ch.Data[0] != byte(i) {
				t.Errorf("chunk %d: %+v", i, ch)
			}
		}
	})
}

func TestSplit(t *testing.T) {
	w := world(12)
	w.Run(func(r *Rank) {
		sub := r.Comm.Split(r.ID%3, r.ID)
		if sub.Size() != 4 {
			t.Errorf("rank %d: sub size=%d, want 4", r.ID, sub.Size())
		}
		// Within the color group, ranks are ordered by key = world id.
		want := r.ID / 3
		if sub.Rank() != want {
			t.Errorf("rank %d: sub rank=%d, want %d", r.ID, sub.Rank(), want)
		}
		// Collectives on the subcommunicator work.
		sum := sub.AllreduceI64(1, "sum")
		if sum != 4 {
			t.Errorf("rank %d: sub sum=%d", r.ID, sum)
		}
	})
}

func TestSendRecvBothOrders(t *testing.T) {
	// Receiver-first and sender-first must both work.
	for _, recvFirst := range []bool{true, false} {
		w := world(2)
		var got any
		w.Run(func(r *Rank) {
			if r.ID == 0 {
				if !recvFirst {
					r.Proc.Sleep(0.01)
				}
				got, _ = r.Comm.Recv(1, 7)
			} else {
				if recvFirst {
					r.Proc.Sleep(0.01)
				}
				r.Comm.Send(0, 7, 1024, "payload")
			}
		})
		if got != "payload" {
			t.Fatalf("recvFirst=%v: got %v", recvFirst, got)
		}
	}
}

func TestMessageTransferTakesTime(t *testing.T) {
	w := NewWorld(sim.NewKernel(), 2, AlphaBeta(1e-3, 1e-6))
	var recvAt sim.Time
	w.Run(func(r *Rank) {
		if r.ID == 0 {
			r.Comm.Send(1, 0, 1000, nil)
		} else {
			r.Comm.Recv(0, 0)
			recvAt = r.Proc.Now()
		}
	})
	// alpha + 1000*beta = 1ms + 1ms = 2ms.
	if recvAt < 0.0019 || recvAt > 0.0021 {
		t.Fatalf("message arrived at %v, want ~2ms", recvAt)
	}
}

func TestCollectiveCostScalesWithRanks(t *testing.T) {
	elapsed := func(n int) sim.Time {
		w := NewWorld(sim.NewKernel(), n, AlphaBeta(1e-3, 0))
		var end sim.Time
		w.Run(func(r *Rank) {
			r.Comm.Barrier()
			end = r.Proc.Now()
		})
		return end
	}
	if e2, e64 := elapsed(2), elapsed(64); e64 <= e2 {
		t.Fatalf("64-rank barrier (%v) not slower than 2-rank (%v)", e64, e2)
	}
}

// Property: ExscanI64 of all-ones yields each rank its own id, for any
// world size.
func TestExscanIdentityProperty(t *testing.T) {
	f := func(nRaw uint8) bool {
		n := int(nRaw%32) + 1
		ok := true
		w := world(n)
		w.Run(func(r *Rank) {
			if r.Comm.ExscanI64(1) != int64(r.ID) {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestManyRanksStress(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	w := world(4096)
	total := int64(0)
	w.Run(func(r *Rank) {
		s := r.Comm.AllreduceI64(1, "sum")
		if r.ID == 0 {
			total = s
		}
	})
	if total != 4096 {
		t.Fatalf("total=%d", total)
	}
}

func TestExscanVecI64(t *testing.T) {
	w := world(6)
	w.Run(func(r *Rank) {
		// Variable i contributes rank*(i+1) elements.
		v := []int64{int64(r.ID), int64(2 * r.ID), 7}
		offs, totals := r.Comm.ExscanVecI64(v)
		wantOff := []int64{0, 0, 0}
		for i := 0; i < r.ID; i++ {
			wantOff[0] += int64(i)
			wantOff[1] += int64(2 * i)
			wantOff[2] += 7
		}
		for j := range v {
			if offs[j] != wantOff[j] {
				t.Errorf("rank %d var %d: off=%d want %d", r.ID, j, offs[j], wantOff[j])
			}
		}
		if totals[0] != 15 || totals[1] != 30 || totals[2] != 42 {
			t.Errorf("rank %d: totals=%v", r.ID, totals)
		}
	})
}

func TestExscanVecMatchesScalar(t *testing.T) {
	w := world(9)
	w.Run(func(r *Rank) {
		v := int64(r.ID*r.ID + 1)
		offs, _ := r.Comm.ExscanVecI64([]int64{v})
		scalar := r.Comm.ExscanI64(v)
		if offs[0] != scalar {
			t.Errorf("rank %d: vec %d != scalar %d", r.ID, offs[0], scalar)
		}
	})
}

// TestAttachExternalProcs: processes the caller owns (not spawned by
// World.Spawn) attach as world ranks and complete collectives together
// with identical semantics — the hook co-scheduled job writers use.
func TestAttachExternalProcs(t *testing.T) {
	k := sim.NewKernel()
	w := NewWorld(k, 4, AlphaBeta(1e-6, 1.0/10e9))
	sums := make([]float64, 4)
	for i := 0; i < 4; i++ {
		i := i
		k.Spawn("ext", func(p *sim.Proc) {
			r := w.Attach(i, p)
			p.Sleep(sim.Time(i) * 0.01) // staggered arrivals
			sums[i] = r.Comm.AllreduceF64(float64(i), "sum")
		})
	}
	k.Run()
	for i, s := range sums {
		if s != 6 {
			t.Errorf("attached rank %d: sum=%v, want 6", i, s)
		}
	}
}

func TestAttachRejectsOutOfRangeRank(t *testing.T) {
	k := sim.NewKernel()
	w := NewWorld(k, 2, nil)
	k.Spawn("bad", func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("attach of rank 2 to a world of size 2 did not panic")
			}
		}()
		w.Attach(2, p)
	})
	k.Run()
}

// Memo builds a value once per world and key, whichever communicator of
// the world asks; a second world starts empty, and two key types with
// the same underlying value do not share an entry.
func TestMemoBuildsOncePerWorld(t *testing.T) {
	type nameKey string
	type pathKey string
	run := func(size int) *World {
		w := world(size)
		w.Run(func(r *Rank) {
			half := r.Comm.Split(r.ID%2, r.ID)
			for _, c := range []*Comm{r.Comm, half} {
				got := Memo(c, nameKey("x"), func() *int { v := r.ID; return &v })
				if *got != 0 {
					t.Errorf("rank %d reads rank %d's value, want the first rank's", r.ID, *got)
				}
			}
			if got := Memo(half, pathKey("x"), func() string { return "path" }); got != "path" {
				t.Errorf("pathKey(x) = %q: collided with nameKey(x)", got)
			}
			Memo(r.Comm, nameKey("y"), func() *int { return nil })
		})
		return w
	}
	for _, size := range []int{1, 8} {
		if got := run(size).MemoBuilds(); got != 3 {
			t.Errorf("a world of %d ranks built %d values, want 3", size, got)
		}
	}
}
