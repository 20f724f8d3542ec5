package mpisim

import (
	"fmt"
	"iter"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"picmcio/internal/sim"
)

func world(size int) *World {
	return NewWorld(sim.NewKernel(), size, AlphaBeta(1e-6, 1.0/10e9))
}

// AllreduceF64 combines one float64 per rank with op ("sum", "max", "min").
// No shipped caller reduces a single float64 any more (adios2 reduces its
// timers with AllreduceVecF64); the tests keep it as a scalar allreduce of
// a collective kind of its own.
func (c *Comm) AllreduceF64(v float64, op string) float64 { return allreduce(c, "AllreduceF64", v, op) }

// splitPairOracle is what SplitPair stands for: two Splits back to back.
func (c *Comm) splitPairOracle(color1, key1, color2, key2 int) (*Comm, *Comm) {
	return c.Split(color1, key1), c.Split(color2, key2)
}

// gathervPairOracle is what GathervPair stands for: two GathervBytes back
// to back, root's chunks of the first then the second in one slice.
func (c *Comm) gathervPairOracle(n1 int64, data1 []byte, n2 int64, data2 []byte, root int) []GatherChunk {
	first := c.GathervBytes(n1, data1, root)
	second := c.GathervBytes(n2, data2, root)
	if first == nil {
		return nil
	}
	return append(first, second...)
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

// TestBarrierErr: every rank leaves a BarrierErr with the error of the
// lowest comm rank that entered with one, when a Barrier's ranks would
// leave it — the error rides the synchronisation for free.
func TestBarrierErr(t *testing.T) {
	leave := func(sync func(r *Rank) error) ([]sim.Time, []error) {
		when, errs := make([]sim.Time, 8), make([]error, 8)
		world(8).Run(func(r *Rank) {
			r.Proc.Sleep(sim.Time(7-r.ID) * 0.01) // the failing ranks arrive last
			errs[r.ID] = sync(r)
			when[r.ID] = r.Proc.Now()
		})
		return when, errs
	}
	want, _ := leave(func(r *Rank) error { r.Comm.Barrier(); return nil })
	fail := []error{2: fmt.Errorf("rank 2 failed"), 5: fmt.Errorf("rank 5 failed"), 7: nil}
	got, errs := leave(func(r *Rank) error { return r.Comm.BarrierErr(fail[r.ID]) })
	if !slices.Equal(got, want) {
		t.Errorf("ranks left BarrierErr at %v, Barrier at %v", got, want)
	}
	for rank, err := range errs {
		if err != fail[2] {
			t.Errorf("rank %d left with %v, want rank 2's error", rank, err)
		}
	}
	_, errs = leave(func(r *Rank) error { return r.Comm.BarrierErr(nil) })
	for rank, err := range errs {
		if err != nil {
			t.Errorf("rank %d left a barrier nobody failed with %v", rank, err)
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

// AllreduceVecF64 returns, op by op, what the scalar allreduce of every
// element returns, and takes a copy of v: a rank that overwrites v as soon
// as the call returns changes nobody's result.
func TestAllreduceVecF64(t *testing.T) {
	const n = 5
	world(n).Run(func(r *Rank) {
		x := float64(r.ID)
		v := []float64{x, -x, x * x}
		got := r.Comm.AllreduceVecF64(v, "sum", "max", "min")
		v[0], v[1], v[2] = 1e9, 1e9, 1e9
		var want []float64
		for _, op := range []string{"sum", "max", "min"} {
			for _, y := range []float64{x, -x, x * x} {
				want = append(want, r.Comm.AllreduceF64(y, op))
			}
		}
		if !slices.Equal(got, want) {
			t.Errorf("rank %d: %v, scalar allreduces %v", r.ID, got, want)
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
		// Collectives on the subcommunicator work, and on both of a pair's.
		sum := sub.AllreduceI64(1, "sum")
		if sum != 4 {
			t.Errorf("rank %d: sub sum=%d", r.ID, sum)
		}
		a, b := r.Comm.SplitPair(r.ID%3, r.ID, r.ID%2, r.ID)
		if sa, sb := a.AllreduceI64(1, "sum"), b.AllreduceI64(1, "sum"); sa != 4 || sb != 6 {
			t.Errorf("rank %d: pair sums %d and %d, want 4 and 6", r.ID, sa, sb)
		}
	})
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

// Block and Rows hand each rank its slot of one block per (key, T, width)
// of the communicator's group, sized and indexed by the communicator; a
// rank that asks again gets a new element, never its slot a second time;
// and none of it is a memo build.
func TestBlock(t *testing.T) {
	type nameKey string
	type pathKey string
	const size, width = 8, 3
	w := world(size)
	w.Run(func(r *Rank) {
		c := r.Comm
		slots := []unsafe.Pointer{
			unsafe.Pointer(Block[nameKey, int](c, "a")),
			unsafe.Pointer(Block[nameKey, int](c, "b")),
			unsafe.Pointer(Block[pathKey, int](c, "a")),
			unsafe.Pointer(Block[nameKey, int64](c, "a")),
			unsafe.Pointer(Block[nameKey, int](c, "a")), // taken: a new element
		}
		for i := range slots {
			for j := range i {
				if slots[i] == slots[j] {
					t.Errorf("rank %d: request %d returned the slot of request %d", r.ID, i, j)
				}
			}
		}

		half := c.Split(r.ID%2, r.ID)
		row := Rows[nameKey, int64](half, "row", width)
		if len(row) != width || cap(row) != width {
			t.Errorf("rank %d: a row of len %d, cap %d, want %d", r.ID, len(row), cap(row), width)
		}
		b := half.g.blocks[len(half.g.blocks)-1].(*block[nameKey, int64])
		if len(b.elems) != half.Size()*width || &b.elems[half.Rank()*width] != &row[0] {
			t.Errorf("rank %d: row at %p of a block of %d, want the split's block of %d at index %d", r.ID, &row[0], len(b.elems), half.Size()*width, half.Rank()*width)
		}
		for i := range row {
			row[i] = int64(r.ID)
		}
		_ = append(row, -1) // must not reach the next rank's row
		half.Barrier()
		for i, v := range b.elems {
			if want := int64(half.g.ranks[i/width]); v != want {
				t.Errorf("rank %d: element %d of the split's block is %d, want %d", r.ID, i, v, want)
			}
		}
	})
	if got := w.MemoBuilds(); got != 0 {
		t.Errorf("blocks counted %d memo builds, want 0", got)
	}
}

// AllreduceI64 reduces in int64: above 2^53 a float64 no longer holds
// every integer, and a byte total that large must still come back exact.
func TestAllreduceI64Exact(t *testing.T) {
	const base = int64(1) << 53
	world(3).Run(func(r *Rank) {
		if got, want := r.Comm.AllreduceI64(base+1, "sum"), 3*base+3; got != want {
			t.Errorf("rank %d: sum=%d, want %d", r.ID, got, want)
		}
		// base+1, base+3, base+1: as float64s they are base, base+4, base.
		v := base + 1 + 2*int64(r.ID%2)
		if got := r.Comm.AllreduceI64(v, "min"); got != base+1 {
			t.Errorf("rank %d: min=%d, want %d", r.ID, got, base+1)
		}
		if got := r.Comm.AllreduceI64(v, "max"); got != base+3 {
			t.Errorf("rank %d: max=%d, want %d", r.ID, got, base+3)
		}
	})
}

// An unknown op is rejected on entry, by every rank and whatever the size
// of the communicator: the run dies of a panic that names the op, not of
// the deadlock of the ranks that did park.
func TestAllreduceRejectsUnknownOp(t *testing.T) {
	for _, size := range []int{1, 4} {
		for name, call := range map[string]func(c *Comm){
			"F64": func(c *Comm) { c.AllreduceF64(1, "avg") },
			"I64": func(c *Comm) { c.AllreduceI64(1, "avg") },
		} {
			func() {
				defer func() {
					msg := fmt.Sprint(recover())
					if !strings.Contains(msg, `"avg"`) || strings.Contains(msg, "deadlock") {
						t.Errorf("Allreduce%s on %d ranks with op avg: %s, want a panic naming the op", name, size, msg)
					}
				}()
				world(size).Run(func(r *Rank) { call(r.Comm) })
			}()
		}
	}
}

// The order ranks leave a collective in is what decides same-instant ties
// downstream, and replay identity rests on it: the ranks that parked
// resume in comm-rank order whatever order they arrived in, and the last
// arriver, which woke them, after them.
func TestCollectiveResumesInCommRankOrder(t *testing.T) {
	const n = 12
	rng := rand.New(rand.NewSource(7))
	arrival := rng.Perm(n) // arrival[id] is when world rank id enters, in ms
	type exit struct{ group, rank int }
	var worldOrder []int
	var subOrder []exit
	world(n).Run(func(r *Rank) {
		// Three groups, ranked against world order.
		sub := r.Comm.Split(r.ID%3, -r.ID)
		r.Proc.Sleep(sim.Time(arrival[r.ID]) * 1e-3)
		r.Comm.Barrier()
		worldOrder = append(worldOrder, r.ID)
		r.Proc.Sleep(sim.Time(arrival[(r.ID+5)%n]) * 1e-3)
		sub.AllreduceF64(1, "sum")
		subOrder = append(subOrder, exit{r.ID % 3, sub.Rank()})
	})
	wantOrder := func(size, last int) []int {
		var want []int
		for i := 0; i < size; i++ {
			if i != last {
				want = append(want, i)
			}
		}
		return append(want, last)
	}
	lastWorld := slices.Index(arrival, n-1)
	if want := wantOrder(n, lastWorld); !slices.Equal(worldOrder, want) {
		t.Errorf("ranks arriving at %v ms left the world barrier in order %v, want %v", arrival, worldOrder, want)
	}
	for g := 0; g < 3; g++ {
		var got []int
		for _, e := range subOrder {
			if e.group == g {
				got = append(got, e.rank)
			}
		}
		// Group g is world ranks g, g+3, …, highest first; its last arriver
		// is the member with the latest second sleep.
		last, latest := 0, -1
		for id := g; id < n; id += 3 {
			if at := arrival[(id+5)%n]; at > latest {
				latest, last = at, (n-1-id)/3
			}
		}
		if want := wantOrder(n/3, last); !slices.Equal(got, want) {
			t.Errorf("group %d left its allreduce in comm-rank order %v, want %v", g, got, want)
		}
	}

	// A fused pair releases its ranks in the order, and at the instant, that
	// the two calls it stands for release them in: the last arriver at the
	// first is the last at the second, and the second's cost is added to
	// the first's wake time. Many draws, so that an addition in another
	// order rounds differently somewhere.
	type left struct {
		rank int
		at   sim.Time
	}
	for draw := int64(0); draw < 20; draw++ {
		rng := rand.New(rand.NewSource(draw))
		arrival := rng.Perm(n)
		sizes := make([]int64, n)
		for i := range sizes {
			sizes[i] = rng.Int63n(1 << 30)
		}
		second := rng.Int63n(1 << 30)
		for _, leg := range []struct {
			name          string
			fused, oracle func(c *Comm, id int)
		}{
			{"GathervPair",
				func(c *Comm, id int) { c.GathervPair(sizes[id], nil, second, nil, 0) },
				func(c *Comm, id int) { c.gathervPairOracle(sizes[id], nil, second, nil, 0) }},
			{"SplitPair",
				func(c *Comm, id int) { c.SplitPair(id%2, id, 0, -id) },
				func(c *Comm, id int) { c.splitPairOracle(id%2, id, 0, -id) }},
		} {
			exits := func(call func(c *Comm, id int)) []left {
				var out []left
				world(n).Run(func(r *Rank) {
					r.Proc.Sleep(sim.Time(arrival[r.ID]) * 1.1e-3)
					call(r.Comm, r.ID)
					out = append(out, left{r.ID, r.Proc.Now()})
				})
				return out
			}
			got, want := exits(leg.fused), exits(leg.oracle)
			if !slices.Equal(got, want) {
				t.Errorf("draw %d: %s: ranks left as %v, the two calls it stands for as %v", draw, leg.name, got, want)
			}
			var order []int
			for _, l := range got {
				order = append(order, l.rank)
			}
			if want := wantOrder(n, slices.Index(arrival, n-1)); !slices.Equal(order, want) {
				t.Errorf("draw %d: %s: ranks left in order %v, want %v", draw, leg.name, order, want)
			}
		}
	}
}

// splitReference is MPI_Comm_split done serially: for each rank, the world
// ranks of its group in (key, world rank) order.
func splitReference(colors, keys []int) [][]int {
	groups := map[int][]int{}
	for id, c := range colors {
		groups[c] = append(groups[c], id)
	}
	out := make([][]int, len(colors))
	for id, c := range colors {
		g := groups[c]
		sort.SliceStable(g, func(i, j int) bool { return keys[g[i]] < keys[g[j]] })
		out[id] = g
	}
	return out
}

func TestSplitMatchesReference(t *testing.T) {
	seed := time.Now().UnixNano()
	rng := rand.New(rand.NewSource(seed))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(64)
		colors, keys := make([]int, n), make([]int, n)
		for i := range colors {
			colors[i], keys[i] = rng.Intn(1+rng.Intn(n)), rng.Intn(8)-4
		}
		// A SplitPair's second split, over the colors and keys reversed, is
		// held to the same reference.
		subs, firsts, seconds := make([]*Comm, n), make([]*Comm, n), make([]*Comm, n)
		world(n).Run(func(r *Rank) {
			subs[r.ID] = r.Comm.Split(colors[r.ID], keys[r.ID])
			firsts[r.ID], seconds[r.ID] = r.Comm.SplitPair(colors[r.ID], keys[r.ID], colors[n-1-r.ID], keys[n-1-r.ID])
		})
		rcolors, rkeys := slices.Clone(colors), slices.Clone(keys)
		slices.Reverse(rcolors)
		slices.Reverse(rkeys)
		checkSplit(t, seed, colors, keys, subs)
		checkSplit(t, seed, colors, keys, firsts)
		checkSplit(t, seed, rcolors, rkeys, seconds)
	}
}

// checkSplit holds subs, every rank's communicator from one split by
// colors and keys, to splitReference.
func checkSplit(t *testing.T, seed int64, colors, keys []int, subs []*Comm) {
	t.Helper()
	want := splitReference(colors, keys)
	for id, sub := range subs {
		if !slices.Equal(sub.g.ranks, want[id]) {
			t.Fatalf("seed %d: %d ranks, colors %v, keys %v: rank %d is in group %v, want %v", seed, len(subs), colors, keys, id, sub.g.ranks, want[id])
		}
		if sub.Size() != len(want[id]) || want[id][sub.Rank()] != id {
			t.Fatalf("seed %d: rank %d is rank %d of %d in %v", seed, id, sub.Rank(), sub.Size(), want[id])
		}
		// One group per color, shared by its members and by nobody else.
		for other, osub := range subs {
			if (osub.g == sub.g) != (colors[other] == colors[id]) {
				t.Fatalf("seed %d: colors %v: ranks %d and %d: same group %v", seed, colors, id, other, osub.g == sub.g)
			}
		}
	}
}

// ExscanVecI64 hands out views into one block. No two of them overlap, and
// none can be grown into its neighbour: a rank that (against the contract)
// scribbles over its offsets changes nobody else's, and not the totals.
func TestExscanVecViewsAreDisjoint(t *testing.T) {
	const n, m = 7, 3
	world(n).Run(func(r *Rank) {
		offs, totals := r.Comm.ExscanVecI64([]int64{1, 2, int64(r.ID)})
		if len(offs) != m || cap(offs) != m || len(totals) != m || cap(totals) != m {
			t.Errorf("rank %d: offsets len %d cap %d, totals len %d cap %d, want %d throughout", r.ID, len(offs), cap(offs), len(totals), cap(totals), m)
		}
		want := []int64{int64(r.ID), 2 * int64(r.ID), int64(r.ID * (r.ID - 1) / 2)}
		r.Comm.Barrier()
		for j := range offs {
			if offs[j] != want[j] {
				t.Errorf("rank %d: offsets %v, want %v", r.ID, offs, want)
			}
			offs[j] = -int64(r.ID + 1)
		}
		r.Comm.Barrier()
		for j := range offs {
			if offs[j] != -int64(r.ID+1) {
				t.Errorf("rank %d: another rank wrote %d into its offsets", r.ID, offs[j])
			}
		}
		if !slices.Equal(totals, []int64{n, 2 * n, n * (n - 1) / 2}) {
			t.Errorf("rank %d: totals %v after every rank overwrote its offsets", r.ID, totals)
		}
	})
}

// A collective allocates nothing once its communicator has run one of its
// kind — a gather that is handed back its last result as the root's
// receive buffer included — and Split a constant number of objects,
// however many ranks it has: its groups, their rank tables and parking
// slots, and the new handles are a block each, and live on.
// Measured as the difference between worlds that differ only in how often
// they call, so that spawning the world, the kernel's queue and each
// kind's first call cancel out.
func TestCollectiveAllocs(t *testing.T) {
	const ranks, short, long = 64, 2, 10
	vec := make([][]int64, ranks)
	vals := make([][]float64, ranks)
	bufs := make([][]GatherChunk, ranks)
	for i := range vec {
		vec[i] = make([]int64, 10)
		vals[i] = make([]float64, 4)
	}
	for _, c := range []struct {
		name string
		call func(r *Rank)
		want float64
	}{
		{"Barrier", func(r *Rank) { r.Comm.Barrier() }, 0},
		{"BarrierErr", func(r *Rank) { r.Comm.BarrierErr(nil) }, 0},
		{"AllreduceF64", func(r *Rank) { r.Comm.AllreduceF64(1, "sum") }, 0},
		{"AllreduceI64", func(r *Rank) { r.Comm.AllreduceI64(1, "max") }, 0},
		{"AllreduceVecF64", func(r *Rank) { r.Comm.AllreduceVecF64(vals[r.ID], "sum", "max", "min") }, 0},
		{"ExscanI64", func(r *Rank) { r.Comm.ExscanI64(1) }, 0},
		{"ExscanVecI64", func(r *Rank) { r.Comm.ExscanVecI64(vec[r.ID]) }, 0},
		{"GathervBytes", func(r *Rank) { bufs[r.ID] = r.Comm.GathervBytes(8, nil, 0, bufs[r.ID]...) }, 0},
		{"GathervPair", func(r *Rank) { bufs[r.ID] = r.Comm.GathervPair(8, nil, 16, nil, 0, bufs[r.ID]...) }, 0},
		{"Split", func(r *Rank) { r.Comm.Split(r.ID%4, r.ID) }, 5},
		{"SplitPair", func(r *Rank) { r.Comm.SplitPair(r.ID%4, r.ID, r.ID%2, -r.ID) }, 5},
	} {
		run := func(calls int) float64 {
			return testing.AllocsPerRun(5, func() {
				clear(bufs)
				world(ranks).Run(func(r *Rank) {
					for i := 0; i < calls; i++ {
						c.call(r)
					}
				})
			})
		}
		perCall := (run(long) - run(short)) / (long - short)
		t.Logf("%s on %d ranks: %.1f objects per call", c.name, ranks, perCall)
		// Measured 0 throughout but Split's and SplitPair's 4.0 to 4.1 (their
		// four blocks, which SplitPair's two splits share);
		// 1, 2, 3, 2 and 6 for Barrier, AllreduceF64, ExscanVecI64,
		// GathervBytes and Split while every call made its rendezvous anew.
		if perCall > c.want {
			t.Errorf("%s on %d ranks allocates %.1f objects per call, want at most %.0f", c.name, ranks, perCall, c.want)
		}
	}
}

// Ranks of one communicator that enter different collectives, or one
// rooted collective with different roots, die of a panic that names both
// — whichever arrives first, and whatever kinds the communicator ran
// before — never of a type assertion inside the runtime, and never by
// borrowing another kind's rendezvous.
func TestMismatchedCollectivesPanic(t *testing.T) {
	kinds := []struct {
		name string
		call func(c *Comm)
	}{
		{"Barrier", func(c *Comm) { c.Barrier() }},
		{"BarrierErr", func(c *Comm) { c.BarrierErr(nil) }},
		{"AllreduceF64", func(c *Comm) { c.AllreduceF64(1, "sum") }},
		{"AllreduceI64", func(c *Comm) { c.AllreduceI64(1, "sum") }},
		{"AllreduceVecF64", func(c *Comm) { c.AllreduceVecF64([]float64{1}, "sum") }},
		{"ExscanI64", func(c *Comm) { c.ExscanI64(1) }},
		{"ExscanVecI64", func(c *Comm) { c.ExscanVecI64([]int64{1}) }},
		{"GathervBytes", func(c *Comm) { c.GathervBytes(1, nil, 0) }},
		{"GathervPair", func(c *Comm) { c.GathervPair(1, nil, 2, nil, 0) }},
		{"Split", func(c *Comm) { c.Split(0, 0) }},
		{"SplitPair", func(c *Comm) { c.SplitPair(0, 0, 1, 0) }},
	}
	// panicOf runs a world of two whose rank 0 calls first and rank 1
	// second, rank 1 or rank 0 arriving first.
	panicOf := func(first, second func(c *Comm), rank1First bool) (msg string) {
		defer func() { msg = fmt.Sprint(recover()) }()
		world(2).Run(func(r *Rank) {
			for _, k := range kinds { // every kind's rendezvous exists already
				k.call(r.Comm)
			}
			if (r.ID == 1) != rank1First {
				r.Proc.Sleep(1)
			}
			if r.ID == 0 {
				first(r.Comm)
			} else {
				second(r.Comm)
			}
		})
		return ""
	}
	for _, a := range kinds {
		for _, b := range kinds {
			if a.name == b.name {
				continue
			}
			for _, rank1First := range []bool{false, true} {
				late, lateKind, early := 1, b.name, a.name
				if rank1First {
					late, lateKind, early = 0, a.name, b.name
				}
				want := fmt.Sprintf("mpisim: rank %d of 2 entered %s while the communicator's pending collective is %s", late, lateKind, early)
				if got := panicOf(a.call, b.call, rank1First); !strings.Contains(got, want) {
					t.Errorf("rank 0 in %s, rank 1 in %s, rank 1 first %v: %s, want a panic with %q", a.name, b.name, rank1First, got, want)
				}
			}
		}
	}
	for _, rank1First := range []bool{false, true} {
		root0 := func(c *Comm) { c.GathervBytes(1, nil, 0) }
		root1 := func(c *Comm) { c.GathervBytes(1, nil, 1) }
		want := "mpisim: rank 1 of 2 entered GathervBytes with root 1 while the communicator's pending GathervBytes has root 0"
		if rank1First {
			want = "mpisim: rank 0 of 2 entered GathervBytes with root 0 while the communicator's pending GathervBytes has root 1"
		}
		if got := panicOf(root0, root1, rank1First); !strings.Contains(got, want) {
			t.Errorf("gathers to roots 0 and 1, rank 1 first %v: %s, want a panic with %q", rank1First, got, want)
		}
		pair0 := func(c *Comm) { c.GathervPair(1, nil, 2, nil, 0) }
		pair1 := func(c *Comm) { c.GathervPair(1, nil, 2, nil, 1) }
		want = strings.ReplaceAll(want, "GathervBytes", "GathervPair")
		if got := panicOf(pair0, pair1, rank1First); !strings.Contains(got, want) {
			t.Errorf("gather pairs to roots 0 and 1, rank 1 first %v: %s, want a panic with %q", rank1First, got, want)
		}
	}
}

// A gather to a root that is no rank of the communicator panics on entry,
// naming the call: the first rank to make it dies before it or anybody
// else has parked, and the communicator has no collective pending.
func TestBadRootPanicsBeforeParking(t *testing.T) {
	for _, c := range []struct {
		name string
		call func(c *Comm, root int)
	}{
		{"GathervBytes", func(c *Comm, root int) { c.GathervBytes(1, nil, root) }},
		{"GathervPair", func(c *Comm, root int) { c.GathervPair(1, nil, 2, nil, root) }},
	} {
		for _, root := range []int{-1, 3} {
			w := world(3)
			msg := func() (msg string) {
				defer func() { msg = fmt.Sprint(recover()) }()
				w.Run(func(r *Rank) {
					r.Proc.Sleep(sim.Time(r.ID)) // rank 0 calls first
					c.call(r.Comm, root)
				})
				return ""
			}()
			want := fmt.Sprintf("mpisim: %s to root %d of a communicator of 3", c.name, root)
			if !strings.Contains(msg, want) {
				t.Errorf("%s to root %d: %s, want a panic with %q", c.name, root, msg, want)
			}
			if g := w.world; g.arrived != 0 || g.pending != nil || slices.ContainsFunc(g.parked, func(p *sim.Proc) bool { return p != nil }) {
				t.Errorf("%s to root %d: %d ranks arrived, one parked %v, before the panic", c.name, root, g.arrived, slices.ContainsFunc(g.parked, func(p *sim.Proc) bool { return p != nil }))
			}
		}
	}
}

// A rank that leaves a gather before its root may enter the next gather on
// the communicator and write its contribution there before the root has
// run again: the root's result was copied into its receive buffer when the
// last rank arrived, so it holds this gather's chunks, not the next one's.
// So with a pair: root holds both calls' chunks of this pair, as the two
// GathervBytes it stands for would have given it.
func TestBackToBackGathersKeepTheirChunks(t *testing.T) {
	const n = 5
	world(n).Run(func(r *Rank) {
		var kept []GatherChunk
		for g := 0; g < 3; g++ {
			if r.ID == 0 {
				r.Proc.Sleep(1) // the root arrives last and leaves last
			}
			chunks := r.Comm.GathervBytes(int64(g), []byte{byte(10*g + r.ID)}, 0, kept...)
			if r.ID != 0 {
				continue
			}
			kept = chunks
			for i, ch := range chunks {
				if ch.Rank != i || ch.N != int64(g) || ch.Data[0] != byte(10*g+i) {
					t.Errorf("gather %d: chunk %d is %+v", g, i, ch)
				}
			}
		}
	})
	pairs := func(fused bool) [][]GatherChunk {
		var got [][]GatherChunk
		world(n).Run(func(r *Rank) {
			var kept []GatherChunk
			for g := 0; g < 3; g++ {
				if r.ID == 0 {
					r.Proc.Sleep(1)
				}
				n1, d1 := int64(g), []byte{byte(10*g + r.ID)}
				n2, d2 := int64(100+g), []byte{byte(50 + 10*g + r.ID)}
				var chunks []GatherChunk
				if fused {
					chunks = r.Comm.GathervPair(n1, d1, n2, d2, 0, kept...)
				} else {
					chunks = r.Comm.gathervPairOracle(n1, d1, n2, d2, 0)
				}
				if r.ID == 0 {
					kept = chunks
					got = append(got, slices.Clone(chunks))
				}
			}
		})
		return got
	}
	got, want := pairs(true), pairs(false)
	if len(got) != 3 || len(want) != 3 {
		t.Fatalf("root gathered %d pairs, the oracle %d; want 3", len(got), len(want))
	}
	for g := range got {
		if !slices.EqualFunc(got[g], want[g], func(a, b GatherChunk) bool {
			return a.Rank == b.Rank && a.N == b.N && slices.Equal(a.Data, b.Data)
		}) {
			t.Errorf("pair %d: root holds %+v, the two gathers give %+v", g, got[g], want[g])
		}
	}
}

// TestWorldSpawnAllocations is the ratchet on what a rank costs before its
// program runs: objects and bytes per rank of a world spawned, run with an
// empty rank program and gone. A world spawned after one of its size runs
// on the carriers that one left idle; a cold one — the idle list emptied
// first by a clean Run of no process — pays for them, and is bounded
// above what iter.Pull itself allocates on the running toolchain. The
// ranks' processes, handles and communicators are one block each per
// world, and a rank's name is formatted only on demand.
func TestWorldSpawnAllocations(t *testing.T) {
	const ranks = 1024
	measure := func(f func()) (objects, bytes float64) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		f() // the process's first world pays for the runtime's goroutine descriptors
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs-before.Mallocs) / ranks, float64(after.TotalAlloc-before.TotalAlloc) / ranks
	}
	pullObjects, pullBytes := measure(func() {
		for i := 0; i < ranks; i++ {
			next, stop := iter.Pull(func(yield func(struct{}) bool) { yield(struct{}{}) })
			next()
			stop()
		}
	})
	coldObjects, coldBytes := measure(func() {
		sim.NewKernel().Run()
		world(ranks).Run(func(r *Rank) {})
	})
	objects, bytes := measure(func() { world(ranks).Run(func(r *Rank) {}) })
	ownObjects, ownBytes := coldObjects-pullObjects, coldBytes-pullBytes
	t.Logf("World.Spawn: %.3f objects and %.0f B per rank on idle carriers; cold %.2f and %.0f, of them iter.Pull %.2f and %.0f, the simulator %.2f and %.0f",
		objects, bytes, coldObjects, coldBytes, pullObjects, pullBytes, ownObjects, ownBytes)
	// Measured on go1.24: on idle carriers 0.013 objects and 154 B (Proc,
	// queue entry, Rank, Comm and the world's rank and parking tables);
	// cold, 1.01 objects above iter.Pull (the carrier's loop closure) and
	// 202 B (those, a carrier and the closure).
	if objects > 0.05 {
		t.Errorf("World.Spawn on idle carriers allocates %.3f objects per rank, bound 0.05", objects)
	}
	if bytes > 170 {
		t.Errorf("World.Spawn on idle carriers allocates %.0f B per rank, bound 170", bytes)
	}
	if ownObjects > 2.01 {
		t.Errorf("World.Spawn allocates %.2f objects per rank above iter.Pull's %.2f, bound 2", ownObjects, pullObjects)
	}
	if ownBytes > 230 {
		t.Errorf("World.Spawn allocates %.0f B per rank above iter.Pull's %.0f, bound 230", ownBytes, pullBytes)
	}
}

// TestReleasedWorldPanics: Rows, Block, Memo, Spawn and Release on a
// released world panic with a message that names it.
func TestReleasedWorldPanics(t *testing.T) {
	type key string
	w := world(3)
	c := w.Attach(0, nil).Comm // Attach's handles are not the world's storage
	w.Release()
	for name, use := range map[string]func(){
		"Rows":    func() { Rows[key, int](c, "k", 2) },
		"Block":   func() { Block[key, int](c, "k") },
		"Memo":    func() { Memo(c, key("k"), func() int { return 1 }) },
		"Spawn":   func() { w.Spawn(func(*Rank) {}) },
		"Release": w.Release,
	} {
		func() {
			defer func() {
				if r := recover(); r != "mpisim: use of a released World of 3 ranks" {
					t.Errorf("%s after Release: recovered %v", name, r)
				}
			}()
			use()
		}()
	}
}

// TestRecycledBlockIsZero: the blocks a released world wrote every slot
// of are the next world's, each slot a zero value again.
func TestRecycledBlockIsZero(t *testing.T) {
	type key string
	type cell struct { // a type of its own: no other test uses its pool
		n int
		p *int
		s string
	}
	const size, width = 8, 3
	released := map[*cell]bool{}
	for round := range 2 {
		w := world(size)
		w.Run(func(r *Rank) {
			slots := []*cell{Block[key, cell](r.Comm, "b")}
			row := Rows[key, cell](r.Comm, "r", width)
			for i := range row {
				slots = append(slots, &row[i])
			}
			for _, v := range slots {
				if round == 1 && (*v != cell{} || !released[v]) {
					t.Errorf("rank %d: slot %p holds %+v, from a released block %v; want a zero value of one", r.ID, v, *v, released[v])
				}
				*v = cell{n: r.ID + 1, p: &r.ID, s: "dirty"}
				released[v] = true
			}
		})
		w.Release()
	}
}
