// Package mpisim is a simulated MPI runtime on the discrete-event kernel:
// each rank is a sim process, collectives cost virtual time through a
// pluggable alpha-beta network model, and communicators can be split —
// enough MPI surface for BIT1's I/O paths
// (offset exscan for openPMD global extents, gatherv for ADIOS2
// aggregation, barriers between phases).
//
// Collectives move real payloads when the caller provides them, so the
// compression pipeline operates on actual bytes; at extreme scale callers
// pass sizes only and the runtime charges time without copying data.
package mpisim

import (
	"cmp"
	"fmt"
	"slices"

	"picmcio/internal/sim"
)

// CostModel evaluates the time for a p-participant operation moving the
// given total payload bytes.
type CostModel func(p int, bytes int64) sim.Duration

// AlphaBeta returns the classic latency-bandwidth model:
// alpha*ceil(log2 p) + beta*bytes.
func AlphaBeta(alpha, beta float64) CostModel {
	return func(p int, bytes int64) sim.Duration {
		if p <= 1 {
			return sim.Duration(beta * float64(bytes))
		}
		hops := 0
		for v := p - 1; v > 0; v >>= 1 {
			hops++
		}
		return sim.Duration(alpha*float64(hops) + beta*float64(bytes))
	}
}

// World is an MPI world of Size ranks.
type World struct {
	K    *sim.Kernel
	Size int
	cost CostModel

	world *commGroup

	// memo holds one typed map per (key type, value type) pair that Memo
	// has been called with, under a zero-size token of that pair.
	memo       map[any]any
	memoBuilds int
}

// NewWorld creates a world of size ranks with the given network model.
func NewWorld(k *sim.Kernel, size int, cost CostModel) *World {
	if size < 1 {
		panic("mpisim: world size must be >= 1")
	}
	if cost == nil {
		cost = AlphaBeta(1e-6, 1.0/10e9)
	}
	w := &World{K: k, Size: size, cost: cost}
	ranks := make([]int, size)
	for i := range ranks {
		ranks[i] = i
	}
	w.world = &commGroup{w: w, ranks: ranks, parked: make([]*sim.Proc, size)}
	return w
}

// Rank is the per-process handle passed to rank programs.
type Rank struct {
	ID   int
	Proc *sim.Proc
	W    *World
	Comm *Comm // the world communicator
}

// Spawn launches the rank programs; the caller then drives the kernel with
// K.Run(). fn runs once per rank. The ranks' processes, handles and world
// communicators are one block each per world.
func (w *World) Spawn(fn func(r *Rank)) {
	ranks, comms := make([]Rank, w.Size), make([]Comm, w.Size)
	w.K.SpawnN(w.Size, "rank", func(i int, p *sim.Proc) {
		r, c := &ranks[i], &comms[i]
		*r = Rank{ID: i, Proc: p, W: w, Comm: c}
		*c = Comm{g: w.world, rank: i, r: r}
		fn(r)
	})
}

// Run is a convenience that spawns the rank programs and runs the kernel
// to completion, returning the final virtual time.
func (w *World) Run(fn func(r *Rank)) sim.Time {
	w.Spawn(fn)
	return w.K.Run()
}

// Attach registers an externally managed process as world rank id and
// returns its rank handle — the hook for drivers that own their
// processes (a co-scheduled job's per-node writers, say) and want them
// to run rank programs without World.Spawn. Each rank id must be
// attached to exactly one process, and every rank of the world must
// participate before a world-communicator collective can complete.
func (w *World) Attach(id int, p *sim.Proc) *Rank {
	if id < 0 || id >= w.Size {
		panic(fmt.Sprintf("mpisim: attach rank %d outside world of size %d", id, w.Size))
	}
	r := &Rank{ID: id, Proc: p, W: w}
	r.Comm = &Comm{g: w.world, rank: id, r: r}
	return r
}

// memoSlot is the token a (K, V) pair's typed map is stored under.
type memoSlot[K comparable, V any] struct{}

// Memo returns the value the communicator's world holds under key,
// calling build on the first rank that asks — the simulator's analogue of
// MPI communicator attribute caching. It is for what every rank would
// otherwise compute identically: the value must be immutable once built
// and derived only from rank-invariant inputs, all of which belong in
// key. Values live in one map per (K, V) pair: make K or V a type private
// to the calling package and no other package's keys can collide with
// yours. Ranks of one kernel never run concurrently, so there is no lock;
// a world must not be shared between kernels.
func Memo[K comparable, V any](c *Comm, key K, build func() V) V {
	w := c.g.w
	m, _ := w.memo[memoSlot[K, V]{}].(map[K]V)
	if v, ok := m[key]; ok {
		return v
	}
	if m == nil {
		if w.memo == nil {
			w.memo = map[any]any{}
		}
		m = map[K]V{}
		w.memo[memoSlot[K, V]{}] = m
	}
	v := build()
	w.memoBuilds++
	m[key] = v
	return v
}

// MemoBuilds reports how many values Memo has built for this world.
func (w *World) MemoBuilds() int { return w.memoBuilds }

// commGroup is the shared state of one communicator.
type commGroup struct {
	w     *World
	ranks []int // world rank per comm rank

	// The rendezvous in progress, a *collState[C, R]. A communicator has at
	// most one: nobody leaves collective k before everybody has entered it,
	// so nobody enters k+1 while k is pending.
	pending any
	arrived int
	// parked holds the procs waiting in the pending rendezvous, by comm
	// rank; the last arriver wakes them and leaves every entry nil.
	parked []*sim.Proc
}

// collState is one matched collective: every rank's contribution by comm
// rank and, once the last rank has arrived, the result all of them read.
type collState[C, R any] struct {
	contribs []C
	result   R
}

// Comm is a per-rank communicator handle.
type Comm struct {
	g    *commGroup
	rank int // my index within g.ranks
	r    *Rank
}

// Rank reports this process's rank within the communicator.
func (c *Comm) Rank() int { return c.rank }

// Size reports the communicator size.
func (c *Comm) Size() int { return len(c.g.ranks) }

// collective executes one matched collective and returns its result, the
// same value on every rank; what a rank takes from it is the caller's
// business. The reduce callback runs on the last-arriving rank: it
// receives every rank's contribution in comm-rank order — a slice it may
// overwrite or keep, nobody else holds it — and returns the result and the
// total bytes moved (for the cost model).
func collective[C, R any](c *Comm, contrib C, reduce func(contribs []C) (R, int64)) R {
	p, g := c.r.Proc, c.g
	n := len(g.ranks)
	if g.pending == nil {
		g.pending = &collState[C, R]{contribs: make([]C, n)}
	}
	// Panics if the ranks of a communicator enter different collectives.
	st := g.pending.(*collState[C, R])
	st.contribs[c.rank] = contrib
	g.arrived++
	if g.arrived < n {
		g.parked[c.rank] = p
		p.Park()
		return st.result
	}
	g.pending, g.arrived = nil, 0
	var bytes int64
	st.result, bytes = reduce(st.contribs)
	wakeAt := p.Now() + g.w.cost(n, bytes)
	// Deliberately not a sim.Completion: its broadcast resumes waiters
	// in arrival order, while ranks leaving a collective must resume in
	// comm-rank order, this one after them — same-instant seq ties decide
	// who reserves shared servers first, and replay bit-identity pins that
	// order.
	for i, q := range g.parked {
		if q != nil {
			g.parked[i] = nil
			g.w.K.WakeAt(wakeAt, q)
		}
	}
	p.SleepUntil(wakeAt)
	return st.result
}

// Barrier blocks until every rank in the communicator has entered.
func (c *Comm) Barrier() {
	collective(c, struct{}{}, func([]struct{}) (struct{}, int64) { return struct{}{}, 0 })
}

// allreduce combines one value per rank in comm-rank order, in T's own
// arithmetic. An unknown op is a caller bug: every rank panics on entry,
// before any of them parks.
func allreduce[T int64 | float64](c *Comm, v T, op string) T {
	switch op {
	case "sum", "max", "min":
	default:
		panic(fmt.Sprintf("mpisim: unknown reduce op %q (want sum, max or min)", op))
	}
	return collective(c, v, func(contribs []T) (T, int64) {
		acc := contribs[0]
		for _, x := range contribs[1:] {
			switch {
			case op == "sum":
				acc += x
			case op == "max" && x > acc, op == "min" && x < acc:
				acc = x
			}
		}
		return acc, int64(8 * len(contribs))
	})
}

// AllreduceF64 combines one float64 per rank with op ("sum", "max", "min")
// and returns the result on every rank. An unknown op panics.
func (c *Comm) AllreduceF64(v float64, op string) float64 { return allreduce(c, v, op) }

// AllreduceI64 combines one int64 per rank ("sum", "max", "min"), exactly:
// the reduction is in int64, never through a float64.
func (c *Comm) AllreduceI64(v int64, op string) int64 { return allreduce(c, v, op) }

// ExscanI64 returns the exclusive prefix sum of v across ranks — the MPI
// call openPMD-style writers use to compute each rank's offset in the
// global extent. Rank 0 receives 0.
func (c *Comm) ExscanI64(v int64) int64 {
	return collective(c, v, func(contribs []int64) ([]int64, int64) {
		var run int64
		for i, x := range contribs {
			contribs[i] = run
			run += x
		}
		return contribs, int64(8 * len(contribs))
	})[c.rank]
}

// ExscanVecI64 performs an element-wise exclusive prefix sum over a
// vector of int64 (one entry per variable) and also returns the global
// sums — one collective instead of 2·len(v), which is what lets the
// openPMD adaptor compute every record component's offset and global
// extent in a single operation at 25k ranks. v must stay untouched until
// the call returns. Both results are views into one block shared by all
// ranks of the communicator: read-only.
func (c *Comm) ExscanVecI64(v []int64) (offsets, totals []int64) {
	m := len(v)
	slab := collective(c, v, func(contribs [][]int64) ([]int64, int64) {
		// Row i is rank i's offsets; the row after the last is the totals.
		n := len(contribs)
		slab := make([]int64, (n+1)*m)
		for i, vec := range contribs {
			row, next := slab[i*m:(i+1)*m], slab[(i+1)*m:(i+2)*m]
			for j := range row {
				next[j] = row[j] + vec[j]
			}
		}
		return slab, int64(8 * m * n)
	})
	lo, end := c.rank*m, len(slab)-m
	return slab[lo : lo+m : lo+m], slab[end:]
}

// GatherChunk is one rank's contribution to GathervBytes.
type GatherChunk struct {
	Rank int
	N    int64
	Data []byte // nil in volume mode
}

// GathervBytes gathers variable-size chunks onto root. Every rank passes
// its size n and optional payload; root receives all chunks in comm-rank
// order, other ranks receive nil. Cost is charged for the total volume.
func (c *Comm) GathervBytes(n int64, data []byte, root int) []GatherChunk {
	chunks := collective(c, GatherChunk{Rank: c.rank, N: n, Data: data}, func(chunks []GatherChunk) ([]GatherChunk, int64) {
		var total int64
		for _, ch := range chunks {
			total += ch.N
		}
		return chunks, total
	})
	if c.rank != root {
		return nil
	}
	return chunks
}

// splitEntry is one rank's contribution to Split.
type splitEntry struct{ color, key, world, commRank int }

// Split partitions the communicator by color; within a color, ranks are
// ordered by (key, world rank), mirroring MPI_Comm_split.
func (c *Comm) Split(color, key int) *Comm {
	m := &collective(c, splitEntry{color, key, c.g.ranks[c.rank], c.rank}, func(es []splitEntry) ([]Comm, int64) {
		// Sorted, every color is one run and the run is its group in rank
		// order: membership is built once per color, and the groups, their
		// rank tables, their parking slots and every rank's handle each
		// come out of one block (the groups' sized exactly: handles point
		// into it).
		slices.SortFunc(es, func(a, b splitEntry) int {
			return cmp.Or(cmp.Compare(a.color, b.color), cmp.Compare(a.key, b.key), cmp.Compare(a.world, b.world))
		})
		colors := 0
		for i := range es {
			if i == 0 || es[i].color != es[i-1].color {
				colors++
			}
		}
		groups, members := make([]commGroup, 0, colors), make([]Comm, len(es))
		world, parked := make([]int, len(es)), make([]*sim.Proc, len(es))
		for lo, hi := 0, 0; lo < len(es); lo = hi {
			for hi < len(es) && es[hi].color == es[lo].color {
				world[hi] = es[hi].world
				hi++
			}
			groups = append(groups, commGroup{w: c.g.w, ranks: world[lo:hi:hi], parked: parked[lo:hi:hi]})
			for i := lo; i < hi; i++ {
				members[es[i].commRank] = Comm{g: &groups[len(groups)-1], rank: i - lo}
			}
		}
		return members, int64(16 * len(es))
	})[c.rank]
	m.r = c.r // each rank completes its own handle, and only that
	return m
}
