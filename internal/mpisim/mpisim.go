// Package mpisim is a simulated MPI runtime on the discrete-event kernel:
// each rank is a sim process, point-to-point messages and collectives cost
// virtual time through a pluggable alpha-beta network model, and
// communicators can be split — enough MPI surface for BIT1's I/O paths
// (offset exscan for openPMD global extents, gatherv for ADIOS2
// aggregation, barriers between phases).
//
// Collectives move real payloads when the caller provides them, so the
// compression pipeline operates on actual bytes; at extreme scale callers
// pass sizes only and the runtime charges time without copying data.
package mpisim

import (
	"fmt"
	"sort"

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
	w.world = newCommGroup(w, ranks)
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
// K.Run(). fn runs once per rank.
func (w *World) Spawn(fn func(r *Rank)) {
	for i := 0; i < w.Size; i++ {
		i := i
		w.K.Spawn(fmt.Sprintf("rank%05d", i), func(p *sim.Proc) {
			r := &Rank{ID: i, Proc: p, W: w}
			r.Comm = &Comm{g: w.world, rank: i, r: r}
			fn(r)
		})
	}
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
	colls map[int]*collState
	mail  map[mailKey][]*message
	recvQ map[mailKey]*recvWait
}

func newCommGroup(w *World, ranks []int) *commGroup {
	return &commGroup{
		w:     w,
		ranks: ranks,
		colls: map[int]*collState{},
		mail:  map[mailKey][]*message{},
		recvQ: map[mailKey]*recvWait{},
	}
}

type mailKey struct {
	to, from, tag int
}

type message struct {
	payload any
	bytes   int64
	arrival sim.Time
}

// recvWait is a posted receive: the arrival completion is a timed
// broadcast (sim.Completion.CompleteAt), so the matching Send releases
// the receiver at the message's arrival time.
type recvWait struct {
	arrived *sim.Completion
	msg     *message
}

type collState struct {
	arrived  int
	contribs []any
	procs    []*sim.Proc
	results  []any
	wakeAt   sim.Time
}

// Comm is a per-rank communicator handle.
type Comm struct {
	g    *commGroup
	rank int // my index within g.ranks
	r    *Rank
	seq  int // my next collective sequence number
}

// Rank reports this process's rank within the communicator.
func (c *Comm) Rank() int { return c.rank }

// Size reports the communicator size.
func (c *Comm) Size() int { return len(c.g.ranks) }

// collective executes one matched collective. The reduce callback runs on
// the last-arriving rank; it receives every rank's contribution in comm
// rank order and returns the per-rank results and the total bytes moved
// (for the cost model).
func (c *Comm) collective(contrib any, reduce func(contribs []any) (results []any, bytes int64)) any {
	p := c.r.Proc
	id := c.seq
	c.seq++
	st := c.g.colls[id]
	if st == nil {
		n := len(c.g.ranks)
		st = &collState{contribs: make([]any, n), procs: make([]*sim.Proc, n)}
		c.g.colls[id] = st
	}
	st.contribs[c.rank] = contrib
	st.arrived++
	if st.arrived < len(c.g.ranks) {
		st.procs[c.rank] = p
		p.Park()
	} else {
		results, bytes := reduce(st.contribs)
		st.results = results
		st.wakeAt = p.Now() + c.g.w.cost(len(c.g.ranks), bytes)
		delete(c.g.colls, id)
		// Deliberately not a sim.Completion: its broadcast resumes waiters
		// in arrival order, while ranks leaving a collective must resume in
		// comm-rank order — same-instant seq ties decide who reserves shared
		// servers first, and replay bit-identity pins that order.
		for _, q := range st.procs {
			if q != nil {
				c.g.w.K.WakeAt(st.wakeAt, q)
			}
		}
		p.SleepUntil(st.wakeAt)
	}
	if st.results == nil {
		return nil
	}
	return st.results[c.rank]
}

// Barrier blocks until every rank in the communicator has entered.
func (c *Comm) Barrier() {
	c.collective(nil, func(_ []any) ([]any, int64) {
		return make([]any, len(c.g.ranks)), 0
	})
}

// AllreduceF64 combines one float64 per rank with op ("sum", "max", "min")
// and returns the result on every rank.
func (c *Comm) AllreduceF64(v float64, op string) float64 {
	res := c.collective(v, func(contribs []any) ([]any, int64) {
		acc := contribs[0].(float64)
		for _, x := range contribs[1:] {
			f := x.(float64)
			switch op {
			case "sum":
				acc += f
			case "max":
				if f > acc {
					acc = f
				}
			case "min":
				if f < acc {
					acc = f
				}
			default:
				panic("mpisim: unknown op " + op)
			}
		}
		out := make([]any, len(contribs))
		for i := range out {
			out[i] = acc
		}
		return out, int64(8 * len(contribs))
	})
	return res.(float64)
}

// AllreduceI64 combines one int64 per rank ("sum", "max", "min").
func (c *Comm) AllreduceI64(v int64, op string) int64 {
	return int64(c.AllreduceF64(float64(v), op))
}

// ExscanI64 returns the exclusive prefix sum of v across ranks — the MPI
// call openPMD-style writers use to compute each rank's offset in the
// global extent. Rank 0 receives 0.
func (c *Comm) ExscanI64(v int64) int64 {
	res := c.collective(v, func(contribs []any) ([]any, int64) {
		out := make([]any, len(contribs))
		var run int64
		for i, x := range contribs {
			out[i] = run
			run += x.(int64)
		}
		return out, int64(8 * len(contribs))
	})
	return res.(int64)
}

// ExscanVecI64 performs an element-wise exclusive prefix sum over a
// vector of int64 (one entry per variable) and also returns the global
// sums — one collective instead of 2·len(v), which is what lets the
// openPMD adaptor compute every record component's offset and global
// extent in a single operation at 25k ranks.
func (c *Comm) ExscanVecI64(v []int64) (offsets, totals []int64) {
	res := c.collective(v, func(contribs []any) ([]any, int64) {
		m := len(v)
		run := make([]int64, m)
		out := make([]any, len(contribs))
		for i, x := range contribs {
			vec := x.([]int64)
			offs := make([]int64, m)
			copy(offs, run)
			for j := 0; j < m; j++ {
				run[j] += vec[j]
			}
			out[i] = offs
		}
		// run now holds the totals; attach them to every rank's result.
		for i := range out {
			out[i] = [2][]int64{out[i].([]int64), run}
		}
		return out, int64(8 * m * len(contribs))
	})
	pair := res.([2][]int64)
	return pair[0], pair[1]
}

// AllgatherI64 gathers one int64 from every rank onto every rank.
func (c *Comm) AllgatherI64(v int64) []int64 {
	res := c.collective(v, func(contribs []any) ([]any, int64) {
		all := make([]int64, len(contribs))
		for i, x := range contribs {
			all[i] = x.(int64)
		}
		out := make([]any, len(contribs))
		for i := range out {
			out[i] = all
		}
		return out, int64(8 * len(contribs) * len(contribs))
	})
	return res.([]int64)
}

// BcastI64 broadcasts v from root to every rank.
func (c *Comm) BcastI64(v int64, root int) int64 {
	res := c.collective(v, func(contribs []any) ([]any, int64) {
		out := make([]any, len(contribs))
		for i := range out {
			out[i] = contribs[root]
		}
		return out, int64(8 * len(contribs))
	})
	return res.(int64)
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
	type contrib struct {
		n    int64
		data []byte
	}
	res := c.collective(contrib{n, data}, func(contribs []any) ([]any, int64) {
		chunks := make([]GatherChunk, len(contribs))
		var total int64
		for i, x := range contribs {
			ct := x.(contrib)
			chunks[i] = GatherChunk{Rank: i, N: ct.n, Data: ct.data}
			total += ct.n
		}
		out := make([]any, len(contribs))
		out[root] = chunks
		return out, total
	})
	if res == nil {
		return nil
	}
	return res.([]GatherChunk)
}

// Split partitions the communicator by color; within a color, ranks are
// ordered by (key, world rank), mirroring MPI_Comm_split.
func (c *Comm) Split(color, key int) *Comm {
	type ck struct{ color, key, world, commRank int }
	res := c.collective(ck{color, key, c.g.ranks[c.rank], c.rank}, func(contribs []any) ([]any, int64) {
		byColor := map[int][]ck{}
		for _, x := range contribs {
			e := x.(ck)
			byColor[e.color] = append(byColor[e.color], e)
		}
		groups := map[int]*commGroup{}
		idxInGroup := make([]any, len(contribs))
		for color, members := range byColor {
			sort.Slice(members, func(i, j int) bool {
				if members[i].key != members[j].key {
					return members[i].key < members[j].key
				}
				return members[i].world < members[j].world
			})
			ranks := make([]int, len(members))
			for i, m := range members {
				ranks[i] = m.world
			}
			groups[color] = newCommGroup(c.g.w, ranks)
			for i, m := range members {
				idxInGroup[m.commRank] = []any{groups[color], i}
			}
		}
		return idxInGroup, int64(16 * len(contribs))
	})
	pair := res.([]any)
	return &Comm{g: pair[0].(*commGroup), rank: pair[1].(int), r: c.r}
}

// Send delivers a message of n bytes (payload optional) to comm rank `to`
// with the given tag. The sender is charged a small injection overhead;
// the message arrives after the network cost for its size.
func (c *Comm) Send(to, tag int, n int64, payload any) {
	p := c.r.Proc
	arrival := p.Now() + c.g.w.cost(2, n)
	key := mailKey{to: to, from: c.rank, tag: tag}
	msg := &message{payload: payload, bytes: n, arrival: arrival}
	if rw, ok := c.g.recvQ[key]; ok && rw.msg == nil {
		rw.msg = msg
		delete(c.g.recvQ, key)
		rw.arrived.CompleteAt(arrival)
	} else {
		c.g.mail[key] = append(c.g.mail[key], msg)
	}
	p.Sleep(c.g.w.cost(2, 0)) // injection overhead
}

// Recv blocks until a message from comm rank `from` with the given tag
// arrives and returns its payload and size.
func (c *Comm) Recv(from, tag int) (any, int64) {
	p := c.r.Proc
	key := mailKey{to: c.rank, from: from, tag: tag}
	if q := c.g.mail[key]; len(q) > 0 {
		msg := q[0]
		if len(q) == 1 {
			delete(c.g.mail, key)
		} else {
			c.g.mail[key] = q[1:]
		}
		p.SleepUntil(msg.arrival)
		return msg.payload, msg.bytes
	}
	if _, busy := c.g.recvQ[key]; busy {
		panic("mpisim: two concurrent Recv calls on the same (from, tag)")
	}
	rw := &recvWait{arrived: sim.NewCompletion(p.Kernel())}
	c.g.recvQ[key] = rw
	rw.arrived.Wait(p)
	return rw.msg.payload, rw.msg.bytes
}
