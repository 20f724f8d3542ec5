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
	"sync"

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

	// Spawn's rank handles and world communicators, for Release.
	handles []Rank
	comms   []Comm
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
	g := &commGroup{w: w}
	w.world = g
	g.ranks, g.parked = chunk[int](g, size), chunk[*sim.Proc](g, size)
	for i := range g.ranks {
		g.ranks[i] = i
	}
	return w
}

// Release gives the storage of the world group — its rank table, the
// blocks Rows and Block made on the world communicator, its collectives'
// rendezvous blocks and Spawn's rank handles — back to process-wide
// pools, one per element type, for the next world, and ends the world:
// Rows, Block, Memo and Spawn on it panic from then on. Call it once its
// kernel has run; no handle, block or collective result of the world may
// be kept.
func (w *World) Release() {
	w.live()
	g := w.world
	gs := addChunk(nil, g.ranks)
	gs = addChunk(gs, g.parked)
	gs = addChunk(gs, w.handles)
	gs = addChunk(gs, w.comms)
	for _, b := range g.blocks {
		gs = b.addChunks(gs)
	}
	for _, k := range g.kinds {
		gs = k.addChunks(gs)
	}
	for _, cs := range gs {
		cs.give()
	}
	w.world, w.memo, w.handles, w.comms = nil, nil, nil, nil
}

// live panics if the world has been released.
func (w *World) live() {
	if w.world == nil {
		panic(fmt.Sprintf("mpisim: use of a released World of %d ranks", w.Size))
	}
}

// holder is storage of the world group that holds pooled chunks: a block
// or a collective's rendezvous.
type holder interface {
	addChunks(gs []giver) []giver
}

// giver is a released world's chunks of one element type.
type giver interface{ give() }

type chunks[T any] [][]T

func (cs *chunks[T]) give() { poolOf[T]().Give(*cs) }

// addChunk adds c, whole, to the chunks in gs of its element type, so
// that each pool gets one Give: a pool keeps what its last Give brought.
func addChunk[T any](gs []giver, c []T) []giver {
	if cap(c) == 0 {
		return gs
	}
	c = c[:cap(c)]
	for _, cs := range gs {
		if cs, ok := cs.(*chunks[T]); ok {
			*cs = append(*cs, c)
			return gs
		}
	}
	return append(gs, &chunks[T]{c})
}

// pools holds the pool of each element type under a zero-size token of
// the type.
var pools sync.Map

type poolKey[T any] struct{}

// poolOf returns the process-wide pool of T.
func poolOf[T any]() *sim.Pool[T] {
	p, ok := pools.Load(poolKey[T]{})
	if !ok {
		p, _ = pools.LoadOrStore(poolKey[T]{}, new(sim.Pool[T]))
	}
	return p.(*sim.Pool[T])
}

// chunk returns n zero values of T for g's storage. For the world group,
// which Release gives back, they are the pool of T's chunk, whole behind
// the n, when one holds that many; a split group's are made, as the world
// keeps no list of its splits — a world may split any number of times.
func chunk[T any](g *commGroup, n int) []T {
	if g != g.w.world {
		return make([]T, n)
	}
	return poolOf[T]().Take(n)[:n]
}

// Rank is the per-process handle passed to rank programs.
type Rank struct {
	ID   int
	Proc *sim.Proc
	Comm *Comm // the world communicator
}

// Spawn launches the rank programs; the caller then drives the kernel with
// K.Run(). fn runs once per rank. The ranks' processes, handles and world
// communicators are one block each per world, from the pools.
func (w *World) Spawn(fn func(r *Rank)) {
	w.live()
	ranks, comms := chunk[Rank](w.world, w.Size), chunk[Comm](w.world, w.Size)
	w.handles, w.comms = ranks, comms
	w.K.SpawnN(w.Size, "rank", func(i int, p *sim.Proc) {
		r, c := &ranks[i], &comms[i]
		*r = Rank{ID: i, Proc: p, Comm: c}
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
	r := &Rank{ID: id, Proc: p}
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
	w.live()
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

// block is what a group holds under one (key, T, width): every rank's
// row, back to back in comm-rank order, and which ranks have taken
// theirs.
type block[K comparable, T any] struct {
	key   K
	width int
	elems []T
	taken []bool
}

// Block returns this rank's element of the block the communicator's group
// holds under (key, T), so that what every rank of a collective open has
// one of is one allocation, as the ranks' handles are (World.Spawn). The
// first rank to ask makes the block, one zero element per comm rank; on
// the world communicator it takes it from the pool a released world gave
// its blocks of T to (World.Release). A rank asking again for a slot it
// has taken — a second open of one path, say — gets a new element: a
// slot is never handed out twice. Unlike a Memo value, the element is the
// rank's to write. Make K or T private to the calling package.
func Block[K comparable, T any](c *Comm, key K) *T { return &Rows[K, T](c, key, 1)[0] }

// Rows is Block for a row of width elements, capped: an append to it
// cannot reach the next rank's row.
func Rows[K comparable, T any](c *Comm, key K, width int) []T {
	g := c.g
	g.w.live()
	var b *block[K, T]
	for _, x := range g.blocks {
		if x, ok := x.(*block[K, T]); ok && x.key == key && x.width == width {
			b = x
			break
		}
	}
	if b == nil {
		b = &block[K, T]{key: key, width: width, elems: chunk[T](g, len(g.ranks)*width), taken: chunk[bool](g, len(g.ranks))}
		g.blocks = append(g.blocks, b)
	}
	if b.taken[c.rank] {
		return make([]T, width)
	}
	b.taken[c.rank] = true
	lo := c.rank * width
	return b.elems[lo : lo+width : lo+width]
}

func (b *block[K, T]) addChunks(gs []giver) []giver {
	return addChunk(addChunk(gs, b.elems), b.taken)
}

// commGroup is the shared state of one communicator.
type commGroup struct {
	w     *World
	ranks []int // world rank per comm rank

	// kinds holds one rendezvous per collective the communicator has run,
	// kept across calls with its contribution block and result block.
	kinds []rendezvous
	// The rendezvous in progress, one of kinds, and the root it names (-1
	// for a collective without one). A communicator has at most one:
	// nobody leaves collective k before everybody has entered it, so
	// nobody enters k+1 while k is pending.
	pending rendezvous
	root    int
	arrived int
	// parked holds, by comm rank, the proc of each rank that waited in a
	// rendezvous of this communicator; the last arriver hands it to the
	// kernel as the release's list, where its own slot is skipped.
	parked []*sim.Proc
	// blocks holds what Block and Rows have made: a few, so a list.
	blocks []holder
}

// rendezvous is a collState of any types, for the communicator's list.
type rendezvous interface {
	kind() string
	holder
}

// collState is one kind of collective on a communicator: its name, how
// many calls its rendezvous stands for (two for a pair fused into one),
// every rank's contribution by call and then comm rank and, once the last
// rank has arrived, the bytes each call moved and the result all of them
// read — for a rooted collective, the root's receive buffer.
type collState[C, R any] struct {
	name     string
	parts    int
	contribs []C
	moved    [2]int64 // by call: a pair's two at most
	result   R
}

func (st *collState[C, R]) kind() string { return st.name }

func (st *collState[C, R]) addChunks(gs []giver) []giver {
	gs = addChunk(gs, st.contribs)
	if r, ok := any(st.result).(holder); ok {
		gs = r.addChunks(gs)
	}
	return gs
}

// pooled is a collective's result block that the communicator keeps,
// taken from the pools on the world group: Release gives it back with
// the rendezvous's contributions.
type pooled[E any] []E

func (p pooled[E]) addChunks(gs []giver) []giver { return addChunk(gs, []E(p)) }

// stateOf returns g's rendezvous for the collective name of parts calls,
// made at its first call.
func stateOf[C, R any](g *commGroup, name string, parts int) *collState[C, R] {
	for _, k := range g.kinds {
		if st, ok := k.(*collState[C, R]); ok && st.name == name {
			return st
		}
	}
	st := &collState[C, R]{name: name, parts: parts, contribs: chunk[C](g, parts*len(g.ranks))}
	g.kinds = append(g.kinds, st)
	return st
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

// A collective is enter, then leave: enter matches the rank's collective
// with the communicator's pending one and takes its contribution, leave
// waits for the others. They are two calls, not one, so that a rank parks
// under the one frame of leave.

// enter enters this rank into the communicator's collective name, which
// names root (-1 for a collective without one), with its contribution to
// each of the calls the collective stands for, and returns the kind's
// rendezvous. Ranks entering different collectives, or naming different
// roots, panic.
func enter[C, R any](c *Comm, name string, root int, contrib ...C) *collState[C, R] {
	g := c.g
	var st *collState[C, R]
	if g.arrived == 0 {
		st = stateOf[C, R](g, name, len(contrib))
		g.pending, g.root = st, root
	} else if s, ok := g.pending.(*collState[C, R]); ok && s.name == name && root == g.root {
		st = s
	} else {
		panic(c.mismatch(name, root))
	}
	for j, x := range contrib {
		st.contribs[j*len(g.ranks)+c.rank] = x
	}
	return st
}

// leave, the rank's contribution entered, counts it in and parks it, or,
// for the last to arrive, runs reduce and releases everybody. reduce finds
// every rank's contribution to each call in comm-rank order, call after
// call — a block it may overwrite, kept for the kind's next call — writes
// st.result and, in st.moved, the bytes each call moved, and returns how
// many operations each call stands for. Every operation is charged to the
// cost model for its call's bytes, one after the other, the first call's
// first: a pair of calls fused into one rendezvous costs what the two
// cost back to back.
func leave[C, R any](c *Comm, st *collState[C, R], reduce func(st *collState[C, R]) (ops int)) R {
	p, g := c.r.Proc, c.g
	g.arrived++
	if g.arrived < len(g.ranks) {
		g.parked[c.rank] = p
		p.Park()
		return st.result
	}
	g.pending, g.arrived = nil, 0
	ops := reduce(st)
	// The parked ranks leave in comm-rank order, this one after them, from
	// one queue entry: same-instant seq ties decide who reserves shared
	// servers first, and replay bit-identity pins that order.
	p.WakeAllAndSleepUntil(g.charge(p.Now(), st.moved[:st.parts], ops), g.parked)
	return st.result
}

// charge returns when a release that starts at now ends: ops operations
// for each call, each charged to the cost model for its call's bytes
// moved, one after the other. It has its own frame, which no parked rank
// holds.
//
//go:noinline
func (g *commGroup) charge(now sim.Time, moved []int64, ops int) sim.Time {
	for _, b := range moved {
		for range ops {
			now += g.w.cost(len(g.ranks), b)
		}
	}
	return now
}

// mismatch is the panic of a rank that entered collective name, naming
// root, on a communicator whose pending collective is another or names
// another.
func (c *Comm) mismatch(name string, root int) string {
	g := c.g
	what := fmt.Sprintf("the communicator's pending collective is %s", g.pending.kind())
	if g.pending.kind() == name {
		what = fmt.Sprintf("the communicator's pending %s has root %d", name, g.root)
		name = fmt.Sprintf("%s with root %d", name, root)
	}
	return fmt.Sprintf("mpisim: rank %d of %d entered %s while %s", c.rank, len(g.ranks), name, what)
}

// badRoot is the panic of a rooted collective name whose root is no rank.
func (c *Comm) badRoot(name string, root int) string {
	return fmt.Sprintf("mpisim: %s to root %d of a communicator of %d", name, root, c.Size())
}

// Barrier blocks until every rank in the communicator has entered.
func (c *Comm) Barrier() {
	leave(c, enter[struct{}, struct{}](c, "Barrier", -1, struct{}{}), func(*collState[struct{}, struct{}]) int { return 1 })
}

// BarrierErr is a Barrier that a rank may reach having failed: every rank
// returns the first non-nil err any rank entered with, in comm-rank order,
// so one rank's failure before a barrier ends them all instead of leaving
// the rest parked for good. The error rides the synchronisation and is
// charged as a barrier's, so where no rank failed it is Barrier.
func (c *Comm) BarrierErr(err error) error {
	return leave(c, enter[error, error](c, "BarrierErr", -1, err), func(st *collState[error, error]) int {
		st.result = nil
		for _, e := range st.contribs {
			if e != nil {
				st.result = e
				break
			}
		}
		return 1
	})
}

// checkOp rejects an unknown reduce op. It is a caller bug: every rank
// panics on entry, before any of them parks.
func checkOp(op string) {
	switch op {
	case "sum", "max", "min":
	default:
		panic(fmt.Sprintf("mpisim: unknown reduce op %q (want sum, max or min)", op))
	}
}

// combine folds x into acc with op, in T's own arithmetic.
func combine[T int64 | float64](op string, acc, x T) T {
	switch {
	case op == "sum":
		acc += x
	case op == "max" && x > acc, op == "min" && x < acc:
		acc = x
	}
	return acc
}

// allreduce combines one value per rank in comm-rank order.
func allreduce[T int64 | float64](c *Comm, name string, v T, op string) T {
	checkOp(op)
	return leave(c, enter[T, T](c, name, -1, v), func(st *collState[T, T]) int {
		acc := st.contribs[0]
		for _, x := range st.contribs[1:] {
			acc = combine(op, acc, x)
		}
		st.result, st.moved[0] = acc, int64(8*len(st.contribs))
		return 1
	})
}

// AllreduceI64 combines one int64 per rank ("sum", "max", "min"), exactly:
// the reduction is in int64, never through a float64.
func (c *Comm) AllreduceI64(v int64, op string) int64 { return allreduce(c, "AllreduceI64", v, op) }

// AllreduceVecF64 reduces v element-wise across the ranks once per op, in
// one rendezvous: result[k·len(v)+j] combines element j of every rank's v
// with ops[k], in comm-rank order — what len(ops)·len(v) scalar
// allreduces return, op by op, and charged as that many back to back.
// Every rank passes as many values and the same ops. v is copied in: the
// caller may reuse it at once. The result is a view of a block the
// communicator keeps, read-only and valid until this rank's next
// AllreduceVecF64 on it. An unknown op panics.
func (c *Comm) AllreduceVecF64(v []float64, ops ...string) []float64 {
	for _, op := range ops {
		checkOp(op)
	}
	// The block is a row per rank, then the result.
	n, m := c.Size(), len(v)
	st := enter[struct{}, pooled[float64]](c, "AllreduceVecF64", -1, struct{}{})
	if size := (n + len(ops)) * m; cap(st.result) < size {
		st.result = chunk[float64](c.g, size)
	} else {
		st.result = st.result[:size]
	}
	copy(st.result[c.rank*m:], v)
	return leave(c, st, func(st *collState[struct{}, pooled[float64]]) int {
		rows, res := st.result[:n*m], st.result[n*m:]
		for k, op := range ops {
			for j := range m {
				acc := rows[j]
				for i := m + j; i < len(rows); i += m {
					acc = combine(op, acc, rows[i])
				}
				res[k*m+j] = acc
			}
		}
		st.moved[0] = int64(8 * n)
		return len(res)
	})[n*m:]
}

// ExscanI64 returns the exclusive prefix sum of v across ranks — the MPI
// call openPMD-style writers use to compute each rank's offset in the
// global extent. Rank 0 receives 0.
func (c *Comm) ExscanI64(v int64) int64 {
	// The scan is written over the contributions, where each rank reads its
	// own at once: only it writes that slot again.
	return leave(c, enter[int64, []int64](c, "ExscanI64", -1, v), func(st *collState[int64, []int64]) int {
		var run int64
		for i, x := range st.contribs {
			st.contribs[i] = run
			run += x
		}
		st.result, st.moved[0] = st.contribs, int64(8*len(st.contribs))
		return 1
	})[c.rank]
}

// ExscanVecI64 performs an element-wise exclusive prefix sum over a
// vector of int64 (one entry per variable) and also returns the global
// sums — one collective instead of 2·len(v), which is what lets the
// openPMD adaptor compute every record component's offset and global
// extent in a single operation at 25k ranks. v must stay untouched until
// the call returns. Both results are views into one block the
// communicator keeps and shares between its ranks: read-only, and valid
// until this rank's next ExscanVecI64 on the communicator.
func (c *Comm) ExscanVecI64(v []int64) (offsets, totals []int64) {
	m := len(v)
	slab := leave(c, enter[[]int64, pooled[int64]](c, "ExscanVecI64", -1, v), func(st *collState[[]int64, pooled[int64]]) int {
		// Row i is rank i's offsets; the row after the last is the totals.
		n := len(st.contribs)
		if cap(st.result) < (n+1)*m {
			st.result = chunk[int64](c.g, (n+1)*m)
		}
		slab := st.result[:(n+1)*m]
		clear(slab[:m])
		for i, vec := range st.contribs {
			row, next := slab[i*m:(i+1)*m], slab[(i+1)*m:(i+2)*m]
			for j := range row {
				next[j] = row[j] + vec[j]
			}
		}
		st.result, st.moved[0] = slab, int64(8*m*n)
		return 1
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
// recv, which only root's matters, is MPI's receive buffer: the chunks are
// written over it, grown if it is short, and it is returned — pass the
// last call's result (as recv...) and a gather allocates nothing.
func (c *Comm) GathervBytes(n int64, data []byte, root int, recv ...GatherChunk) []GatherChunk {
	chunks := leave(c, enterGather(c, "GathervBytes", root, recv, GatherChunk{Rank: c.rank, N: n, Data: data}), gathered)
	if c.rank != root {
		return nil
	}
	return chunks
}

// GathervPair is GathervBytes(n1, data1, root) then GathervBytes(n2,
// data2, root) in one rendezvous, charged as the two back to back. Root
// receives the first gather's chunks and then the second's, in comm-rank
// order each, in one block — recv, as GathervBytes's — so its chunk i is
// rank i's first contribution and chunk Size()+i its second.
func (c *Comm) GathervPair(n1 int64, data1 []byte, n2 int64, data2 []byte, root int, recv ...GatherChunk) []GatherChunk {
	chunks := leave(c, enterGather(c, "GathervPair", root, recv, GatherChunk{Rank: c.rank, N: n1, Data: data1}, GatherChunk{Rank: c.rank, N: n2, Data: data2}), gathered)
	if c.rank != root {
		return nil
	}
	return chunks
}

// enterGather enters a gather of one chunk a rank per call it stands for,
// checking its root first, and hands it root's receive buffer.
func enterGather(c *Comm, name string, root int, recv []GatherChunk, parts ...GatherChunk) *collState[GatherChunk, []GatherChunk] {
	if root < 0 || root >= c.Size() {
		panic(c.badRoot(name, root))
	}
	st := enter[GatherChunk, []GatherChunk](c, name, root, parts...)
	if c.rank == root {
		st.result = recv
	}
	return st
}

// gathered is a gather's reduce: it copies every chunk, call after call,
// into root's receive buffer.
func gathered(st *collState[GatherChunk, []GatherChunk]) int {
	n := len(st.contribs) / st.parts
	st.moved = [2]int64{}
	for i, ch := range st.contribs {
		st.moved[i/n] += ch.N
	}
	// Copied now: a rank that leaves before the root may enter the next
	// gather and write its slot.
	st.result = append(st.result[:0], st.contribs...)
	clear(st.contribs) // the payloads are the ranks', not the communicator's
	return 1
}

// splitEntry is one rank's contribution to Split.
type splitEntry struct{ color, key, world, commRank int }

// Split partitions the communicator by color; within a color, ranks are
// ordered by (key, world rank), mirroring MPI_Comm_split.
func (c *Comm) Split(color, key int) *Comm {
	st := enter[splitEntry, []Comm](c, "Split", -1, splitEntry{color, key, c.g.ranks[c.rank], c.rank})
	m := &leave(c, st, c.partition)[c.rank]
	m.r = c.r // each rank completes its own handle, and only that
	return m
}

// SplitPair is Split(color1, key1) then Split(color2, key2) in one
// rendezvous, charged as the two back to back.
func (c *Comm) SplitPair(color1, key1, color2, key2 int) (*Comm, *Comm) {
	w := c.g.ranks[c.rank]
	st := enter[splitEntry, []Comm](c, "SplitPair", -1, splitEntry{color1, key1, w, c.rank}, splitEntry{color2, key2, w, c.rank})
	ms := leave(c, st, c.partition)
	a, b := &ms[c.rank], &ms[c.Size()+c.rank]
	a.r, b.r = c.r, c.r
	return a, b
}

// partition is a split's reduce: every rank's new handles, call after
// call, each in comm-rank order.
func (c *Comm) partition(st *collState[splitEntry, []Comm]) int {
	// Sorted, every color of a call is one run and the run is its group in
	// rank order: membership is built once per color, and the groups of
	// every call, their rank tables, their parking slots and every rank's
	// handles each come out of one block (the groups' sized exactly:
	// handles point into it).
	es := st.contribs
	n := len(es) / st.parts
	for lo := 0; lo < len(es); lo += n {
		slices.SortFunc(es[lo:lo+n], func(a, b splitEntry) int {
			return cmp.Or(cmp.Compare(a.color, b.color), cmp.Compare(a.key, b.key), cmp.Compare(a.world, b.world))
		})
	}
	colors := 0
	for i := range es {
		if i%n == 0 || es[i].color != es[i-1].color {
			colors++
		}
	}
	groups, members := make([]commGroup, 0, colors), make([]Comm, len(es))
	world, parked := make([]int, len(es)), make([]*sim.Proc, len(es))
	for lo, hi := 0, 0; lo < len(es); lo = hi {
		part := lo / n
		for hi < len(es) && hi/n == part && es[hi].color == es[lo].color {
			world[hi] = es[hi].world
			hi++
		}
		groups = append(groups, commGroup{w: c.g.w, ranks: world[lo:hi:hi], parked: parked[lo:hi:hi]})
		for i := lo; i < hi; i++ {
			members[part*n+es[i].commRank] = Comm{g: &groups[len(groups)-1], rank: i - lo}
		}
	}
	st.result, st.moved = members, [2]int64{int64(16 * n), int64(16 * n)}
	return 1
}
