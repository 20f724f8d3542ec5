// Package sim provides a deterministic discrete-event simulation kernel.
//
// Processes advance a shared virtual clock by sleeping or by blocking on
// simulated resources. Each runs on a carrier, a coroutine of the
// kernel's run loop (iter.Pull) that passes on to another process once
// its own has finished, in this kernel or a later one. Exactly one
// process runs at a time; the loop switches to the process whose next
// event is earliest, breaking ties by event sequence number, so runs are
// bit-reproducible. A handoff is a direct switch between two goroutines
// on one thread: it never enters the Go scheduler.
//
// The kernel is the substrate for the simulated MPI runtime and the
// simulated parallel file systems: storage devices are modeled as FCFS
// bandwidth/latency servers (see Server and MultiServer) and rank programs
// are ordinary Go code executed inside processes.
package sim

import (
	"fmt"
	"iter"
	"math"
	"sync"
)

// Time is a point in virtual time, in seconds since the start of the run.
type Time float64

// Duration is a span of virtual time in seconds.
type Duration = Time

// event is a scheduled resumption of a process, or of a batch of them.
// Only the entry whose seq matches the process's pendingSeq is live;
// earlier entries for the same process are tombstones that the run loop
// discards when they pop, so a re-schedule (WakeAt racing a pending wake,
// a Kill superseding a sleep) can never resume a process twice or out of
// order. An entry whose p is a batch's entry stands for one such entry per
// member at (at, seq), delivered back to back: see release. Entries are
// 24 bytes, and stay so: the queue moves them by value.
type event struct {
	at  Time
	seq uint64
	p   *Proc
}

// batch is the process list one release queued: the members, in list
// order, then the rider. A member is claimed by the release — its
// pendingSeq set to seq — unless it was nil, the rider, finished or killed
// then; claimed or not stays so, because a pendingSeq only grows and a
// dead process's never moves. Delivery resumes each claimed member whose
// pendingSeq is still seq, counts the others stale, as their tombstones
// would have been, and skips the unclaimed, which never had an entry.
type batch struct {
	// entry is what the queue holds for the batch: a Proc that is no
	// process, marked batch, whose index is the record's slot (see
	// Kernel.batchAt).
	entry  Proc
	at     Time
	seq    uint64
	ws     []*Proc
	rider  *Proc  // resumes after the members; nil once delivered
	i      int    // the next member to look at
	pooled bool   // ws is a wait list of the kernel's pool (see waitQueue)
	free   *batch // the next free record, while this one is free
}

// Kernel owns the virtual clock and the event queue.
// The zero value is not usable; create kernels with NewKernel.
type Kernel struct {
	now  Time
	q    queue // sorted lanes and a spill heap, see queue.go
	seq  uint64
	live int // processes spawned and not yet finished
	// fastPath enables run-to-completion timer sleeps (see
	// Proc.SleepUntil). Always set by NewKernel; in-package tests clear
	// it to get the slow path the fast path is checked against.
	fastPath bool

	// cur is the batch being delivered, while it has members left that
	// were claimed: they are the earliest events there are.
	cur *batch
	// inStep is the process whose continuation Run is stepping, while
	// it is: whom a panic out of the step names.
	inStep *Proc

	stats KernelStats

	// spawned holds every process in spawn order, a SpawnN world as one
	// block and a single as a block of one: what Run unwinds when it ends
	// abnormally.
	spawned [][]Proc
	// procs counts the processes spawned: what Run trims the idle list to.
	procs int

	waitPool [][]*Proc // recycled wait-list backing arrays (see waitQueue)
	// The batch records: slot 0 in the kernel itself — most kernels never
	// have two releases queued at once — the others by slot from 1; the
	// free ones chained from freeBatch.
	batch0    batch
	batches   []*batch
	freeBatch *batch
}

// KernelStats counts scheduler work for benchmarks and tuning. All
// counters are cumulative over the kernel's lifetime.
type KernelStats struct {
	// QueueEvents is the number of process resumptions delivered through
	// the event queue (one coroutine switch there and one back each).
	QueueEvents uint64
	// StepEvents is the number of wakes delivered through the event queue
	// to a continuation's next step (see Proc.Continue): the run loop
	// calls it, and no switch is made.
	StepEvents uint64
	// FastPathEvents is the number of timer sleeps that ran to completion
	// in-line: no earlier event existed, so the clock advanced without
	// touching the queue or handing control to the scheduler.
	FastPathEvents uint64
	// Stale is the number of tombstoned queue entries discarded at pop
	// (superseded wakes, kills overtaking sleeps, finished processes).
	Stale uint64
}

// Events reports the total number of process resumptions, however they
// were delivered.
func (s KernelStats) Events() uint64 { return s.QueueEvents + s.FastPathEvents + s.StepEvents }

// Stats returns a snapshot of the kernel's scheduler counters.
func (k *Kernel) Stats() KernelStats { return k.stats }

// NewKernel returns an empty kernel at virtual time zero.
func NewKernel() *Kernel {
	k := &Kernel{fastPath: true}
	k.batch0.entry = Proc{batch: true}
	k.freeBatch = &k.batch0
	return k
}

// Now reports the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// checkTime rejects NaN at every boundary where a caller-computed time
// enters the kernel: NaN compares false against everything, so it would
// slip past the "not in the past" clamps, break evLess's total order and
// end up as the clock value.
func checkTime(t Time) {
	if math.IsNaN(float64(t)) {
		panic("sim: NaN time")
	}
}

// Proc is a simulated process. Methods on Proc must only be called from
// inside the process's own goroutine (the function passed to Spawn).
type Proc struct {
	k *Kernel
	// name is Spawn's name, or SpawnN's prefix when index >= 0: a world's
	// per-rank names are formatted only when somebody asks.
	name       string
	pendingSeq uint64 // seq of the live queue entry; earlier ones are stale
	index      int32  // position in its SpawnN world; -1 for a single
	done       bool
	killed     bool
	batch      bool // a batch's queue entry, not a process (see batch)
	stepping   bool // its next pop runs its carrier's step (see Continue)

	c  *carrier    // runs the body; nil once the process has finished
	fn func(*Proc) // the body
}

// Name reports the name given at Spawn time; for a process of a SpawnN
// world, the prefix followed by its index, zero-padded to five digits.
func (p *Proc) Name() string {
	if p.index < 0 {
		return p.name
	}
	return fmt.Sprintf("%s%05d", p.name, p.index)
}

// Now reports the current virtual time.
func (p *Proc) Now() Time { return p.k.now }

// killSignal is the panic payload a killed or unwound process dies with;
// its coroutine recognizes it and ends cleanly instead of panicking.
type killSignal struct{}

// Spawn creates a process and schedules it to start at the current virtual
// time. The function fn runs on its carrier's goroutine, but only ever
// while the kernel has handed it control.
func (k *Kernel) Spawn(name string, fn func(p *Proc)) *Proc {
	return k.SpawnAt(k.now, name, fn)
}

// SpawnAt is like Spawn but delays the start of the process to time at,
// which must not be earlier than the current virtual time, nor NaN.
func (k *Kernel) SpawnAt(at Time, name string, fn func(p *Proc)) *Proc {
	checkTime(at)
	if at < k.now {
		panic("sim: SpawnAt in the past")
	}
	p := &k.block(1)[0]
	p.name, p.index = name, -1
	p.start(at, fn)
	return p
}

// SpawnN creates a world of n processes named prefix00000, prefix00001, …
// that start at the current virtual time in index order, and runs fn(i, p)
// in the i-th. It is Spawn n times from one block of processes, with
// nothing allocated per process once n carriers are idle.
func (k *Kernel) SpawnN(n int, prefix string, fn func(i int, p *Proc)) {
	run := func(p *Proc) { fn(int(p.index), p) }
	world := k.block(n)
	for i := range world {
		p := &world[i]
		p.name, p.index = prefix, int32(i)
		p.start(k.now, run)
	}
}

// block allocates n processes of this kernel, each with a carrier, and
// remembers them. The kernel's first block takes its queue's storage from
// the pool; every block makes room for its processes' first resumes in
// the lane they will go to, and for as many entries in the spill heap.
func (k *Kernel) block(n int) []Proc {
	if !k.q.held() {
		k.q.take()
	}
	k.q.reserve(k.now, n)
	ps := make([]Proc, n)
	carriers(ps)
	for i := range ps {
		ps[i].k = k
	}
	k.spawned = append(k.spawned, ps)
	k.procs += n
	return ps
}

// grow returns s with room for n more elements, at least doubling its
// capacity when it must move: slices.Grow, without the n-element
// temporary that one allocates under the race detector.
func grow[S ~[]E, E any](s S, n int) S {
	if cap(s)-len(s) >= n {
		return s
	}
	g := make(S, len(s), max(len(s)+n, 2*cap(s)))
	copy(g, s)
	return g
}

// start queues the process's first resume, at which its carrier runs fn
// — unless it was killed before it ever ran.
func (p *Proc) start(at Time, fn func(p *Proc)) {
	p.fn = fn
	p.c.p = p
	p.k.live++
	p.k.schedule(at, p)
}

// carrier is a coroutine (iter.Pull) that runs process bodies one after
// another: the run loop calls next to switch to the process it carries,
// the process calls yield to switch back. Between two processes it waits
// in yield holding nothing, on the idle list; stop ends it.
type carrier struct {
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
	p     *Proc   // the process it runs; nil once that has finished
	step  Stepper // p's continuation, while p is stepping
}

// idle holds the carriers whose processes finished, in any kernel, for
// any kernel's next spawn. Run leaves at most as many as its kernel
// spawned processes.
var idle struct {
	sync.Mutex
	cs []*carrier
}

// carriers gives each process of ps a carrier: idle ones first, then new
// ones for the shortfall, from one block.
func carriers(ps []Proc) {
	idle.Lock()
	n := min(len(ps), len(idle.cs))
	rest := len(idle.cs) - n
	for i, c := range idle.cs[rest:] {
		ps[i].c = c
	}
	clear(idle.cs[rest:])
	idle.cs = idle.cs[:rest]
	idle.Unlock()
	ps = ps[n:]
	if len(ps) == 0 {
		return
	}
	cs := make([]carrier, len(ps))
	for i := range ps {
		c := &cs[i]
		c.next, c.stop = iter.Pull(c.loop)
		ps[i].c = c
	}
}

// toIdle puts the carrier of a finished process on the idle list.
func (c *carrier) toIdle() {
	idle.Lock()
	idle.cs = append(idle.cs, c)
	idle.Unlock()
}

// trimIdle stops the carriers on the idle list beyond the first n: after
// a world of n processes no more than n wait, each pinning its
// goroutine's stack.
func trimIdle(n int) {
	idle.Lock()
	defer idle.Unlock()
	if len(idle.cs) <= n {
		return
	}
	for _, c := range idle.cs[n:] {
		c.end()
	}
	clear(idle.cs[n:])
	idle.cs = idle.cs[:n]
}

// loop is a carrier's coroutine: run the body of the process handed
// over, unless it was killed before it ever ran, report it finished by
// yielding with c.p nil, wait for the next, until stopped.
func (c *carrier) loop(yield func(struct{}) bool) {
	c.yield = yield
	for {
		if p := c.p; !p.killed {
			p.body()
		}
		c.p = nil
		if !yield(struct{}{}) {
			return
		}
	}
}

// end stops the carrier's coroutine and lets go of it: the rest of its
// block may still be carrying processes.
func (c *carrier) end() {
	defer func() { c.next, c.stop, c.yield = nil, nil, nil }()
	c.stop()
}

// body runs the process's body under leave.
func (p *Proc) body() {
	defer p.leave()
	p.fn(p)
}

// leave is deferred under every process's body. A kill (or Run's unwind)
// ends the body through killSignal, and that is a clean end; any other
// panic goes on, through next, into Run, and the carrier dies with it.
func (p *Proc) leave() {
	if r := recover(); r != nil {
		if _, ok := r.(killSignal); !ok {
			panic(fmt.Sprintf("sim: process %q panicked: %v", p.Name(), r))
		}
	}
}

// schedule queues a resumption of p at time at. The new entry supersedes
// any still-queued earlier entry for p (which becomes a tombstone) —
// unless p has been killed, in which case the kill's own entry stays
// authoritative so nothing can reschedule past a pending death.
func (k *Kernel) schedule(at Time, p *Proc) {
	k.seq++
	if !p.killed {
		p.pendingSeq = k.seq
	}
	k.q.push(event{at: at, seq: k.seq, p: p})
}

// popLive returns the next live resumption: the next member of the batch
// being delivered, or else of the earliest queue entry, discarding
// tombstones — entries for finished processes and entries superseded by
// a later schedule of the same process.
func (k *Kernel) popLive() (Time, *Proc, bool) {
	for {
		if b := k.cur; b != nil {
			at, seq, p := b.at, b.seq, b.next()
			if b.drained() {
				k.cur = nil
				k.recycle(b)
			}
			if !p.done && p.pendingSeq == seq {
				return at, p, true
			}
			k.stats.Stale++
			continue
		}
		if k.q.n == 0 {
			return 0, nil, false
		}
		e := k.q.pop()
		if e.p.batch {
			k.cur = k.batchAt(e.p.index)
			continue
		}
		if e.p.done || e.seq != e.p.pendingSeq {
			k.stats.Stale++
			continue
		}
		return e.at, e.p, true
	}
}

// release queues, as one entry at t >= now, the resumption of every
// process of ws in list order and then of rider, if any: what a WakeAt of
// each and then a SleepUntil(t) of the rider would queue, with the same
// (at, seq) order against every other entry — theirs would be consecutive
// seqs, nothing can come between — and the same fast-path decisions, for
// the batch being delivered holds back the fast path as their entries
// would. nil entries are skipped, and so is the rider if ws holds it. It
// reports whether it queued anything: not if no member was claimed, when
// there was nothing for the rider to ride. A pooled ws goes back to the
// pool once delivered; any other must keep its members until then.
func (k *Kernel) release(t Time, ws []*Proc, rider *Proc, pooled bool) bool {
	checkTime(t)
	if t < k.now {
		t = k.now
	}
	s, claimed := k.seq+1, false
	for _, q := range ws {
		if q != nil && q != rider && !q.done && !q.killed {
			q.pendingSeq, claimed = s, true
		}
	}
	if !claimed {
		if pooled {
			k.releaseWaiters(ws)
		}
		return false
	}
	k.seq = s
	if rider != nil {
		rider.pendingSeq = s
	}
	b := k.freeBatch
	if b != nil {
		k.freeBatch = b.free
	} else {
		b = &batch{entry: Proc{index: int32(len(k.batches) + 1), batch: true}}
		k.batches = append(k.batches, b)
	}
	b.at, b.seq, b.ws, b.rider, b.i, b.pooled = t, s, ws, rider, 0, pooled
	b.skip()
	k.q.push(event{at: t, seq: s, p: &b.entry})
	return true
}

// skip moves past the members the release did not claim.
func (b *batch) skip() {
	for ; b.i < len(b.ws); b.i++ {
		if q := b.ws[b.i]; q != nil && q != b.rider && q.pendingSeq >= b.seq {
			return
		}
	}
}

// next returns the next claimed member, or the rider after the last.
func (b *batch) next() *Proc {
	if b.i < len(b.ws) {
		p := b.ws[b.i]
		b.i++
		b.skip()
		return p
	}
	p := b.rider
	b.rider = nil
	return p
}

// drained reports whether nothing the release claimed is left.
func (b *batch) drained() bool { return b.i == len(b.ws) && b.rider == nil }

// batchAt returns the batch record in slot i.
func (k *Kernel) batchAt(i int32) *batch {
	if i == 0 {
		return &k.batch0
	}
	return k.batches[i-1]
}

// recycle returns a delivered batch's record, and its list if pooled, to
// the kernel's pools.
func (k *Kernel) recycle(b *batch) {
	if b.pooled {
		k.releaseWaiters(b.ws)
	}
	b.ws, b.rider = nil, nil
	b.free, k.freeBatch = k.freeBatch, b
}

// Run drives the simulation until no events remain and returns the final
// virtual time. It is the one scheduler loop: pop the earliest live event,
// advance the clock, switch to its process until that yields or ends. A
// process's panic leaves Run at once, as do a deadlock (processes parked
// with nothing queued) and a runtime.Goexit inside a process, which ends
// Run's goroutine as iter.Pull documents; on each of them Run first
// unwinds every process that has not finished, so a world that ends badly
// leaves no goroutine behind. Either way it leaves no more carriers idle
// than its kernel spawned processes; a clean end also gives its queue's
// storage back to the pool.
func (k *Kernel) Run() Time {
	clean := false
	defer func() {
		if clean {
			k.q.give()
			trimIdle(k.procs)
			return
		}
		// A panic out of a step is its process's, reported as leave
		// reports one out of a body.
		p := k.inStep
		var r any
		if p != nil {
			k.inStep, r = nil, recover()
		}
		k.unwind()
		trimIdle(k.procs)
		if r != nil {
			panic(fmt.Sprintf("sim: process %q panicked: %v", p.Name(), r))
		}
	}()
	for {
		at, p, ok := k.popLive()
		if !ok {
			break
		}
		if at < k.now {
			panic("sim: event queue went backwards")
		}
		k.now = at
		if p.stepping && !p.killed {
			k.stats.StepEvents++
			k.inStep = p
			queued := k.steps(p, p.c.step)
			k.inStep = nil
			if queued {
				continue
			}
		} else {
			k.stats.QueueEvents++
		}
		c := p.c
		c.next()
		if c.p == nil {
			p.done = true
			p.c, p.fn = nil, nil // the kernel keeps p, not what its body held
			k.live--
			c.toIdle()
		}
	}
	if k.live > 0 {
		panic(fmt.Sprintf("sim: deadlock: %d process(es) parked with no pending events at t=%v", k.live, k.now))
	}
	clean = true
	return k.now
}

// unwind stops every unfinished process in spawn order: its pending yield
// returns false, await unwinds it with killSignal, its deferred functions
// run and its carrier's goroutine ends; one that never started ends
// without running. Whatever took Run down stays the failure reported: a
// panic out of a deferred function of a process being unwound is dropped.
func (k *Kernel) unwind() {
	for _, ps := range k.spawned {
		for i := range ps {
			if p := &ps[i]; !p.done {
				p.done = true
				func() {
					defer func() { _ = recover() }()
					p.c.end()
				}()
			}
		}
	}
	k.live = 0
}

// Sleep suspends the process for d seconds of virtual time.
// Negative durations are treated as zero.
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		d = 0
	}
	p.SleepUntil(p.k.now + d)
}

// SleepUntil suspends the process until virtual time t. Times in the past
// are treated as "now" (the process still yields, giving other processes
// scheduled at the same instant a chance to run in seq order); NaN
// panics.
//
// Fast path: when no pending event is due at or before t (the queue keeps
// its earliest time, lanes and heap alike), nothing can run before this
// process resumes — only the running process can create new
// events, and kills or wakes can only be issued by running processes. The
// sleep therefore runs to completion in-line: the clock jumps to t and the
// process keeps going, with no queue traffic and no switch to the run loop.
// The strict `> t` comparison keeps replay bit-identical: an event at
// exactly t was scheduled earlier, so it holds a smaller seq and must run
// first, which only the slow path can arrange. The rest of a batch being
// delivered is such an event.
func (p *Proc) SleepUntil(t Time) {
	checkTime(t)
	k := p.k
	if t < k.now {
		t = k.now
	}
	if k.fastPath && !p.killed && k.cur == nil {
		if k.q.n == 0 || k.q.first > t {
			k.now = t
			k.stats.FastPathEvents++
			return
		}
	}
	k.schedule(t, p)
	p.await()
}

// Stepper is a continuation: what a process does at each of a series of
// wakes, run by the kernel in place of the process. Step does what the
// process would do at that instant — no sleep, park or wait of its own —
// and returns when it next wakes and whether another step follows there;
// if not, the process itself resumes at that wake.
type Stepper interface {
	Step(p *Proc) (next Time, more bool)
}

// Continue runs s's steps as the process's own, the first now, each
// followed by what SleepUntil(next) would do, fast path included, and
// returns at the wake after the last. While a step waits in the queue the
// process stays suspended, and Run calls the step at its pop, with no
// switch to the process and back: what the process would have done
// there, at the same instant and in the same (at, seq) order. A kill
// lands as in a sleep: the process unwinds at the kill's pop and the
// steps left never run. s must not be handed to another process before
// Continue returns.
func (p *Proc) Continue(s Stepper) {
	if p.k.steps(p, s) {
		p.awaitSteps()
	}
}

// awaitSteps is await for a process whose steps are queued: a kill ends
// them too.
func (p *Proc) awaitSteps() {
	if !p.c.yield(struct{}{}) || p.killed {
		p.hold(nil)
		panic(killSignal{})
	}
}

// hold makes s the step p's next pop runs, or, when s is nil, has that
// pop resume p.
func (p *Proc) hold(s Stepper) { p.stepping, p.c.step = s != nil, s }

// steps runs s for p from now: a step, then its sleep, in-line while the
// fast path takes them, until a sleep goes through the queue; it reports
// whether one did. p waits there for its next step, or for its own resume
// if s had no more.
func (k *Kernel) steps(p *Proc, s Stepper) bool {
	for {
		t, more := s.Step(p)
		checkTime(t)
		if t < k.now {
			t = k.now
		}
		if k.fastPath && !p.killed && k.cur == nil && (k.q.n == 0 || k.q.first > t) {
			k.now = t
			k.stats.FastPathEvents++
			if more {
				continue
			}
			p.hold(nil)
			return false
		}
		k.schedule(t, p)
		if !more {
			s = nil
		}
		p.hold(s)
		return true
	}
}

// await switches to the run loop until it hands the process control again,
// then unwinds it if a Kill arrived while it was suspended or Run is
// unwinding the world (yield reports false). Every suspension
// point funnels through here, so a kill takes effect at the victim's next
// scheduling boundary — the discrete-event analogue of "the node died
// while the program was blocked".
func (p *Proc) await() {
	if !p.c.yield(struct{}{}) || p.killed {
		panic(killSignal{})
	}
}

// Park suspends the process indefinitely; some other process must call
// Wake (or WakeAt) to resume it. Parking with no eventual waker is a
// deadlock, which Run reports.
func (p *Proc) Park() {
	p.await()
}

// Killed reports whether the process has been marked for termination.
func (p *Proc) Killed() bool { return p.killed }

// Kill marks process q for termination and schedules it to resume at the
// current virtual time: instead of continuing, q unwinds (running its
// deferred functions) and counts as finished, never as a panic. This is
// the fault-injection primitive — a victim blocked in a sleep, a resource
// wait, or a park dies at that point in virtual time. Killing a finished
// or already-killed process is a no-op. The kill supersedes any pending
// scheduled resumption of q (the stale entry is tombstoned), and a Wake
// of a killed process is likewise harmless.
func (k *Kernel) Kill(q *Proc) {
	if q == nil || q.done || q.killed {
		return
	}
	// Order matters: schedule first so the kill takes q's pendingSeq slot,
	// then set killed so no later schedule can take it back.
	k.schedule(k.now, q)
	q.killed = true
}

// Wake schedules parked process q to resume at the current virtual time.
// It must be called from within a running process or before Run.
func (k *Kernel) Wake(q *Proc) { k.WakeAt(k.now, q) }

// WakeAt schedules parked process q to resume at time t >= now. Re-waking
// a process whose wake is still pending moves the resumption to t — the
// previous entry is tombstoned, never delivered — so a second wake cannot
// make the process resume twice. Waking a finished or killed process is a
// no-op; a NaN t panics.
func (k *Kernel) WakeAt(t Time, q *Proc) {
	checkTime(t)
	if t < k.now {
		t = k.now
	}
	if q == nil || q.done || q.killed {
		return
	}
	k.schedule(t, q)
}

// WakeAllAndSleepUntil wakes every process of ws at time t >= now, in list
// order, and then suspends the calling process until t, behind them: what
// a WakeAt of each and a SleepUntil(t) would do, from one queue entry. It
// is the release of a rendezvous by the last process to arrive. ws may
// hold the caller, which is then skipped there, and nil entries; a
// finished or killed process in it is not woken. ws must keep its members
// until they have all resumed.
func (p *Proc) WakeAllAndSleepUntil(t Time, ws []*Proc) {
	rider := p
	if p.killed {
		rider = nil // dies at its kill's entry, as SleepUntil would have it
	}
	if p.k.release(t, ws, rider, false) && rider != nil {
		p.await()
		return
	}
	p.SleepUntil(t)
}

// grabWaiters hands out a recycled wait-list backing array, or a fresh
// one when the pool is empty.
func (k *Kernel) grabWaiters() []*Proc {
	if n := len(k.waitPool); n > 0 {
		ws := k.waitPool[n-1]
		k.waitPool = k.waitPool[:n-1]
		return ws
	}
	return make([]*Proc, 0, 4)
}

// releaseWaiters returns a drained wait list to the pool. The caller must
// have forgotten its own reference: a recycled array may be handed to any
// other primitive on this kernel.
func (k *Kernel) releaseWaiters(ws []*Proc) {
	for i := range ws {
		ws[i] = nil
	}
	k.waitPool = append(k.waitPool, ws[:0])
}
