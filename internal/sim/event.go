package sim

// waitQueue is the pooled wait list behind every blocking primitive
// (Completion, Gauge). Backing arrays come from the kernel's free pool; a
// broadcast hands its array to the kernel as one batch entry, and the
// kernel returns it to the pool once the batch is delivered, so
// steady-state park/wake cycles allocate nothing. A woken process
// re-parking into the same primitive gets a fresh array, never the one
// being delivered, and a member superseded since the broadcast is
// tombstoned by seq, so a recycled array can never resurrect or
// double-wake a process.
type waitQueue struct {
	k  *Kernel
	ws []*Proc
}

// park appends p to the wait list and parks it.
func (w *waitQueue) park(p *Proc) {
	if w.ws == nil {
		w.ws = w.k.grabWaiters()
	}
	w.ws = append(w.ws, p)
	p.Park()
}

// wakeAllAt schedules every current waiter to resume at time t, in wait
// order, as one queue entry.
func (w *waitQueue) wakeAllAt(t Time) {
	ws := w.ws
	if ws == nil {
		return
	}
	w.ws = nil
	w.k.release(t, ws, nil, true)
}

// Completion is a one-shot broadcast event: processes Wait until some
// other process calls Complete, after which every current and future Wait
// returns immediately. It is the handshake primitive for background
// activities (e.g. a burst-buffer drain) whose consumers need to observe
// "that batch of work is finished".
type Completion struct {
	done bool
	w    waitQueue
}

// NewCompletion returns an incomplete completion bound to kernel k.
func NewCompletion(k *Kernel) *Completion { return &Completion{w: waitQueue{k: k}} }

// Complete marks the event done and wakes every waiter, in wait order.
// Completing twice is a no-op.
func (c *Completion) Complete() { c.CompleteAt(c.w.k.now) }

// CompleteAt marks the event done now but resumes the waiters at time
// t >= now — a timed broadcast for primitives (collectives, timed
// handshakes) that decide completion early but release at a computed
// instant. Completing twice is a no-op; a NaN t panics.
func (c *Completion) CompleteAt(t Time) {
	checkTime(t)
	if c.done {
		return
	}
	c.done = true
	c.w.wakeAllAt(t)
}

// Wait parks the calling process until Complete; it returns immediately if
// the event is already done.
func (c *Completion) Wait(p *Proc) {
	if c.done {
		return
	}
	c.w.park(p)
}

// Gauge is a non-negative counter processes can wait to reach zero — the
// bookkeeping primitive for background write-back tracking: producers Add
// pending work, the background worker subtracts as it completes, and
// barrier-style consumers Wait.
type Gauge struct {
	v int64
	w waitQueue
}

// NewGauge returns a zero gauge bound to kernel k.
func NewGauge(k *Kernel) *Gauge { return &Gauge{w: waitQueue{k: k}} }

// Value reports the current gauge value.
func (g *Gauge) Value() int64 { return g.v }

// Add changes the gauge by d. Dropping to zero wakes all waiters;
// going negative panics (it means release without matching acquire).
func (g *Gauge) Add(d int64) {
	g.v += d
	if g.v < 0 {
		panic("sim: gauge went negative")
	}
	if g.v == 0 {
		g.w.wakeAllAt(g.w.k.now)
	}
}

// Wait parks the calling process until the gauge value is zero; it
// returns immediately when the gauge is already zero. A waiter woken by a
// zero crossing re-checks, so transient zero→nonzero races while several
// waiters resume still leave every returned waiter having observed zero.
func (g *Gauge) Wait(p *Proc) {
	for g.v != 0 {
		g.w.park(p)
	}
}
