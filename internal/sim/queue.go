package sim

import (
	"math"
	"sync"
)

// The kernel's event queue pops in (at, seq) order — the total order every
// replay guarantee in the repository rests on — from a few sorted lanes
// beside a binary min-heap. A lane is a FIFO of entries appended in order:
// a push goes into the first lane whose last entry is not later than it,
// and only one that no lane takes is sifted into the heap. Most pushes
// keep time order (a sleep past the one before, the next booking of a FIFO
// server), so most cost a compare per lane instead of a sift. A pop takes
// the least of the lane heads and the heap's top, so which lane an entry
// went to changes what the queue costs, never what it returns. Every push
// carries the largest seq yet, which is why a lane need only compare
// times. Entries are stored by value: the lanes in fixed-size chunks drawn
// from the queue's free list, the heap in one array. A kernel takes both
// from a process-wide pool and gives them back when its Run ends, so
// scheduling allocates nothing once a world of its size has run. Stale
// entries stay queued until they pop; the kernel filters them there.

// nLanes is the number of sorted lanes, chosen by measurement: with 4,
// fig3's and fig6's pushes all land in lanes and fig2's 78.5 %; 8 take
// 84.7 % of fig2's, yet made fig2 and fig3 slower, for every pop compares
// every head.
const nLanes = 4

// chunkLen is the number of entries a lane's chunk holds.
const chunkLen = 128

// chunk is a run of a lane's entries, linked to the next.
type chunk struct {
	ev   [chunkLen]event
	next *chunk
}

// lane is a FIFO of entries in (at, seq) order. head and tail count its
// pops and pushes since its kernel took the queue; the entry counted i is
// in slot i%chunkLen of its chunk, hc holding the head's and tc the
// tail's. A lane keeps its last chunk when it empties.
type lane struct {
	last       Time // at of the last entry pushed
	head, tail uint
	hc, tc     *chunk
}

// key is the (at, seq) of a lane's head: what a pop compares, kept beside
// the other lanes' so that a pop reads one cache line to find the least.
// An empty lane's is noKey, later than every entry.
type key struct {
	at  Time
	seq uint64
}

var noKey = key{Time(math.Inf(1)), math.MaxUint64}

// before is evLess for keys.
func (a key) before(b key) bool { return a.at < b.at || a.at == b.at && a.seq < b.seq }

// queue is a kernel's event queue.
type queue struct {
	keys   [nLanes]key // the lanes' heads
	lanes  [nLanes]lane
	heap   []event // the entries no lane took: a min-heap, see heapPush/heapPop
	free   *chunk  // chunks no lane holds
	chunks int     // chunks the queue owns, held or free
	n      int     // entries queued
	first  Time    // the earliest at queued, while n > 0
	peak   int     // the heap's longest since the kernel took the queue
}

// spare holds the chunks and heaps of kernels whose Run has ended, for the
// next kernel's first world.
var spare struct {
	sync.Mutex
	qs []queue
}

// take gives q storage from the pool, if the pool has any: a queue that
// held a world before holds one of its size without growing.
func (q *queue) take() {
	spare.Lock()
	if n := len(spare.qs); n > 0 {
		*q, spare.qs[n-1] = spare.qs[n-1], queue{}
		spare.qs = spare.qs[:n-1]
	}
	spare.Unlock()
	for i := range q.lanes {
		q.keys[i], q.lanes[i].head, q.lanes[i].tail = noKey, 0, 0
	}
	q.peak = 0
}

// give returns an empty queue's storage to the pool. Its counts stay for
// the kernel to read.
func (q *queue) give() {
	if !q.held() {
		return
	}
	spare.Lock()
	spare.qs = append(spare.qs, *q)
	spare.Unlock()
	for i := range q.lanes {
		q.lanes[i].hc, q.lanes[i].tc = nil, nil
	}
	q.heap, q.free, q.chunks = nil, nil, 0
}

// held reports whether q has taken its storage.
func (q *queue) held() bool { return q.chunks > 0 }

// reserve makes room for n more entries at time at, in the lane that a
// push of them would go to, and for as many in the heap: a phase of
// out-of-order pushes can spill nearly a whole world there.
func (q *queue) reserve(at Time, n int) {
	q.heap = grow(q.heap, n)
	for i := range q.lanes {
		if l := &q.lanes[i]; l.takes(at) {
			room := 0
			if l.tc != nil && (l.head == l.tail || l.tail%chunkLen != 0) {
				room = chunkLen - int(l.tail%chunkLen)
			}
			q.stock((n - room + chunkLen - 1) / chunkLen)
			return
		}
	}
}

// stock makes sure the free list holds n chunks, allocating what it lacks
// as one block.
func (q *queue) stock(n int) {
	for c := q.free; c != nil && n > 0; c = c.next {
		n--
	}
	if n <= 0 {
		return
	}
	cs := make([]chunk, n)
	for i := range cs {
		cs[i].next, q.free = q.free, &cs[i]
	}
	q.chunks += n
}

// chunk takes a chunk off the free list, which grows by half the queue's
// chunks when it is empty.
func (q *queue) chunk() *chunk {
	if q.free == nil {
		q.stock(max(1, q.chunks/2))
	}
	c := q.free
	q.free, c.next = c.next, nil
	return c
}

// push queues e, whose seq must be the largest queued.
func (q *queue) push(e event) {
	if q.n == 0 || e.at < q.first {
		q.first = e.at
	}
	q.n++
	for i := range q.lanes {
		if l := &q.lanes[i]; l.takes(e.at) {
			q.append(i, e)
			return
		}
	}
	q.heap = heapPush(q.heap, e)
	q.peak = max(q.peak, len(q.heap))
}

// append adds e at the tail of lane i.
func (q *queue) append(i int, e event) {
	l := &q.lanes[i]
	switch {
	case l.head == l.tail:
		q.keys[i] = key{e.at, e.seq}
		if l.tc == nil {
			l.hc = q.chunk()
			l.tc = l.hc
		}
	case l.tail%chunkLen == 0:
		c := q.chunk()
		l.tc.next, l.tc = c, c
	}
	l.tc.ev[l.tail%chunkLen] = e
	l.tail++
	l.last = e.at
}

// pop removes and returns the earliest entry; q must not be empty. Of
// two entries at one time, the one in the lower lane, or in a lane rather
// than the heap, was pushed first — a lane that refused an entry keeps a
// later tail until that entry pops — so seq never decides between
// sources; whole keys are compared all the same, which also keeps an
// empty lane's noKey behind an entry at +Inf.
func (q *queue) pop() event {
	best := 0
	for i := 1; i < nLanes; i++ {
		if q.keys[i].before(q.keys[best]) {
			best = i
		}
	}
	var e event
	if len(q.heap) > 0 && (key{q.heap[0].at, q.heap[0].seq}).before(q.keys[best]) {
		e, q.heap = heapPop(q.heap)
	} else {
		l := &q.lanes[best]
		slot := &l.hc.ev[l.head%chunkLen]
		e, *slot = *slot, event{} // drop the *Proc reference for the collector
		l.head++
		if l.head == l.tail {
			q.keys[best] = noKey
		} else {
			if l.head%chunkLen == 0 {
				c := l.hc
				l.hc, c.next, q.free = c.next, q.free, c
			}
			h := &l.hc.ev[l.head%chunkLen]
			q.keys[best] = key{h.at, h.seq}
		}
	}
	q.n--
	first := q.keys[0].at
	for i := 1; i < nLanes; i++ {
		first = min(first, q.keys[i].at)
	}
	if len(q.heap) > 0 {
		first = min(first, q.heap[0].at)
	}
	q.first = first
	return e
}

// takes reports whether a push at time at belongs in l: l is empty or its
// last entry is not later.
func (l *lane) takes(at Time) bool { return l.head == l.tail || l.last <= at }

// evLess is the kernel's total event order: time, then schedule sequence.
func evLess(a, b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// heapPush inserts e into the min-heap h and returns the grown slice.
func heapPush(h []event, e event) []event {
	h = append(h, e)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !evLess(e, h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = e
	return h
}

// heapPop removes the minimum of the min-heap h, returning it and the
// shrunk slice (which reuses h's backing array). It moves the hole the
// minimum leaves down to a leaf along the lesser children, then sifts the
// last entry up from there: one compare a level on the way down, and the
// last entry, a leaf, seldom climbs far.
func heapPop(h []event) (event, []event) {
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{} // drop the *Proc reference for the collector
	h = h[:n]
	if n == 0 {
		return top, h
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && evLess(h[c+1], h[c]) {
			c++
		}
		h[i] = h[c]
		i = c
	}
	for i > 0 {
		parent := (i - 1) / 2
		if !evLess(last, h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = last
	return top, h
}
