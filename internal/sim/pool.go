package sim

import (
	"runtime"
	"slices"
	"sync"
)

// Pool is a free list of chunks shared by every owner of one kind in the
// process: a run's slabs, records and rank blocks go back to their pool
// when it ends, and the next run's take them instead of allocating. It
// keeps at most as many chunks as its last Give brought, dropping the
// oldest, so that storage a large run left does not outlive the smaller
// ones after it (the kernel trims its idle carriers to a world's size the
// same way). It drops them all once a whole garbage collection cycle has
// passed with no Take or Give, so that what one kind of run left does not
// stay live through other work. Safe for concurrent use; the zero Pool is
// empty.
type Pool[T any] struct {
	mu     sync.Mutex
	chunks [][]T
	used   bool // a Take or Give since the last collection
	listed bool // in pools.list
}

// Take returns a pooled chunk of at least n values, whole — the
// smallest, and the newest of those — or a new one of n values when the
// pool holds none that large; a smaller chunk stays pooled. Either holds
// only zero values.
func (p *Pool[T]) Take(n int) []T {
	p.mu.Lock()
	p.used = true
	best := -1
	for i := len(p.chunks) - 1; i >= 0; i-- {
		if k := len(p.chunks[i]); k >= n && (best < 0 || k < len(p.chunks[best])) {
			best = i
			if k == n {
				break
			}
		}
	}
	if best < 0 {
		p.mu.Unlock()
		return make([]T, n)
	}
	c := p.chunks[best]
	p.chunks = slices.Delete(p.chunks, best, best+1)
	p.mu.Unlock()
	return c
}

// Give clears the chunks and adds them to the pool, which then drops its
// oldest beyond len(chunks). The chunks are the pool's from then on.
func (p *Pool[T]) Give(chunks [][]T) {
	for _, c := range chunks {
		clear(c)
	}
	p.mu.Lock()
	list := !p.listed
	p.listed, p.used = true, true
	p.chunks = append(p.chunks, chunks...)
	if drop := len(p.chunks) - len(chunks); drop > 0 {
		n := copy(p.chunks, p.chunks[drop:])
		clear(p.chunks[n:])
		p.chunks = p.chunks[:n]
	}
	p.mu.Unlock()
	if list {
		pools.mu.Lock()
		pools.list = append(pools.list, p)
		pools.mu.Unlock()
	}
}

// age drops the pool's chunks if none was taken or given since the last
// collection.
func (p *Pool[T]) age() {
	p.mu.Lock()
	if !p.used {
		clear(p.chunks)
		p.chunks = p.chunks[:0]
	}
	p.used = false
	p.mu.Unlock()
}

// pools lists every pool that has been given chunks, for agePools.
var pools struct {
	mu   sync.Mutex
	list []interface{ age() }
}

// The sentinel, a new *byte, is unreachable from the start: its
// finalizer runs after every garbage collection, which finds it so, and
// re-arms itself. It holds a pointer: a pointer-free block that small is
// a tiny one, which may never be finalized.
func init() { runtime.SetFinalizer(new(*byte), agePools) }

// agePools ages every listed pool, after a collection.
func agePools(sentinel **byte) {
	pools.mu.Lock()
	for _, p := range pools.list {
		p.age()
	}
	pools.mu.Unlock()
	runtime.SetFinalizer(sentinel, agePools)
}
