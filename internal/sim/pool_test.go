package sim

import (
	"runtime"
	"testing"
	"time"
)

// TestPoolTakesOnlyWhatFits: Take hands out a pooled chunk only when it
// holds at least the values asked for, whole, the smallest of those
// first; a smaller chunk stays pooled.
func TestPoolTakesOnlyWhatFits(t *testing.T) {
	var p Pool[int]
	sizes := map[*int]int{} // a pooled chunk, by its first value → its length
	chunk := func(n int) []int {
		c := make([]int, n)
		sizes[&c[0]] = n
		return c
	}
	p.Give([][]int{chunk(4), chunk(8), chunk(16)})
	for _, want := range []struct{ n, from int }{
		{6, 8},  // the smallest that fits, not the newest
		{6, 16}, // then the next
		{6, 0},  // then none: the 4 stays, and a new chunk of 6 comes out
		{3, 4},  // the 4 goes to a request it fits
		{1, 0},  // and the pool is empty
	} {
		c := p.Take(want.n)
		length := want.from
		if length == 0 {
			length = want.n
		}
		if got := sizes[&c[0]]; got != want.from || len(c) != length {
			t.Fatalf("Take(%d) returned %d values from a pooled chunk of %d, want the pooled chunk of %d whole (0: a new chunk of %d)", want.n, len(c), got, want.from, want.n)
		}
	}
}

// TestPoolDropsWhatSitsIdle: a pool keeps its chunks through a collection
// after a Give, and drops them once a whole cycle has passed with no Take
// or Give.
func TestPoolDropsWhatSitsIdle(t *testing.T) {
	var p Pool[int]
	state := func() (used bool, chunks int) {
		p.mu.Lock()
		defer p.mu.Unlock()
		return p.used, len(p.chunks)
	}
	p.Give([][]int{make([]int, 4)})
	runtime.GC()
	deadline := time.Now().Add(10 * time.Second)
	for used, _ := state(); used; used, _ = state() {
		if time.Now().After(deadline) {
			t.Fatal("no collection aged the pool")
		}
		time.Sleep(time.Millisecond)
	}
	if _, n := state(); n != 1 {
		t.Fatalf("one collection after a Give, the pool holds %d chunks, want 1", n)
	}
	for _, n := state(); n > 0; _, n = state() {
		if time.Now().After(deadline) {
			t.Fatal("the pool kept its chunks through idle collections")
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}
