package sim

// The kernel's event queue is a binary min-heap over a typed []event
// slice, ordered by (at, seq) — the total order every replay guarantee
// in the repository rests on. Events are stored by value in a backing
// array that pops shrink and pushes regrow in place, so steady-state
// scheduling allocates nothing. Stale entries stay in the heap until
// they pop; the kernel filters them there.

// evLess is the kernel's total event order: time, then schedule sequence.
func evLess(a, b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// evPush inserts e into the min-heap h and returns the grown slice.
func evPush(h []event, e event) []event {
	h = append(h, e)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !evLess(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	return h
}

// evPop removes the minimum of the min-heap h, returning it and the
// shrunk slice (which reuses h's backing array).
func evPop(h []event) (event, []event) {
	min := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = event{} // drop the *Proc reference for the collector
	h = h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		least := i
		if l < n && evLess(h[l], h[least]) {
			least = l
		}
		if r < n && evLess(h[r], h[least]) {
			least = r
		}
		if least == i {
			break
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
	return min, h
}
