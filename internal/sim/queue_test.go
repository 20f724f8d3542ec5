package sim

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// TestHeapOrderProperty drives the event heap with seeded random
// interleavings of pushes and pops — exact-time ties, entries at the last
// time there is, out-of-order pushes before the first pop and, after it,
// the kernel's contract of never pushing earlier than the last pop — and
// checks every pop against a sort.Slice (at, seq) oracle. Every replay
// guarantee in the repository reduces to this order.
func TestHeapOrderProperty(t *testing.T) {
	const (
		seeds      = 100
		opsPerSeed = 10000
	)
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var (
			h      []event
			oracle []event // sorted lazily: dirty after a push
			dirty  bool
			seq    uint64
			now    Time
			popped bool
		)
		push := func() {
			at := now
			switch rng.Intn(10) {
			case 0: // exact tie with the last popped time
			case 1: // far future
				at += Time(rng.Float64()) * 1e12
			case 2:
				at = math.MaxFloat64
			case 3: // exact tie with a random pending entry
				if len(oracle) > 0 {
					at = oracle[rng.Intn(len(oracle))].at
				}
			default: // clustered near now
				at += Time(rng.Float64()) * 10
			}
			if !popped && rng.Intn(2) == 0 {
				// Pre-run, any order is legal (SpawnAt before Spawn).
				at = Time(rng.Float64()) * 10
			}
			seq++
			e := event{at: at, seq: seq}
			h = evPush(h, e)
			oracle = append(oracle, e)
			dirty = true
		}
		pop := func() {
			if dirty {
				sort.Slice(oracle, func(i, j int) bool { return evLess(oracle[i], oracle[j]) })
				dirty = false
			}
			want := oracle[0]
			oracle = oracle[1:]
			var got event
			got, h = evPop(h)
			if got.at != want.at || got.seq != want.seq {
				t.Fatalf("seed %d: pop order diverged: heap (%v,%d) oracle (%v,%d)",
					seed, got.at, got.seq, want.at, want.seq)
			}
			now, popped = got.at, true
		}
		// Alternating bursts keep the heap between empty and a few
		// hundred entries deep and let the oracle sort once per burst.
		for ops := 0; ops < opsPerSeed; {
			for n := rng.Intn(60); n > 0; n-- {
				push()
				ops++
			}
			for n := rng.Intn(55); n > 0 && len(oracle) > 0; n-- {
				pop()
				ops++
			}
			if len(h) != len(oracle) {
				t.Fatalf("seed %d: len mismatch: heap %d oracle %d", seed, len(h), len(oracle))
			}
		}
		for len(oracle) > 0 {
			pop()
		}
		if len(h) != 0 {
			t.Fatalf("seed %d: heap holds %d entries after the oracle drained", seed, len(h))
		}
	}
}
