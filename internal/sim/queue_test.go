package sim

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"unsafe"
)

// evPush and evPop are a plain binary min-heap, swapping entries on the
// way up and down: the reference every pop of the kernel's queue is
// checked against.

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
	h[n] = event{}
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

// TestHeapOrderProperty drives the reference heap with seeded random
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

// TestLanedQueueMatchesHeap drives the kernel's queue — sorted lanes and
// a spill heap — and the plain heap as its reference with the same
// pushes and pops, 100 seeds, and compares every pop and the earliest
// time the fast path reads. Each seed mixes out-of-order pushes before
// the first pop; random bursts with exact ties, far-future entries and
// the last time there is; runs of integer times, which tie heads across
// lanes and the heap; and staircases, in-order runs each starting before
// the last one's tail, that fill every lane, spill to the heap and cross
// chunks. A queue that drains starts over at time zero, as the next
// kernel to take it from the pool does. The test fails unless each of
// those shapes occurred.
func TestLanedQueueMatchesHeap(t *testing.T) {
	const (
		seeds      = 100
		opsPerSeed = 6000
	)
	var seen struct{ laneTie, heapTie, maxTime, allLanes, bigLane, drained int }
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var (
			q   queue
			ref []event
			seq uint64
			now Time
		)
		q.take()
		push := func(at Time) {
			seq++
			e := event{at: at, seq: seq}
			q.push(e)
			ref = evPush(ref, e)
			if at == math.MaxFloat64 {
				seen.maxTime++
			}
		}
		pop := func() {
			// Which sources tie at the head: two lanes, or a lane and the heap.
			var heads []Time
			for i := range q.lanes {
				if l := &q.lanes[i]; l.head != l.tail {
					heads = append(heads, q.keys[i].at)
					if l.tail-l.head > chunkLen {
						seen.bigLane++
					}
				}
			}
			if len(heads) == nLanes && len(q.heap) > 0 {
				seen.allLanes++
			}
			for i := range heads {
				for j := i + 1; j < len(heads); j++ {
					if heads[i] == heads[j] {
						seen.laneTie++
					}
				}
				if len(q.heap) > 0 && heads[i] == q.heap[0].at {
					seen.heapTie++
				}
			}
			got := q.pop()
			var want event
			want, ref = evPop(ref)
			if got != want {
				t.Fatalf("seed %d: pop diverged: lanes (%v,%d) heap (%v,%d)", seed, got.at, got.seq, want.at, want.seq)
			}
			now = got.at
		}
		check := func() {
			if q.n != len(ref) {
				t.Fatalf("seed %d: %d entries queued, the reference holds %d", seed, q.n, len(ref))
			}
			if q.n > 0 && q.first != ref[0].at {
				t.Fatalf("seed %d: earliest time %v, the reference's is %v", seed, q.first, ref[0].at)
			}
		}
		// Pre-run, any order is legal (SpawnAt before Spawn).
		for n := rng.Intn(100); n > 0; n-- {
			push(Time(rng.Float64()) * 10)
		}
		check()
		// After the first pop the kernel never pushes earlier than now.
		for ops := 0; ops < opsPerSeed; {
			switch rng.Intn(4) {
			case 0: // random burst
				for n := rng.Intn(60); n > 0; n-- {
					at := now
					switch rng.Intn(8) {
					case 0: // exact tie with now
					case 1:
						at += Time(rng.Float64()) * 1e12
					case 2:
						at = math.MaxFloat64
					case 3: // exact tie with a pending entry
						if len(ref) > 0 {
							at = ref[rng.Intn(len(ref))].at
						}
					default:
						at += Time(rng.Float64()) * 10
					}
					push(at)
					ops++
				}
			case 1: // integer times: ties within and across lanes and the heap
				for n := rng.Intn(40); n > 0; n-- {
					push(Time(math.Floor(float64(now))) + Time(rng.Intn(4)))
					ops++
				}
			case 2: // a staircase of in-order runs, one past the lanes
				for j := 0; j <= nLanes; j++ {
					at := now + Time(nLanes-j)*1000 + Time(rng.Intn(2))
					for n := 1 + rng.Intn(300); n > 0; n-- {
						push(at)
						at += Time(rng.Intn(3))
						ops++
					}
				}
			}
			check()
			for n := rng.Intn(250); n > 0 && len(ref) > 0; n-- {
				pop()
				check()
				ops++
			}
			if len(ref) == 0 {
				now = 0 // the next kernel to take the queue from the pool
				seen.drained++
			}
		}
		for len(ref) > 0 {
			pop()
			check()
		}
		if q.n != 0 || len(q.heap) != 0 {
			t.Fatalf("seed %d: %d entries queued, %d in the heap, after the reference drained", seed, q.n, len(q.heap))
		}
	}
	t.Logf("pops at a tie of two lane heads %d, of a lane head and the heap's top %d; pushes at the last time %d; pops with every lane and the heap holding %d, with a lane over a chunk %d; queue drained and reused %d times",
		seen.laneTie, seen.heapTie, seen.maxTime, seen.allLanes, seen.bigLane, seen.drained)
	if seen.laneTie == 0 || seen.heapTie == 0 || seen.maxTime == 0 || seen.allLanes == 0 || seen.bigLane == 0 || seen.drained == 0 {
		t.Errorf("a shape the test is built to cover never occurred: %+v", seen)
	}
}

// originalWriterWorld runs a world shaped like BIT1's original writer: n
// processes, each, rounds times, sleeping a constant overhead and then
// until a FIFO server completes its write. The overhead is two writes'
// service time, so it waits behind other processes' completions: the
// pushes are two streams in time order, interleaved. It returns the
// kernel.
func originalWriterWorld(n, rounds int) *Kernel {
	k := NewKernel()
	s := NewServer(k, 1e9, 0)
	k.SpawnN(n, "rank", func(i int, p *Proc) {
		for range rounds {
			p.Sleep(2 * s.ServiceTime(1<<20))
			p.SleepUntil(s.Reserve(1 << 20))
		}
	})
	k.Run()
	return k
}

// TestLaneShareRatchet: in the original writer's shape the lanes take at
// least 95 % of the pushes and the spill heap holds at most 64 entries,
// and a second world of the same size runs on the first one's queue
// storage, allocating none.
func TestLaneShareRatchet(t *testing.T) {
	const n, rounds = 1024, 16
	k := originalWriterWorld(n, rounds)
	inLanes := uint(0)
	for i := range k.q.lanes {
		inLanes += k.q.lanes[i].tail
	}
	share := float64(inLanes) / float64(k.seq)
	t.Logf("%d pushes, %.2f %% of them in lanes; the spill heap peaked at %d entries", k.seq, 100*share, k.q.peak)
	if share < 0.95 {
		t.Errorf("%.2f %% of the pushes landed in lanes, want ≥ 95 %%", 100*share)
	}
	if k.q.peak > 64 {
		t.Errorf("the spill heap peaked at %d entries, want ≤ 64", k.q.peak)
	}

	// The storage k gave back is on top of the pool; the next world takes
	// it, and gives it back as it was if it grew nothing.
	top := func() (*event, int, int) {
		spare.Lock()
		defer spare.Unlock()
		if len(spare.qs) == 0 {
			t.Fatal("a world's Run gave no queue storage back to the pool")
		}
		q := &spare.qs[len(spare.qs)-1]
		return unsafe.SliceData(q.heap), cap(q.heap), q.chunks
	}
	heap, heapCap, chunks := top()
	originalWriterWorld(n, rounds)
	heap2, heapCap2, chunks2 := top()
	t.Logf("queue storage: %d chunks of %d entries and a heap of %d", chunks, chunkLen, heapCap)
	if heap2 != heap || heapCap2 != heapCap || chunks2 != chunks {
		t.Errorf("a second world of %d grew its queue: %d chunks and a heap of %d, the first left %d and %d",
			n, chunks2, heapCap2, chunks, heapCap)
	}
}
