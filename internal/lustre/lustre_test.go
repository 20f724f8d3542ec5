package lustre

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"picmcio/internal/pfs"
	"picmcio/internal/sim"
)

func testFS(p Params) (*sim.Kernel, *FS) {
	k := sim.NewKernel()
	return k, New(k, p)
}

// stripeSplit apportions [off, off+n) across the layout's stripe objects
// by walking the range stripe by stripe, returning bytes per object index.
// It was the shipped data path until FS.reserve learned the closed form; it
// stays here as the oracle reserve is checked against.
func stripeSplit(l *Layout, off, n int64) []int64 {
	per := make([]int64, l.StripeCount)
	if n <= 0 {
		return per
	}
	ss := l.StripeSize
	for n > 0 {
		stripe := off / ss
		within := off % ss
		chunk := ss - within
		if chunk > n {
			chunk = n
		}
		per[int(stripe)%l.StripeCount] += chunk
		off += chunk
		n -= chunk
	}
	return per
}

// ostLoad is what one OST has been asked to do.
type ostLoad struct{ ops, bytes uint64 }

func ostLoads(fs *FS) []ostLoad {
	out := make([]ostLoad, fs.Params().NumOSTs)
	for i := range out {
		out[i].ops, out[i].bytes, _ = fs.OSTStats(i)
	}
	return out
}

// TestReserveMatchesStripeSplit books random byte ranges of randomly
// striped files and checks every OST was sent what the stripe-walking
// oracle sends it: one reservation per touched object, for that object's
// bytes. Each OST backs at most one object of a file, so per-OST counts
// pin the whole (object, bytes) sequence.
func TestReserveMatchesStripeSplit(t *testing.T) {
	seed := time.Now().UnixNano()
	rng := rand.New(rand.NewSource(seed))
	k, fs := testFS(DefaultParams())
	k.Spawn("r", func(p *sim.Proc) {
		for trial := 0; trial < 300; trial++ {
			count := 1 + rng.Intn(48)
			ss := int64(1+rng.Intn(64)) << 16 // 64 KiB … 4 MiB
			dir := fmt.Sprintf("/d/%d", trial)
			if err := fs.SetStripe(dir, count, ss); err != nil {
				t.Error(err)
				return
			}
			path := dir + "/f"
			f, err := fs.Create(p, nil, path)
			if err != nil {
				t.Error(err)
				return
			}
			f.Close(p, nil)
			n, _ := fs.Namespace().Lookup(path)
			l := &n.Aux.(*placement).Layout
			for i := 0; i < 20; i++ {
				off := rng.Int63n(4 * ss * int64(count))
				var length int64
				switch rng.Intn(5) {
				case 0:
					length = -rng.Int63n(ss)
				case 1:
					length = 0
				case 2:
					length = 1 + rng.Int63n(ss)
				default:
					length = 1 + rng.Int63n(3*ss*int64(count))
				}
				want := ostLoads(fs)
				for obj, bytes := range stripeSplit(l, off, length) {
					if bytes != 0 {
						want[l.Objects[obj].OBDIdx].ops++
						want[l.Objects[obj].OBDIdx].bytes += uint64(bytes)
					}
				}
				fs.reserve(n, off, length, 0)
				if got := ostLoads(fs); !reflect.DeepEqual(got, want) {
					t.Errorf("seed %d: count %d size %d off %d length %d:\n got %v\nwant %v", seed, count, ss, off, length, got, want)
					return
				}
			}
		}
	})
	k.Run()
}

// TestReserveAllocs: a write and a read of an open file allocate nothing
// in the Lustre model, at one stripe object and at eight.
func TestReserveAllocs(t *testing.T) {
	for _, count := range []int{1, 8} {
		k, fs := testFS(DefaultParams())
		if err := fs.SetStripe("/io", count, 1<<20); err != nil {
			t.Fatal(err)
		}
		k.Spawn("r", func(p *sim.Proc) {
			f, err := fs.Create(p, nil, "/io/f")
			if err != nil {
				t.Error(err)
				return
			}
			f.WriteAt(p, nil, 0, 32<<20, nil)
		})
		k.Run()
		n, _ := fs.Namespace().Lookup("/io/f")
		off := int64(0)
		if a := testing.AllocsPerRun(100, func() {
			fs.absorb(n, off, 3<<20|4096, k.Now())
			fs.serve(n, off+12345, 5<<20, k.Now())
			off += 3<<20 | 4096
		}); a != 0 {
			t.Errorf("stripe count %d: a write and a read allocate %.0f objects, want 0", count, a)
		}
	}
}

// allocated reports the heap objects and bytes fn allocates per run over
// runs runs: a fraction, so that a slab chunk's one allocation shows
// spread over the values it holds. The least of a few tries: the
// runtime's own background allocations only ever add.
func allocated(runs int, fn func()) (objects, bytes float64) {
	fn()
	objects, bytes = math.Inf(1), math.Inf(1)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			fn()
		}
		runtime.ReadMemStats(&after)
		objects = min(objects, float64(after.Mallocs-before.Mallocs)/float64(runs))
		bytes = min(bytes, float64(after.TotalAlloc-before.TotalAlloc)/float64(runs))
	}
	return objects, bytes
}

// slabRuns is more runs than a slab chunk at its cap holds, so that a
// count over them includes the chunks' allocations.
const slabRuns = 1024

// TestPlaceRecyclesAllocs: re-placing a truncated file reuses its layout
// while the layout's objects have the room — the same stripe count, or a
// lower one — and otherwise takes a placement from the slab and allocates
// only the new Objects. What place allocates is what truncating to a
// from-object layout and placing allocates less what the truncation does;
// both take their placements from the slab, so the difference is exact up
// to a chunk's share.
func TestPlaceRecyclesAllocs(t *testing.T) {
	for _, tc := range []struct {
		from, to int
		want     float64
	}{{1, 1, 0}, {8, 8, 0}, {8, 2, 0}, {1, 4, 1}, {2, 8, 1}} {
		_, fs := testFS(DefaultParams())
		if err := fs.SetStripe("/io", tc.to, 1<<20); err != nil {
			t.Fatal(err)
		}
		n, err := fs.Namespace().CreateFile("/io/f")
		if err != nil {
			t.Fatal(err)
		}
		truncated := func() { n.Aux = fs.allocate(tc.from, 1<<20, nil) }
		base, _ := allocated(slabRuns, truncated)
		a, _ := allocated(slabRuns, func() {
			truncated()
			fs.place("/io/f", n)
		})
		if a -= base; a < tc.want-0.005 || a > tc.want+0.02 {
			t.Errorf("re-placing %d objects as %d allocates %.4f objects, want %.0f (+0.02)", tc.from, tc.to, a, tc.want)
		}
		if l := n.Aux.(*placement); l.StripeCount != tc.to || len(l.Objects) != tc.to {
			t.Errorf("re-placed %d as %d: count %d with %d objects", tc.from, tc.to, l.StripeCount, len(l.Objects))
		}
	}
}

// TestCreateAllocs: creating and placing a file-per-rank file — a new node
// and its single-stripe placement — allocates nothing of its own: both come
// from slabs, one allocation a chunk, and a chunk at the cap is nearly all
// values. The directory's map is the directory's, so each counted round
// first unlinks the last round's files, which allocates nothing and leaves
// the map its room, and then creates them again as new files. A namespace
// holding a single file pays for one node and one placement, not for a
// chunk of them.
func TestCreateAllocs(t *testing.T) {
	_, fs := testFS(DefaultParams())
	ns := fs.Namespace()
	paths := make([]string, slabRuns)
	for i := range paths {
		paths[i] = fmt.Sprintf("/out/bit1_%06d.dat", i)
	}
	objects, bytes := allocated(1, func() {
		for _, p := range paths {
			ns.Unlink(p)
		}
		for _, p := range paths {
			n, _ := ns.CreateFile(p)
			fs.place(p, n)
		}
	})
	objects, bytes = objects/slabRuns, bytes/slabRuns
	own := float64(reflect.TypeFor[pfs.Node]().Size() + reflect.TypeFor[placement]().Size())
	t.Logf("a create and place: %.4f objects, %.1f bytes (node + placement: %.0f)", objects, bytes, own)
	if objects > 0.05 {
		t.Errorf("a create and place allocates %.4f objects, want at most 0.05", objects)
	}
	if bytes > 1.25*own {
		t.Errorf("a create and place allocates %.1f bytes, want at most %.0f", bytes, 1.25*own)
	}

	_, fs = testFS(DefaultParams())
	_, one := allocated(1, func() {
		ns := pfs.NewNamespace()
		n, _ := ns.CreateFile("/f")
		fs.place("/f", n)
	})
	// Measured (go1.24): 544, of which the root directory, its map and the
	// map's first group take 336; a first chunk of four would add 624.
	t.Logf("a namespace of one file: %.0f bytes", one)
	if one > 640 {
		t.Errorf("a namespace of one file allocates %.0f bytes, want at most 640", one)
	}
}

// TestOpenPlacesAToolCreatedFile: a file a tool put into the namespace
// has no placement until its first Open, which draws one layout from the
// directory's default; a second open shares that placement's handle and
// draws nothing.
func TestOpenPlacesAToolCreatedFile(t *testing.T) {
	k, fs := testFS(DefaultParams())
	if err := fs.SetStripe("/io", 4, 1<<20); err != nil {
		t.Fatal(err)
	}
	n, err := fs.Namespace().CreateFile("/io/f")
	if err != nil {
		t.Fatal(err)
	}
	if n.Aux != nil {
		t.Fatalf("a tool's create placed the file: %v", n.Aux)
	}
	type draws struct {
		nextID  uint64
		nextOST int
	}
	state := func() draws { return draws{fs.nextID, fs.nextOST} }
	k.Spawn("r", func(p *sim.Proc) {
		before := state()
		f1, err := fs.Open(p, nil, "/io/f")
		if err != nil {
			t.Error(err)
			return
		}
		pl, ok := n.Aux.(*placement)
		if !ok || pl.StripeCount != 4 || len(pl.Objects) != 4 || f1 != &pl.h {
			t.Errorf("the first open left Aux %#v and handle %p", n.Aux, f1)
			return
		}
		if got := state(); got.nextOST != before.nextOST+4 || got.nextID == before.nextID {
			t.Errorf("the first open drew %+v from %+v, want one 4-object placement", got, before)
		}
		before = state()
		f2, err := fs.Open(p, nil, "/io/f")
		if err != nil {
			t.Error(err)
			return
		}
		if f2 != f1 || n.Aux != pl {
			t.Errorf("the second open re-placed the file: handle %p, was %p", f2, f1)
		}
		if got := state(); got != before {
			t.Errorf("the second open drew: %+v, was %+v", got, before)
		}
		f1.Close(p, nil)
		f2.Close(p, nil)
	})
	k.Run()
}

// TestGetStripeIsACopy: a layout GetStripe returned stays what it was when
// the file is re-created and its layout recycled in place.
func TestGetStripeIsACopy(t *testing.T) {
	k, fs := testFS(DefaultParams())
	if err := fs.SetStripe("/io", 4, 1<<20); err != nil {
		t.Fatal(err)
	}
	create := func() {
		k.Spawn("r", func(p *sim.Proc) {
			f, err := fs.Create(p, nil, "/io/f")
			if err != nil {
				t.Error(err)
				return
			}
			f.Close(p, nil)
		})
		k.Run()
	}
	create()
	first, err := fs.GetStripe("/io/f")
	if err != nil {
		t.Fatal(err)
	}
	kept := first
	kept.Objects = append([]Object(nil), first.Objects...)
	create()
	again, err := fs.GetStripe("/io/f")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, kept) {
		t.Fatalf("a re-create rewrote an earlier GetStripe result:\n got %+v\nwant %+v", first, kept)
	}
	if reflect.DeepEqual(again, first) {
		t.Fatalf("the re-created file kept its layout %+v", again)
	}
}

func TestStripeSplitCoversAllBytes(t *testing.T) {
	f := func(offRaw uint32, nRaw uint32, cRaw, sRaw uint8) bool {
		count := int(cRaw%8) + 1
		ss := int64(sRaw%16+1) * 65536
		l := &Layout{StripeCount: count, StripeSize: ss}
		off, n := int64(offRaw), int64(nRaw)
		per := stripeSplit(l, off, n)
		var sum int64
		for _, v := range per {
			if v < 0 {
				return false
			}
			sum += v
		}
		return sum == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestStripeSplitRoundRobin(t *testing.T) {
	l := &Layout{StripeCount: 4, StripeSize: 100}
	per := stripeSplit(l, 0, 400)
	for i, v := range per {
		if v != 100 {
			t.Fatalf("stripe %d got %d bytes, want 100", i, v)
		}
	}
	// Offset into second stripe.
	per = stripeSplit(l, 150, 100)
	if per[1] != 50 || per[2] != 50 {
		t.Fatalf("per=%v", per)
	}
}

func TestCreateWriteStat(t *testing.T) {
	k, fs := testFS(DefaultParams())
	var size int64
	k.Spawn("r", func(p *sim.Proc) {
		c := &pfs.Client{Node: 0, NIC: sim.NewServer(k, 10e9, 0)}
		f, err := fs.Create(p, c, "/io/data.0")
		if err != nil {
			t.Error(err)
			return
		}
		f.WriteAt(p, c, 0, 1<<20, nil)
		f.WriteAt(p, c, 1<<20, 1<<20, nil)
		f.Close(p, c)
		fi, err := fs.Stat(p, c, "/io/data.0")
		if err != nil {
			t.Error(err)
			return
		}
		size = fi.Size
	})
	end := k.Run()
	if size != 2<<20 {
		t.Fatalf("size=%d, want 2MiB", size)
	}
	if end <= 0 {
		t.Fatal("no virtual time elapsed")
	}
}

func TestStripingParallelismSpeedsWrites(t *testing.T) {
	// A big write striped over 8 OSTs should finish much faster than on 1.
	elapsed := func(count int) sim.Time {
		k, fs := testFS(DefaultParams())
		if err := fs.SetStripe("/io", count, 4<<20); err != nil {
			t.Fatal(err)
		}
		var end sim.Time
		k.Spawn("w", func(p *sim.Proc) {
			c := &pfs.Client{NIC: sim.NewServer(k, 100e9, 0)}
			f, _ := fs.Create(p, c, "/io/big")
			f.WriteAt(p, c, 0, 512<<20, nil)
			end = p.Now()
		})
		k.Run()
		return end
	}
	t1, t8 := elapsed(1), elapsed(8)
	if t8 >= t1/4 {
		t.Fatalf("striping gave no speedup: 1 OST %v, 8 OSTs %v", t1, t8)
	}
}

func TestMDSContentionSerializesCreates(t *testing.T) {
	// N simultaneous creates through a 1-thread MDS must take ~N*create.
	p := DefaultParams()
	p.MDSThreads = 1
	p.MDSCreate = 1e-3
	p.RPCLatency = 0
	k, fs := testFS(p)
	const n = 100
	var last sim.Time
	for i := 0; i < n; i++ {
		i := i
		k.Spawn("r", func(pr *sim.Proc) {
			c := &pfs.Client{}
			f, err := fs.Create(pr, c, pfs.Join("/out", "f", string(rune('a'+i%26)), "x"+string(rune('0'+i%10))+string(rune('0'+i/10))))
			if err != nil {
				t.Error(err)
				return
			}
			f.Close(pr, c)
			if pr.Now() > last {
				last = pr.Now()
			}
		})
	}
	k.Run()
	if last < 0.09 { // ~100 * 1ms creates serialized (+closes)
		t.Fatalf("creates were not serialized by MDS: last end %v", last)
	}
}

func TestSetStripeValidation(t *testing.T) {
	_, fs := testFS(DefaultParams())
	if err := fs.SetStripe("/d", 0, 1<<20); err == nil {
		t.Error("count 0 accepted")
	}
	if err := fs.SetStripe("/d", 100, 1<<20); err == nil {
		t.Error("count > NumOSTs accepted")
	}
	if err := fs.SetStripe("/d", 4, 12345); err == nil {
		t.Error("non-64KiB-multiple size accepted")
	}
	if err := fs.SetStripe("/d", -1, 1<<20); err != nil {
		t.Errorf("-1 (all OSTs) rejected: %v", err)
	}
}

func TestGetStripeInheritsDirDefault(t *testing.T) {
	k, fs := testFS(DefaultParams())
	if err := fs.SetStripe("/io_openPMD", 8, 16<<20); err != nil {
		t.Fatal(err)
	}
	k.Spawn("r", func(p *sim.Proc) {
		c := &pfs.Client{}
		f, err := fs.Create(p, c, "/io_openPMD/dat_file.bp4/data.0")
		if err != nil {
			t.Error(err)
			return
		}
		f.Close(p, c)
	})
	k.Run()
	l, err := fs.GetStripe("/io_openPMD/dat_file.bp4/data.0")
	if err != nil {
		t.Fatal(err)
	}
	if l.StripeCount != 8 || l.StripeSize != 16<<20 {
		t.Fatalf("layout=%+v", l)
	}
	if len(l.Objects) != 8 {
		t.Fatalf("objects=%d, want 8", len(l.Objects))
	}
	seen := map[int]bool{}
	for _, o := range l.Objects {
		if o.OBDIdx < 0 || o.OBDIdx >= fs.Params().NumOSTs {
			t.Fatalf("obdidx %d out of range", o.OBDIdx)
		}
		if seen[o.OBDIdx] {
			t.Fatalf("duplicate OST %d in layout", o.OBDIdx)
		}
		seen[o.OBDIdx] = true
	}
	out := FormatGetStripe("/io_openPMD/dat_file.bp4/data.0", l)
	for _, want := range []string{"lmm_stripe_count:  8", "lmm_stripe_size:   16777216", "raid0", "obdidx"} {
		if !strings.Contains(out, want) {
			t.Errorf("getstripe output missing %q:\n%s", want, out)
		}
	}
}

func TestRoundRobinAllocationSpreads(t *testing.T) {
	k, fs := testFS(DefaultParams())
	k.Spawn("r", func(p *sim.Proc) {
		c := &pfs.Client{}
		for i := 0; i < fs.Params().NumOSTs; i++ {
			name := pfs.Join("/d", "f"+string(rune('A'+i%26))+string(rune('0'+i/26)))
			f, _ := fs.Create(p, c, name)
			f.Close(p, c)
		}
	})
	k.Run()
	// With stripe count 1 and round-robin allocation, each OST should
	// host exactly one of NumOSTs single-stripe files.
	used := map[int]int{}
	fs.Namespace().WalkFiles("/d", func(path string, n *pfs.Node) {
		l := n.Aux.(*placement)
		used[l.Objects[0].OBDIdx]++
	})
	for ost, cnt := range used {
		if cnt != 1 {
			t.Fatalf("OST %d used %d times", ost, cnt)
		}
	}
	if len(used) != fs.Params().NumOSTs {
		t.Fatalf("only %d OSTs used", len(used))
	}
}

func TestReadBackContent(t *testing.T) {
	k, fs := testFS(DefaultParams())
	var got string
	k.Spawn("r", func(p *sim.Proc) {
		c := &pfs.Client{}
		f, _ := fs.Create(p, c, "/x")
		f.WriteAt(p, c, 0, 5, []byte("hello"))
		f.Close(p, c)
		g, _ := fs.Open(p, c, "/x")
		got = string(g.ReadAt(p, c, 0, 5))
		g.Close(p, c)
	})
	k.Run()
	if got != "hello" {
		t.Fatalf("read %q", got)
	}
}

func TestJitterDeterministic(t *testing.T) {
	run := func() sim.Time {
		p := DefaultParams()
		p.JitterFrac = 0.4
		p.Seed = 99
		k, fs := testFS(p)
		var end sim.Time
		k.Spawn("w", func(pr *sim.Proc) {
			c := &pfs.Client{}
			f, _ := fs.Create(pr, c, "/j")
			for i := 0; i < 10; i++ {
				f.WriteAt(pr, c, int64(i)<<20, 1<<20, nil)
			}
			end = pr.Now()
		})
		k.Run()
		return end
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("jittered runs diverged: %v vs %v", a, b)
	}
}

// TestReleaseRecyclesPlacements: a file system's release hands its
// placements and nodes to the next one, whose files get fresh layouts and
// handles of their own in them.
func TestReleaseRecyclesPlacements(t *testing.T) {
	const files = 2000 // past the small chunks, which go to the collector
	create := func(fs *FS) []*placement {
		pls := make([]*placement, files)
		for i := range pls {
			p := fmt.Sprintf("/out/f%d", i)
			n, err := fs.ns.CreateFile(p)
			if err != nil {
				t.Fatal(err)
			}
			pls[i] = fs.place(p, n)
		}
		return pls
	}
	_, first := testFS(DefaultParams())
	released := map[*placement]bool{}
	for _, pl := range create(first) {
		released[pl] = true
	}
	first.Release()

	_, fs := testFS(DefaultParams())
	reused := 0
	for i, pl := range create(fs) {
		if released[pl] {
			reused++
		}
		if pl.h.fs != fs || pl.h.path != fmt.Sprintf("/out/f%d", i) || pl.h.node.Aux != pl || len(pl.Objects) != 1 {
			t.Fatalf("file %d's placement is not its own: %+v", i, *pl)
		}
	}
	if reused == 0 {
		t.Error("the second file system took no placement the first released")
	}
	fs.Release()
}

// TestReleasedFSPanics: every use of a released file system panics with a
// message that names it.
func TestReleasedFSPanics(t *testing.T) {
	_, fs := testFS(DefaultParams())
	fs.Release()
	for name, use := range map[string]func(){
		"Create":     func() { fs.Create(nil, nil, "/f") },
		"Open":       func() { fs.Open(nil, nil, "/f") },
		"OpenAppend": func() { fs.OpenAppend(nil, nil, "/f") },
		"Stat":       func() { fs.Stat(nil, nil, "/f") },
		"Unlink":     func() { fs.Unlink(nil, nil, "/f") },
		"MkdirAll":   func() { fs.MkdirAll(nil, nil, "/d") },
		"ReadDir":    func() { fs.ReadDir(nil, nil, "/") },
		"SetStripe":  func() { fs.SetStripe("/d", 1, 1<<20) },
		"GetStripe":  func() { fs.GetStripe("/f") },
		"Namespace":  func() { fs.Namespace() },
		"Release":    fs.Release,
	} {
		func() {
			defer func() {
				if r := recover(); r != "lustre: use of a released FS" {
					t.Errorf("%s after Release: recovered %v", name, r)
				}
			}()
			use()
		}()
	}
}
