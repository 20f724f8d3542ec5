// Package lustre models a Lustre parallel file system in simulated time:
// a metadata server (MDS) served by a fixed pool of service threads, a set
// of object storage targets (OSTs) modeled as FCFS bandwidth servers, and
// RAID0 file striping with per-directory default layouts configurable via
// SetStripe — the `lfs setstripe -c <count> -S <size>` knob the paper tunes
// in §IV-E.
//
// Every data operation is split across the file's stripe objects exactly as
// Lustre's raid0 pattern would place it, so stripe-count / stripe-size
// sweeps reproduce the contention behaviour of Fig. 9, and file-per-process
// create storms queue on the MDS, reproducing the metadata collapse of the
// original BIT1 I/O path.
package lustre

import (
	"fmt"
	"slices"
	"strings"

	"picmcio/internal/pfs"
	"picmcio/internal/sim"
	"picmcio/internal/xrand"
)

// Params configures the simulated file system. All durations are seconds.
type Params struct {
	NumOSTs  int          // object storage targets
	OSTRate  float64      // bytes/second each OST can absorb
	OSTPerOp sim.Duration // fixed cost per OST RPC

	MDSThreads int          // metadata service concurrency
	MDSCreate  sim.Duration // service time of a create
	MDSOpen    sim.Duration // service time of an open/lookup
	MDSStat    sim.Duration // service time of a stat
	MDSClose   sim.Duration // service time of a close
	MDSUnlink  sim.Duration // service time of an unlink
	MDSMkdir   sim.Duration // service time of a mkdir

	RPCLatency sim.Duration // one-way client<->server latency added per op

	// ClientWriteLatency is the extra per-write client-side latency of a
	// synchronous small write (stdio → VFS → LNET round trip before the
	// next write can issue). It models why file-per-process formatted
	// output is slow even when OSTs are idle.
	ClientWriteLatency sim.Duration

	// BackboneRate caps the aggregate bytes/second the storage fabric
	// (LNET routers + OSS front end) can absorb across all OSTs;
	// 0 disables the cap.
	BackboneRate float64

	DefaultStripeCount int   // default layout stripe count (>=1)
	DefaultStripeSize  int64 // default layout stripe size in bytes

	// JitterFrac, if > 0, perturbs every OST service duration by a
	// uniform factor in [1-JitterFrac, 1+JitterFrac]. Used to model the
	// erratic behaviour of congested production file systems (Vega).
	JitterFrac float64
	Seed       uint64
}

// Dardel-like defaults (calibrated in internal/experiments).
func DefaultParams() Params {
	return Params{
		NumOSTs:            48,
		OSTRate:            0.45e9,
		OSTPerOp:           200e-6,
		MDSThreads:         16,
		MDSCreate:          450e-6,
		MDSOpen:            250e-6,
		MDSStat:            120e-6,
		MDSClose:           90e-6,
		MDSUnlink:          300e-6,
		MDSMkdir:           450e-6,
		RPCLatency:         30e-6,
		DefaultStripeCount: 1,
		DefaultStripeSize:  1 << 20,
	}
}

// Object is one stripe object of a file layout, mirroring the fields
// `lfs getstripe` prints (obdidx, objid, group).
type Object struct {
	OBDIdx int
	ObjID  uint64
	Group  uint64
}

// Layout is a file's raid0 striping layout.
type Layout struct {
	StripeCount  int
	StripeSize   int64
	StripeOffset int // obdidx of the first stripe
	Pattern      string
	Objects      []Object
}

// FS is a simulated Lustre file system, the simulator's one file system.
// It implements pfs.FileSystem and pfs.Namespacer, and its handles
// pfs.File: POSIX semantics over a pfs.Namespace (content mode keeps
// bytes, volume mode sizes only) — create truncates and makes missing
// parents, open-append creates what is missing, reads clip at EOF — timed
// by the MDS and OST servers below. Paths are normalized where they enter
// its methods; the namespace, the placement and the handle get that clean
// string.
//
// Placement draws from the seed stream, so the order of an operation is
// fixed: charge the metadata operation, then change the namespace, then
// place — every file Create returns, new or truncated, and a file Open
// finds unplaced — and never place a file otherwise.
type FS struct {
	k        *sim.Kernel
	p        Params
	ns       *pfs.Namespace
	osts     []*sim.Server
	mds      *sim.MultiServer
	rng      *xrand.RNG
	backbone *sim.Server // nil when BackboneRate == 0
	nextID   uint64
	nextOST  int

	bytesRead uint64

	placements  pfs.Slab[placement]
	dirDefaults map[string]Layout // SetStripe on directories, by clean path; nil once released
}

// placements is the pool of every file system's placements.
var placements sim.Pool[placement]

var (
	_ pfs.FileSystem = (*FS)(nil)
	_ pfs.Namespacer = (*FS)(nil)
)

// New creates a Lustre file system on kernel k.
func New(k *sim.Kernel, p Params) *FS {
	if p.NumOSTs < 1 {
		p.NumOSTs = 1
	}
	if p.DefaultStripeCount < 1 {
		p.DefaultStripeCount = 1
	}
	if p.DefaultStripeSize <= 0 {
		p.DefaultStripeSize = 1 << 20
	}
	if p.MDSThreads < 1 {
		p.MDSThreads = 1
	}
	fs := &FS{
		k:           k,
		p:           p,
		ns:          pfs.NewNamespace(),
		mds:         sim.NewMultiServer(k, p.MDSThreads),
		rng:         xrand.New(p.Seed ^ 0x1f5),
		nextID:      297000000,
		placements:  pfs.NewSlab(&placements),
		dirDefaults: map[string]Layout{},
	}
	for i := 0; i < p.NumOSTs; i++ {
		fs.osts = append(fs.osts, sim.NewServer(k, p.OSTRate, p.OSTPerOp))
	}
	if p.BackboneRate > 0 {
		fs.backbone = sim.NewServer(k, p.BackboneRate, 0)
	}
	return fs
}

// Release gives the file system's per-file storage — its namespace's
// file nodes and its placements, with the handles they carry — back to
// process-wide pools for the next file system, and ends it: every later
// call panics. Call it once nothing runs on it and what is wanted of its
// namespace has been read out; no handle or node of it may be kept.
func (fs *FS) Release() {
	fs.live()
	fs.ns.Release()
	fs.placements.Release()
	fs.dirDefaults = nil
}

// live panics if the file system has been released.
func (fs *FS) live() {
	if fs.dirDefaults == nil {
		panic("lustre: use of a released FS")
	}
}

// Params returns the configuration the file system was built with.
func (fs *FS) Params() Params { return fs.p }

// MDSOps reports how many metadata operations the MDS has served.
func (fs *FS) MDSOps() uint64 { return fs.mds.Ops() }

// MDSBusy reports cumulative MDS busy time.
func (fs *FS) MDSBusy() sim.Duration { return fs.mds.Busy() }

// OSTStats reports per-OST (ops, bytes, busy).
func (fs *FS) OSTStats(i int) (ops, bytes uint64, busy sim.Duration) {
	return fs.osts[i].Stats()
}

// SetStripe configures the default layout for files subsequently created
// beneath dir, mirroring `lfs setstripe -c count -S size dir`.
// count -1 means "all OSTs".
func (fs *FS) SetStripe(dir string, count int, size int64) error {
	fs.live()
	if count == -1 {
		count = fs.p.NumOSTs
	}
	if count < 1 || count > fs.p.NumOSTs {
		return fmt.Errorf("lustre: stripe count %d out of range [1,%d]", count, fs.p.NumOSTs)
	}
	if size <= 0 {
		return fmt.Errorf("lustre: stripe size must be positive")
	}
	if size%65536 != 0 {
		return fmt.Errorf("lustre: stripe size must be a multiple of 64KiB")
	}
	fs.dirDefaults[pfs.Clean(dir)] = Layout{StripeCount: count, StripeSize: size, Pattern: "raid0"}
	return nil
}

// defaultLayoutFor walks up the parents of a clean path for a SetStripe
// default.
func (fs *FS) defaultLayoutFor(path string) Layout {
	for dir := path; dir != "/"; {
		dir = dir[:max(1, strings.LastIndexByte(dir, '/'))]
		if l, ok := fs.dirDefaults[dir]; ok {
			return l
		}
	}
	return Layout{StripeCount: fs.p.DefaultStripeCount, StripeSize: fs.p.DefaultStripeSize, Pattern: "raid0"}
}

// Name implements pfs.FileSystem.
func (fs *FS) Name() string { return "lustre" }

// Namespace exposes the file tree for offline inspection (tools, tests);
// it must not be mutated while processes are running.
func (fs *FS) Namespace() *pfs.Namespace {
	fs.live()
	return fs.ns
}

// TotalBytesRead reports cumulative bytes read across all files.
func (fs *FS) TotalBytesRead() uint64 { return fs.bytesRead }

// meta charges p one metadata operation of service time d on the MDS.
func (fs *FS) meta(p *sim.Proc, d sim.Duration) {
	fs.live()
	p.SleepUntil(fs.mds.ReserveDur(fs.jitter(d)) + fs.p.RPCLatency)
}

// Create implements pfs.FileSystem. Its file is new or truncated, so it
// is always placed.
func (fs *FS) Create(p *sim.Proc, c *pfs.Client, path string) (pfs.File, error) {
	path = pfs.Clean(path)
	fs.meta(p, fs.p.MDSCreate)
	n, err := fs.ns.CreateFile(path)
	if err != nil {
		return nil, err
	}
	return &fs.place(path, n).h, nil
}

// Open implements pfs.FileSystem. It places only a file a tool put into
// the namespace, which has no placement yet.
func (fs *FS) Open(p *sim.Proc, c *pfs.Client, path string) (pfs.File, error) {
	path = pfs.Clean(path)
	fs.meta(p, fs.p.MDSOpen)
	n, err := fs.ns.OpenFile(path)
	if err != nil {
		return nil, err
	}
	pl, ok := n.Aux.(*placement)
	if !ok {
		pl = fs.place(path, n)
	}
	return &pl.h, nil
}

// OpenAppend implements pfs.FileSystem: the lookup that decides between
// creating and opening is free; the create or open it leads to is not.
func (fs *FS) OpenAppend(p *sim.Proc, c *pfs.Client, path string) (pfs.File, error) {
	fs.live()
	path = pfs.Clean(path)
	if _, err := fs.ns.Lookup(path); err != nil {
		return fs.Create(p, c, path)
	}
	return fs.Open(p, c, path)
}

// Stat implements pfs.FileSystem.
func (fs *FS) Stat(p *sim.Proc, c *pfs.Client, path string) (pfs.FileInfo, error) {
	path = pfs.Clean(path)
	fs.meta(p, fs.p.MDSStat)
	n, err := fs.ns.Lookup(path)
	if err != nil {
		return pfs.FileInfo{}, err
	}
	return pfs.FileInfo{Path: path, Size: n.Size, IsDir: n.Dir}, nil
}

// Unlink implements pfs.FileSystem.
func (fs *FS) Unlink(p *sim.Proc, c *pfs.Client, path string) error {
	path = pfs.Clean(path)
	fs.meta(p, fs.p.MDSUnlink)
	return fs.ns.Unlink(path)
}

// MkdirAll implements pfs.FileSystem: one metadata operation however many
// directories it makes.
func (fs *FS) MkdirAll(p *sim.Proc, c *pfs.Client, path string) error {
	path = pfs.Clean(path)
	fs.meta(p, fs.p.MDSMkdir)
	_, err := fs.ns.MkdirAll(path)
	return err
}

// ReadDir implements pfs.FileSystem; the MDS prices it as a stat.
func (fs *FS) ReadDir(p *sim.Proc, c *pfs.Client, path string) ([]pfs.FileInfo, error) {
	path = pfs.Clean(path)
	fs.meta(p, fs.p.MDSStat)
	return fs.ns.ReadDir(path)
}

// handle is an open file. It holds nothing an open owns — the offset is
// the descriptor's — so every open of a file shares the one its placement
// carries, and opening allocates nothing.
type handle struct {
	fs   *FS
	node *pfs.Node
	path string
}

func (f *handle) Path() string { return f.path }
func (f *handle) Size() int64  { return f.node.Size }

// nicDone books n bytes on the client's NIC, when it has one, and returns
// when they are through. The NIC and the OSTs are distinct servers, so it
// does not matter which is reserved first.
func nicDone(p *sim.Proc, c *pfs.Client, n int64) sim.Time {
	if c != nil && c.NIC != nil && n > 0 {
		return c.NIC.Reserve(n)
	}
	return p.Now()
}

// WriteAt implements pfs.File. The bytes land before the sleep: a process
// that runs while this one waits already sees the new size.
func (f *handle) WriteAt(p *sim.Proc, c *pfs.Client, off, n int64, data []byte) {
	p.SleepUntil(f.BookWriteAt(p, c, off, n, data))
}

// BookWriteAt implements pfs.WriteBooker: WriteAt without the sleep.
func (f *handle) BookWriteAt(p *sim.Proc, c *pfs.Client, off, n int64, data []byte) sim.Time {
	end := f.fs.absorb(f.node, off, n, nicDone(p, c, n))
	pfs.NodeWrite(f.node, off, n, data)
	return end
}

// ReadAt implements pfs.File. A read at or past EOF is free, and so is one
// with a negative offset or length — pread's EINVAL: nothing is served and
// nothing returned; one that straddles EOF is clipped. The content is
// taken after the sleep, so it includes what was written while this
// process waited.
func (f *handle) ReadAt(p *sim.Proc, c *pfs.Client, off, n int64) []byte {
	if off < 0 || n < 0 || off >= f.node.Size {
		return nil
	}
	n = min(n, f.node.Size-off)
	end := f.fs.serve(f.node, off, n, nicDone(p, c, n))
	f.fs.bytesRead += uint64(n)
	p.SleepUntil(end)
	return pfs.NodeRead(f.node, off, n)
}

// Sync implements pfs.File.
func (f *handle) Sync(p *sim.Proc, c *pfs.Client) { p.SleepUntil(f.fs.fsync(f.node)) }

// Close implements pfs.File: a close is a metadata operation.
func (f *handle) Close(p *sim.Proc, c *pfs.Client) { f.fs.meta(p, f.fs.p.MDSClose) }

// placement is what n.Aux holds for a placed file: its layout, the
// backing of the layout's Objects when there is one object — the default
// striping, and every file of a file-per-rank run — and the handle every
// open of the file shares. Placements are carved from the FS's slab, so
// placing such a file allocates nothing of its own.
type placement struct {
	Layout
	one [1]Object
	h   handle
}

// allocate assigns count stripe objects of size bytes round-robin across
// OSTs into pl — a truncated file's placement, or nil — when its Objects
// have the room, so that a re-create allocates nothing, and into a new
// placement otherwise; the draws are the same either way.
func (fs *FS) allocate(count int, size int64, pl *placement) *placement {
	if pl == nil || cap(pl.Objects) < count {
		pl = fs.placements.New()
		if count == 1 {
			pl.Objects = pl.one[:]
		} else {
			pl.Objects = make([]Object, count)
		}
	}
	l := &pl.Layout
	*l = Layout{StripeCount: count, StripeSize: size, StripeOffset: fs.nextOST % fs.p.NumOSTs,
		Pattern: "raid0", Objects: l.Objects[:count]}
	for i := range l.Objects {
		idx := (fs.nextOST + i) % fs.p.NumOSTs
		fs.nextID += 1 + uint64(fs.rng.Intn(97))
		l.Objects[i] = Object{
			OBDIdx: idx,
			ObjID:  fs.nextID,
			Group:  uint64(idx)<<34 | 0x400,
		}
	}
	fs.nextOST = (fs.nextOST + count) % fs.p.NumOSTs
	return pl
}

// place gives the regular file n at the clean path a layout from the
// nearest SetStripe default, its objects allocated round-robin — in the
// truncated file's old placement, when it has one — and the handle its
// opens share, and returns the placement.
func (fs *FS) place(path string, n *pfs.Node) *placement {
	l := fs.defaultLayoutFor(path)
	old, _ := n.Aux.(*placement)
	pl := fs.allocate(l.StripeCount, l.StripeSize, old)
	pl.h = handle{fs: fs, node: n, path: path}
	n.Aux = pl
	return pl
}

func (fs *FS) jitter(d sim.Duration) sim.Duration {
	if fs.p.JitterFrac <= 0 {
		return d
	}
	f := 1 + fs.p.JitterFrac*(2*fs.rng.Float64()-1)
	return sim.Duration(float64(d) * f)
}

// GetStripe returns the layout of the file at path, as `lfs getstripe`
// would report it. The result is the caller's: its Objects are a copy, so
// a later re-create, which rewrites the file's layout in place, leaves it
// as it was.
func (fs *FS) GetStripe(path string) (Layout, error) {
	fs.live()
	n, err := fs.ns.OpenFile(path)
	if err != nil {
		return Layout{}, err
	}
	pl, ok := n.Aux.(*placement)
	if !ok {
		return Layout{}, fmt.Errorf("lustre: %s has no layout", path)
	}
	out := pl.Layout
	out.Objects = slices.Clone(pl.Objects)
	return out, nil
}

// FormatGetStripe renders a layout in the style of Listing 1 of the paper.
func FormatGetStripe(path string, l Layout) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", path)
	fmt.Fprintf(&b, "lmm_stripe_count:  %d\n", l.StripeCount)
	fmt.Fprintf(&b, "lmm_stripe_size:   %d\n", l.StripeSize)
	fmt.Fprintf(&b, "lmm_pattern:       %s\n", l.Pattern)
	fmt.Fprintf(&b, "lmm_layout_gen:    0\n")
	fmt.Fprintf(&b, "lmm_stripe_offset: %d\n", l.StripeOffset)
	fmt.Fprintf(&b, "\tobdidx\t\t objid\t\t objid\t\t group\n")
	for _, o := range l.Objects {
		fmt.Fprintf(&b, "\t%6d\t%12d\t%#14x\t%#14x\n", o.OBDIdx, o.ObjID, o.ObjID, o.Group)
	}
	return b.String()
}

// reserve books [off, off+length) of file n on the OSTs holding its stripe
// objects — one reservation per object the range touches, in object order,
// for all of that object's bytes — and returns the latest completion, or
// end if that is later. Raid0 deals stripes of StripeSize round-robin, so
// of the bytes below x object i holds StripeSize for every full round of
// StripeCount stripes, plus what of its stripe in the partial round lies
// below x; its share of the range is that at off+length less that at off.
func (fs *FS) reserve(n *pfs.Node, off, length int64, end sim.Time) sim.Time {
	if length <= 0 {
		return end
	}
	l := n.Aux.(*placement)
	ss := l.StripeSize
	round := ss * int64(l.StripeCount)
	hi := off + length
	loFull, loPart := off/round*ss, off%round
	hiFull, hiPart := hi/round*ss, hi%round
	for i, o := range l.Objects {
		first := int64(i) * ss
		bytes := hiFull + min(max(hiPart-first, 0), ss) - loFull - min(max(loPart-first, 0), ss)
		if bytes == 0 {
			continue
		}
		if e := fs.osts[o.OBDIdx].Reserve(bytes); e > end {
			end = e
		}
	}
	return end
}

// absorb books a write of [off, off+length) to n and returns when the
// write call returns. The client injects the payload through its node NIC
// (done at nicDone) while the fabric and the OSTs drain their stripe
// shares concurrently; completion is the latest stage, jittered, plus an
// RPC latency and the client-side cost of a synchronous write.
func (fs *FS) absorb(n *pfs.Node, off, length int64, nicDone sim.Time) sim.Time {
	end := nicDone
	if fs.backbone != nil && length > 0 {
		if e := fs.backbone.Reserve(length); e > end {
			end = e
		}
	}
	end = fs.reserve(n, off, length, end)
	now := fs.k.Now()
	return now + max(0, fs.jitter(end-now)) + fs.p.RPCLatency + fs.p.ClientWriteLatency
}

// serve books a read of [off, off+length), already clipped to the file
// size, and returns when the data is at the client: a request latency
// out, the stripe objects' OSTs and the client NIC (done at nicDone) in
// parallel, a reply latency back.
func (fs *FS) serve(n *pfs.Node, off, length int64, nicDone sim.Time) sim.Time {
	return max(nicDone, fs.reserve(n, off, length, fs.k.Now()+fs.p.RPCLatency)) + fs.p.RPCLatency
}

// fsync books an fsync of n, one RPC per stripe object, and returns when
// it completes.
func (fs *FS) fsync(n *pfs.Node) sim.Time {
	end := fs.k.Now()
	for _, o := range n.Aux.(*placement).Objects {
		if e := fs.osts[o.OBDIdx].Reserve(0); e > end {
			end = e
		}
	}
	return end + fs.p.RPCLatency
}
