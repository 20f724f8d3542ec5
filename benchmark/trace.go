package main

import (
	"bufio"
	"fmt"
	"os"
	"time"

	"picmcio/internal/mpisim"
	"picmcio/internal/pfs"
	"picmcio/internal/posix"
	"picmcio/internal/sim"
)

// The tracer records spans at the seams the harness can reach from its
// own files: host-time spans around the sequential driver calls, and
// virtual-time spans for every call that crosses the pfs.FileSystem and
// posix.Monitor interfaces while ranks run. Inside World.Run exactly one
// simulated process executes at a time (the kernel hands control over
// channels), so the decorators keep plain counters, as darshan.Collector
// itself does.

// clock says which time a span is in.
const (
	clockHost    = "host"    // nanoseconds since the tracer started
	clockVirtual = "virtual" // simulated seconds
)

type span struct {
	layer, op  string
	clock      string
	start, end float64
	parent     int // index of the enclosing span, -1 at the root
	rank       int // issuing rank, -1 when the seam does not know it
}

type tracer struct {
	t0    time.Time
	spans []span
	cur   int // innermost open host span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), cur: -1} }

// host times fn as a host-clock span and returns its duration in
// seconds. A nil tracer just times fn, so a cell reads the same with
// tracing off.
func (t *tracer) host(layer, op string, fn func()) float64 {
	start := time.Now()
	if t == nil {
		fn()
		return time.Since(start).Seconds()
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{layer: layer, op: op, clock: clockHost,
		start: float64(start.Sub(t.t0)), parent: t.cur, rank: -1})
	t.cur = id
	fn()
	end := time.Now()
	t.spans[id].end = float64(end.Sub(t.t0))
	t.cur = t.spans[id].parent
	return end.Sub(start).Seconds()
}

func (t *tracer) virtual(layer, op string, start, end sim.Time, rank int) {
	t.spans = append(t.spans, span{layer: layer, op: op, clock: clockVirtual,
		start: float64(start), end: float64(end), parent: t.cur, rank: rank})
}

// write streams the trace as JSON. Layer, op and clock names are interned
// into tables and each span is one array on its own line, which keeps a
// third-of-a-million-span trace near 15 MB and greppable; a span's id is
// its position.
func (t *tracer) write(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	var names []string
	ids := map[string]int{}
	intern := func(s string) int {
		id, ok := ids[s]
		if !ok {
			id = len(names)
			ids[s] = id
			names = append(names, s)
		}
		return id
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "{\"clocks\":{%q:\"ns since trace start\",%q:\"simulated seconds\"},\n", clockHost, clockVirtual)
	fmt.Fprint(w, "\"fields\":[\"layer\",\"op\",\"clock\",\"start\",\"end\",\"parent\",\"rank\"],\n\"spans\":[\n")
	for i, s := range t.spans {
		sep := ","
		if i == len(t.spans)-1 {
			sep = ""
		}
		fmt.Fprintf(w, "[%d,%d,%d,%g,%g,%d,%d]%s\n",
			intern(s.layer), intern(s.op), intern(s.clock), s.start, s.end, s.parent, s.rank, sep)
	}
	fmt.Fprint(w, "],\n\"names\":[")
	for i, n := range names {
		if i > 0 {
			fmt.Fprint(w, ",")
		}
		fmt.Fprintf(w, "%q", n)
	}
	fmt.Fprint(w, "]}\n")
	return w.Flush()
}

// fsTap decorates a pfs.FileSystem: every call is counted and recorded
// as a virtual-time span; waitS is the simulated time callers spent
// inside the file system.
type fsTap struct {
	inner pfs.FileSystem
	t     *tracer
	calls uint64
	waitS float64
}

var (
	_ pfs.FileSystem = (*fsTap)(nil)
	_ pfs.File       = (*fileTap)(nil)
)

func (f *fsTap) note(op string, p *sim.Proc, start sim.Time) {
	end := p.Now()
	f.calls++
	f.waitS += float64(end - start)
	f.t.virtual("pfs", op, start, end, -1)
}

func (f *fsTap) wrap(file pfs.File, err error) (pfs.File, error) {
	if err != nil {
		return nil, err
	}
	return &fileTap{inner: file, fs: f}, nil
}

func (f *fsTap) Name() string { return f.inner.Name() }

func (f *fsTap) Create(p *sim.Proc, c *pfs.Client, path string) (pfs.File, error) {
	defer f.note("Create", p, p.Now())
	return f.wrap(f.inner.Create(p, c, path))
}

func (f *fsTap) Open(p *sim.Proc, c *pfs.Client, path string) (pfs.File, error) {
	defer f.note("Open", p, p.Now())
	return f.wrap(f.inner.Open(p, c, path))
}

func (f *fsTap) OpenAppend(p *sim.Proc, c *pfs.Client, path string) (pfs.File, error) {
	defer f.note("OpenAppend", p, p.Now())
	return f.wrap(f.inner.OpenAppend(p, c, path))
}

func (f *fsTap) Stat(p *sim.Proc, c *pfs.Client, path string) (pfs.FileInfo, error) {
	defer f.note("Stat", p, p.Now())
	return f.inner.Stat(p, c, path)
}

func (f *fsTap) Unlink(p *sim.Proc, c *pfs.Client, path string) error {
	defer f.note("Unlink", p, p.Now())
	return f.inner.Unlink(p, c, path)
}

func (f *fsTap) MkdirAll(p *sim.Proc, c *pfs.Client, path string) error {
	defer f.note("MkdirAll", p, p.Now())
	return f.inner.MkdirAll(p, c, path)
}

func (f *fsTap) ReadDir(p *sim.Proc, c *pfs.Client, path string) ([]pfs.FileInfo, error) {
	defer f.note("ReadDir", p, p.Now())
	return f.inner.ReadDir(p, c, path)
}

// Namespace forwards pfs.Namespacer so offline inspection sees through
// the decorator.
func (f *fsTap) Namespace() *pfs.Namespace {
	if n, ok := f.inner.(pfs.Namespacer); ok {
		return n.Namespace()
	}
	return nil
}

type fileTap struct {
	inner pfs.File
	fs    *fsTap
}

func (f *fileTap) Path() string { return f.inner.Path() }
func (f *fileTap) Size() int64  { return f.inner.Size() }

func (f *fileTap) WriteAt(p *sim.Proc, c *pfs.Client, off, n int64, data []byte) {
	defer f.fs.note("WriteAt", p, p.Now())
	f.inner.WriteAt(p, c, off, n, data)
}

func (f *fileTap) ReadAt(p *sim.Proc, c *pfs.Client, off, n int64) []byte {
	defer f.fs.note("ReadAt", p, p.Now())
	return f.inner.ReadAt(p, c, off, n)
}

func (f *fileTap) Sync(p *sim.Proc, c *pfs.Client) {
	defer f.fs.note("Sync", p, p.Now())
	f.inner.Sync(p, c)
}

func (f *fileTap) Close(p *sim.Proc, c *pfs.Client) {
	defer f.fs.note("Close", p, p.Now())
	f.inner.Close(p, c)
}

// monitorTap decorates the posix.Monitor (the Darshan hook): it counts
// operations, records each as a virtual-time span with its rank, and
// accumulates the host time spent inside the inner Record. Record never
// yields to the kernel, so timing it from outside is sound.
type monitorTap struct {
	inner  posix.Monitor
	t      *tracer
	ops    uint64
	meta   uint64
	hostNs int64
}

var _ posix.Monitor = (*monitorTap)(nil)

func (m *monitorTap) Record(rank int, op posix.Op, path string, bytes int64, start, end sim.Time) {
	m.ops++
	if op.IsMeta() {
		m.meta++
	}
	m.t.virtual("posix", op.String(), start, end, rank)
	h := time.Now()
	m.inner.Record(rank, op, path, bytes, start, end)
	m.hostNs += int64(time.Since(h))
}

// costTap counts evaluations of the mpisim cost model and sums the
// virtual time it handed out.
type costTap struct {
	calls     uint64
	modelledS float64
}

func (c *costTap) wrap(inner mpisim.CostModel) mpisim.CostModel {
	return func(p int, bytes int64) sim.Duration {
		d := inner(p, bytes)
		c.calls++
		c.modelledS += float64(d)
		return d
	}
}
