package pfs

import "picmcio/internal/sim"

// MetaOp is a kind of metadata operation: the unit a Backend prices.
type MetaOp int

// The metadata operations a Frontend charges. ReadDir is charged as a
// MetaStat; a backend with one metadata price ignores the kind.
const (
	MetaCreate MetaOp = iota
	MetaOpen
	MetaStat
	MetaClose
	MetaUnlink
	MetaMkdir
)

// Backend is the cost model behind a Frontend: what the simulated file
// system's timing and placement decide, and nothing else. Each method books its
// reservations now, without blocking, and returns when the calling
// process may continue; the Frontend does the sleeping and the bookkeeping.
//
// The order of calls is the contract, because the backend draws from its
// seed stream: the Frontend charges the metadata operation, then mutates
// the namespace, then places — a new file, and a truncated one again —
// and never places a file whose placement state is current.
type Backend interface {
	// Meta books one metadata operation and returns when the client has
	// its reply.
	Meta(op MetaOp) sim.Time
	// Place gives the regular file n at the clean path its placement state
	// in n.Aux (a Lustre layout): on create or truncate, and on opening a
	// file a tool put into the namespace.
	// After a truncate n.Aux still holds the old state, which Place may
	// reuse as the new one's storage; what it draws does not depend on it.
	Place(path string, n *Node)
	// Absorb books a write of [off, off+length) to n and returns when the
	// write call returns; nicDone is when the payload has left the
	// client's NIC (now, for a client without one).
	Absorb(n *Node, off, length int64, nicDone sim.Time) sim.Time
	// Serve books a read of [off, off+length), already clipped to the
	// file size, and returns when the data is at the client; nicDone is
	// when the client's NIC could have taken it in.
	Serve(n *Node, off, length int64, nicDone sim.Time) sim.Time
	// Fsync books an fsync of n and returns when it completes.
	Fsync(n *Node) sim.Time
}

// Frontend is the one implementation of FileSystem, File and Namespacer:
// POSIX semantics over a Namespace — create truncates, open-append
// creates what is missing, reads clip at EOF — with the size and content
// bookkeeping, the byte counters and the client-NIC stage, timed by a
// Backend. Lustre embeds one. Paths are normalized where they enter it;
// Namespace, Backend.Place and the handle get that clean string.
type Frontend struct {
	name string
	ns   *Namespace
	b    Backend

	bytesRead uint64
}

// NewFrontend returns an empty file system called name, timed by b.
func NewFrontend(name string, b Backend) *Frontend {
	return &Frontend{name: name, ns: NewNamespace(), b: b}
}

var _ FileSystem = (*Frontend)(nil)

// Name implements FileSystem.
func (fe *Frontend) Name() string { return fe.name }

// Namespace exposes the file tree for offline inspection (tools, tests);
// it must not be mutated while processes are running.
func (fe *Frontend) Namespace() *Namespace { return fe.ns }

// TotalBytesRead reports cumulative bytes read across all files.
func (fe *Frontend) TotalBytesRead() uint64 { return fe.bytesRead }

// meta charges p one metadata operation.
func (fe *Frontend) meta(p *sim.Proc, op MetaOp) { p.SleepUntil(fe.b.Meta(op)) }

// handle opens n, placing it first if its placement state is missing or
// stale, and returns the node's own handle: a handle holds nothing an open
// owns — the offset is the descriptor's — so every open of a file shares
// it, and opening allocates nothing.
func (fe *Frontend) handle(path string, n *Node) *file {
	if n.Aux == nil || n.stale {
		fe.b.Place(path, n)
		n.stale = false
	}
	n.h = file{fe: fe, node: n, path: path}
	return &n.h
}

// Create implements FileSystem.
func (fe *Frontend) Create(p *sim.Proc, c *Client, path string) (File, error) {
	path = Clean(path)
	fe.meta(p, MetaCreate)
	n, err := fe.ns.CreateFile(path)
	if err != nil {
		return nil, err
	}
	return fe.handle(path, n), nil
}

// Open implements FileSystem.
func (fe *Frontend) Open(p *sim.Proc, c *Client, path string) (File, error) {
	path = Clean(path)
	fe.meta(p, MetaOpen)
	n, err := fe.ns.OpenFile(path)
	if err != nil {
		return nil, err
	}
	return fe.handle(path, n), nil
}

// OpenAppend implements FileSystem: the lookup that decides between
// creating and opening is free; the create or open it leads to is not.
func (fe *Frontend) OpenAppend(p *sim.Proc, c *Client, path string) (File, error) {
	path = Clean(path)
	if _, err := fe.ns.Lookup(path); err != nil {
		return fe.Create(p, c, path)
	}
	return fe.Open(p, c, path)
}

// Stat implements FileSystem.
func (fe *Frontend) Stat(p *sim.Proc, c *Client, path string) (FileInfo, error) {
	path = Clean(path)
	fe.meta(p, MetaStat)
	n, err := fe.ns.Lookup(path)
	if err != nil {
		return FileInfo{}, err
	}
	return FileInfo{Path: path, Size: n.Size, IsDir: n.Dir}, nil
}

// Unlink implements FileSystem.
func (fe *Frontend) Unlink(p *sim.Proc, c *Client, path string) error {
	path = Clean(path)
	fe.meta(p, MetaUnlink)
	return fe.ns.Unlink(path)
}

// MkdirAll implements FileSystem: one metadata operation however many
// directories it makes.
func (fe *Frontend) MkdirAll(p *sim.Proc, c *Client, path string) error {
	path = Clean(path)
	fe.meta(p, MetaMkdir)
	_, err := fe.ns.MkdirAll(path)
	return err
}

// ReadDir implements FileSystem.
func (fe *Frontend) ReadDir(p *sim.Proc, c *Client, path string) ([]FileInfo, error) {
	path = Clean(path)
	fe.meta(p, MetaStat)
	return fe.ns.ReadDir(path)
}

// file is an open handle, the one a Node carries; it shares the
// Frontend's normalized path string.
type file struct {
	fe   *Frontend
	node *Node
	path string
}

func (f *file) Path() string { return f.path }
func (f *file) Size() int64  { return f.node.Size }

// nicDone books n bytes on the client's NIC, when it has one, and returns
// when they are through. The NIC and a backend's servers are distinct, so
// it does not matter which is reserved first.
func nicDone(p *sim.Proc, c *Client, n int64) sim.Time {
	if c != nil && c.NIC != nil && n > 0 {
		return c.NIC.Reserve(n)
	}
	return p.Now()
}

// WriteAt implements File. The bytes land before the sleep: a process
// that runs while this one waits already sees the new size.
func (f *file) WriteAt(p *sim.Proc, c *Client, off, n int64, data []byte) {
	end := f.fe.b.Absorb(f.node, off, n, nicDone(p, c, n))
	NodeWrite(f.node, off, n, data)
	p.SleepUntil(end)
}

// ReadAt implements File. A read at or past EOF is free, and so is one
// with a negative offset or length — pread's EINVAL: nothing is served and
// nothing returned; one that straddles EOF is clipped. The content is
// taken after the sleep, so it includes what was written while this
// process waited.
func (f *file) ReadAt(p *sim.Proc, c *Client, off, n int64) []byte {
	if off < 0 || n < 0 || off >= f.node.Size {
		return nil
	}
	n = min(n, f.node.Size-off)
	end := f.fe.b.Serve(f.node, off, n, nicDone(p, c, n))
	f.fe.bytesRead += uint64(n)
	p.SleepUntil(end)
	return NodeRead(f.node, off, n)
}

// Sync implements File.
func (f *file) Sync(p *sim.Proc, c *Client) { p.SleepUntil(f.fe.b.Fsync(f.node)) }

// Close implements File: a close is a metadata operation.
func (f *file) Close(p *sim.Proc, c *Client) { f.fe.meta(p, MetaClose) }
