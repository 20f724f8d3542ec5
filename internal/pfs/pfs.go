// Package pfs defines what a simulated parallel file system is to its
// callers: the FileSystem and File interfaces, the client (a compute
// node's network endpoint) through which every operation is issued, the
// path rules, and the Namespace — the in-memory file tree of directories,
// sizes and optional contents. The one file system, lustre.FS, gives the
// namespace its POSIX semantics and its timing; the burst tier wraps it.
package pfs

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"picmcio/internal/sim"
)

// Errors returned by namespace operations; they mirror the POSIX errno
// values the real code paths would see.
var (
	ErrNotExist = errors.New("pfs: no such file or directory")
	ErrIsDir    = errors.New("pfs: is a directory")
	ErrNotDir   = errors.New("pfs: not a directory")
)

// Client identifies the issuing side of an operation: which node it runs
// on and the node's shared NIC bandwidth server. All ranks of a node share
// one Client.
type Client struct {
	Node int
	NIC  *sim.Server
}

// FileInfo is the result of a Stat.
type FileInfo struct {
	Path  string
	Size  int64
	IsDir bool
}

// File is an open simulated file.
type File interface {
	// Path reports the absolute path the file was opened with.
	Path() string
	// Size reports the current file size in bytes.
	Size() int64
	// WriteAt writes n bytes at offset off, charging simulated time to p.
	// If data is non-nil it must have length n and the bytes are retained
	// (content mode); if nil only the size is tracked (volume mode).
	WriteAt(p *sim.Proc, c *Client, off int64, n int64, data []byte)
	// ReadAt reads up to n bytes at offset off, charging simulated time.
	// The returned slice is nil for volume-mode regions.
	ReadAt(p *sim.Proc, c *Client, off int64, n int64) []byte
	// Sync flushes the file (fsync), charging simulated time.
	Sync(p *sim.Proc, c *Client)
	// Close closes the file, charging simulated time for the metadata op.
	Close(p *sim.Proc, c *Client)
}

// FileSystem is a simulated parallel file system.
type FileSystem interface {
	// Name reports a short identifier such as "lustre" or "burst+lustre".
	Name() string
	// Create creates (or truncates) a regular file.
	Create(p *sim.Proc, c *Client, path string) (File, error)
	// Open opens an existing regular file.
	Open(p *sim.Proc, c *Client, path string) (File, error)
	// OpenAppend opens an existing file, or creates it, for appending.
	OpenAppend(p *sim.Proc, c *Client, path string) (File, error)
	// Stat reports metadata for a path.
	Stat(p *sim.Proc, c *Client, path string) (FileInfo, error)
	// Unlink removes a regular file.
	Unlink(p *sim.Proc, c *Client, path string) error
	// MkdirAll creates a directory and any missing parents.
	MkdirAll(p *sim.Proc, c *Client, path string) error
	// ReadDir lists the entries of a directory, sorted by name.
	ReadDir(p *sim.Proc, c *Client, path string) ([]FileInfo, error)
}

// Stager is optionally implemented by staging file systems (burst
// buffers) layered over a backing FileSystem. DrainEpoch nudges the tier
// to start writing buffered data back to the backing store without
// blocking the caller; the ADIOS2 engine calls it when a step closes.
type Stager interface {
	FileSystem
	DrainEpoch(p *sim.Proc)
}

// WriteBooker is optionally implemented by a File whose write is one wait:
// BookWriteAt is WriteAt without the wait — the bytes land and the servers
// are booked at once — and returns when the write completes. The caller
// then owns the wait, so it can fold a pause that follows the write into
// it. lustre's handle implements it; a staged file, which may wait for a
// drain in the middle of a write, does not.
type WriteBooker interface {
	BookWriteAt(p *sim.Proc, c *Client, off int64, n int64, data []byte) sim.Time
}

// Namespacer is implemented by lustre.FS: it exposes the in-memory file
// tree for offline inspection — file statistics, profile extraction, tool
// clones — without charging simulated time.
type Namespacer interface {
	Namespace() *Namespace
}

// Clean normalizes a path to an absolute slash-separated form with no
// trailing slash (except for the root itself). A path that already has
// that form is returned as it is, without allocating: every layer
// normalizes where a path enters it, so most calls see a clean path.
func Clean(path string) string {
	if isClean(path) {
		return path
	}
	parts := strings.Split(path, "/")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		switch p {
		case "", ".":
		case "..":
			if len(out) > 0 {
				out = out[:len(out)-1]
			}
		default:
			out = append(out, p)
		}
	}
	return "/" + strings.Join(out, "/")
}

// isClean reports whether path is what Clean would return for it:
// absolute, no empty, "." or ".." component, no trailing slash.
func isClean(path string) bool {
	if path == "/" {
		return true
	}
	if path == "" || path[0] != '/' {
		return false
	}
	for rest, more := path[1:], true; more; {
		var part string
		part, rest, more = strings.Cut(rest, "/")
		if part == "" || part == "." || part == ".." {
			return false
		}
	}
	return true
}

// Split returns the parent directory and base name of a cleaned path.
func Split(path string) (dir, base string) {
	p := Clean(path)
	i := strings.LastIndexByte(p, '/')
	if i == 0 {
		return "/", p[1:]
	}
	return p[:i], p[i+1:]
}

// Join joins path elements and cleans the result.
func Join(elem ...string) string { return Clean(strings.Join(elem, "/")) }

// Node is an entry in a Namespace: either a directory or a regular file's
// metadata record. The file system hangs a file's placement off the Aux
// field (lustre: its layout and shared handle).
type Node struct {
	Name     string
	Dir      bool
	Size     int64
	Children map[string]*Node // directories only
	Content  []byte           // content-mode data; nil in volume mode
	Aux      any              // the file system's placement state
}

// Namespace is a plain in-memory file tree with no timing model. Every
// method normalizes the path it is given (free for the clean paths
// lustre.FS hands it) and resolves it component by component. Its regular
// files' nodes are carved from a slab whose chunks a released namespace
// gives back to a process-wide pool.
type Namespace struct {
	root  *Node
	files Slab[Node]
}

// nodes is the pool of every namespace's file nodes.
var nodes sim.Pool[Node]

// Slab hands out zero values of T carved from chunks, so that making many
// values of one kind costs an allocation a chunk, not one each. A chunk
// comes from the slab's pool when the pool has one; otherwise a new chunk
// holds an eighth of the values handed out so far, at least one and at
// most slabCap: what a slab leaves unused is at most an eighth of what it
// has handed out, so a namespace of a few files pays for them one by one,
// and one of thousands a chunk per 128. Until Release a slot is never
// handed out twice; Release gives the full chunks — slabCap values, the
// pool's and those of a large slab — back, cleared, and from then on a
// value the slab handed out may be any later slab's. The smaller chunks
// are left to the collector: keeping count of them would cost a small
// slab allocations of its own. Make one with NewSlab.
type Slab[T any] struct {
	pool   *sim.Pool[T]
	chunks [][]T // the full chunks carved from, for Release
	free   []T
	n      int // values handed out
}

const slabGrowth, slabCap = 8, 128

// NewSlab returns an empty slab that takes its chunks from pool and
// gives them back to it at Release.
func NewSlab[T any](pool *sim.Pool[T]) Slab[T] { return Slab[T]{pool: pool} }

// New returns a pointer to a zero T from the current chunk, or from a new
// one when it is used up.
func (s *Slab[T]) New() *T {
	if len(s.free) == 0 {
		s.free = s.pool.Take(min(max(s.n/slabGrowth, 1), slabCap))
		if len(s.free) == slabCap {
			s.chunks = append(s.chunks, s.free)
		}
	}
	s.n++
	v := &s.free[0]
	s.free = s.free[1:]
	return v
}

// Release gives the slab's full chunks to its pool and empties it.
// Nothing may use a value it handed out afterwards.
func (s *Slab[T]) Release() {
	s.pool.Give(s.chunks)
	*s = Slab[T]{pool: s.pool}
}

// NewNamespace returns a namespace containing only the root directory.
func NewNamespace() *Namespace {
	return &Namespace{root: &Node{Name: "/", Dir: true, Children: map[string]*Node{}}, files: NewSlab(&nodes)}
}

// Release gives the namespace's file nodes back to the pool and ends it:
// every later call panics. A node of it must not be kept past Release.
func (ns *Namespace) Release() {
	ns.live()
	ns.files.Release()
	ns.root = nil
}

// live panics if the namespace has been released.
func (ns *Namespace) live() {
	if ns.root == nil {
		panic("pfs: use of a released Namespace")
	}
}

// Lookup returns the node at path.
func (ns *Namespace) Lookup(path string) (*Node, error) {
	ns.live()
	p := Clean(path)
	cur := ns.root
	for rest := p[1:]; rest != ""; {
		var part string
		part, rest, _ = strings.Cut(rest, "/")
		if !cur.Dir {
			return nil, fmt.Errorf("%w: %s", ErrNotDir, p)
		}
		next, ok := cur.Children[part]
		if !ok {
			return nil, fmt.Errorf("%w: %s", ErrNotExist, p)
		}
		cur = next
	}
	return cur, nil
}

// MkdirAll creates a directory chain; existing directories are fine.
func (ns *Namespace) MkdirAll(path string) (*Node, error) {
	ns.live()
	p := Clean(path)
	cur := ns.root
	for rest := p[1:]; rest != ""; {
		var part string
		part, rest, _ = strings.Cut(rest, "/")
		next, ok := cur.Children[part]
		if !ok {
			next = &Node{Name: part, Dir: true, Children: map[string]*Node{}}
			cur.Children[part] = next
		} else if !next.Dir {
			return nil, fmt.Errorf("%w: %s", ErrNotDir, p)
		}
		cur = next
	}
	return cur, nil
}

// CreateFile creates or truncates a regular file, creating parents as
// needed (matching the behaviour the simulation layers rely on). A
// truncated file keeps its Aux, for the file system that truncated it to
// re-place it in.
func (ns *Namespace) CreateFile(path string) (*Node, error) {
	ns.live()
	p := Clean(path)
	if p == "/" {
		return nil, fmt.Errorf("%w: %s", ErrIsDir, p)
	}
	dir, base := Split(p)
	d, err := ns.MkdirAll(dir)
	if err != nil {
		return nil, err
	}
	if n, ok := d.Children[base]; ok {
		if n.Dir {
			return nil, fmt.Errorf("%w: %s", ErrIsDir, p)
		}
		n.Size = 0
		n.Content = nil
		return n, nil
	}
	n := ns.files.New()
	n.Name = base
	d.Children[base] = n
	return n, nil
}

// OpenFile returns the existing regular file at path.
func (ns *Namespace) OpenFile(path string) (*Node, error) {
	p := Clean(path)
	n, err := ns.Lookup(p)
	if err != nil {
		return nil, err
	}
	if n.Dir {
		return nil, fmt.Errorf("%w: %s", ErrIsDir, p)
	}
	return n, nil
}

// Unlink removes the regular file at path.
func (ns *Namespace) Unlink(path string) error {
	p := Clean(path)
	dir, base := Split(p)
	d, err := ns.Lookup(dir)
	if err != nil {
		return err
	}
	n, ok := d.Children[base]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotExist, p)
	}
	if n.Dir {
		return fmt.Errorf("%w: %s", ErrIsDir, p)
	}
	delete(d.Children, base)
	return nil
}

// sortedNames lists a directory's entry names in order.
func sortedNames(dir *Node) []string {
	names := make([]string, 0, len(dir.Children))
	for name := range dir.Children {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// ReadDir lists a directory's entries sorted by name.
func (ns *Namespace) ReadDir(path string) ([]FileInfo, error) {
	p := Clean(path)
	n, err := ns.Lookup(p)
	if err != nil {
		return nil, err
	}
	if !n.Dir {
		return nil, fmt.Errorf("%w: %s", ErrNotDir, p)
	}
	names := sortedNames(n)
	out := make([]FileInfo, 0, len(names))
	for _, name := range names {
		c := n.Children[name]
		out = append(out, FileInfo{Path: Join(p, name), Size: c.Size, IsDir: c.Dir})
	}
	return out, nil
}

// Files visits every regular file under root (inclusive), sorted by path,
// calling fn with the file's directory and node: the file's path is
// Join(dir, n.Name). It builds a path for each directory, none for a file.
func (ns *Namespace) Files(root string, fn func(dir string, n *Node)) error {
	return ns.visit(root, true, fn)
}

// FilesUnordered is Files in no particular order: it sorts no directory,
// for a caller that only sums, counts or takes a maximum.
func (ns *Namespace) FilesUnordered(root string, fn func(dir string, n *Node)) error {
	return ns.visit(root, false, fn)
}

func (ns *Namespace) visit(root string, sorted bool, fn func(dir string, n *Node)) error {
	start, err := ns.Lookup(root)
	if err != nil {
		return err
	}
	var rec func(dir string, d *Node)
	visit := func(dir, name string, n *Node) {
		if n.Dir {
			rec(Join(dir, name), n)
		} else {
			fn(dir, n)
		}
	}
	rec = func(dir string, d *Node) {
		if !sorted {
			for name, n := range d.Children {
				visit(dir, name, n)
			}
			return
		}
		for _, name := range sortedNames(d) {
			visit(dir, name, d.Children[name])
		}
	}
	if root = Clean(root); start.Dir {
		rec(root, start)
	} else {
		dir, _ := Split(root)
		fn(dir, start)
	}
	return nil
}

// WalkFiles is Files with each file's full path.
func (ns *Namespace) WalkFiles(root string, fn func(path string, n *Node)) error {
	return ns.Files(root, func(dir string, n *Node) { fn(Join(dir, n.Name), n) })
}

// NodeWrite applies a write to a node's size/content bookkeeping.
func NodeWrite(n *Node, off, length int64, data []byte) {
	end := off + length
	if end > n.Size {
		n.Size = end
	}
	if data != nil {
		if int64(len(n.Content)) < end {
			grown := make([]byte, end)
			copy(grown, n.Content)
			n.Content = grown
		}
		copy(n.Content[off:end], data)
	}
}

// NodeRead returns content-mode bytes for [off, off+length), clipped to the
// file size; nil if the region is volume-mode, or no region at all
// (negative offset or length).
func NodeRead(n *Node, off, length int64) []byte {
	if off < 0 || length < 0 || off >= n.Size {
		return nil
	}
	end := off + min(length, n.Size-off)
	if int64(len(n.Content)) >= end {
		return n.Content[off:end]
	}
	return nil
}
