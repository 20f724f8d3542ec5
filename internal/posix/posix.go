// Package posix provides the POSIX-flavoured I/O layer the simulated
// applications program against: file descriptors with read/write/seek/
// fsync/close on top of a simulated pfs.FileSystem, with an instrumentation
// hook through which the Darshan module observes every operation — exactly
// where real Darshan interposes on the POSIX API.
package posix

import (
	"picmcio/internal/pfs"
	"picmcio/internal/sim"
)

// Op identifies an instrumented operation.
type Op int

// Instrumented operation kinds.
const (
	OpOpen Op = iota
	OpCreate
	OpRead
	OpWrite
	OpSeek
	OpStat
	OpFsync
	OpClose
	OpUnlink
	OpMkdir
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case OpOpen:
		return "open"
	case OpCreate:
		return "create"
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpSeek:
		return "seek"
	case OpStat:
		return "stat"
	case OpFsync:
		return "fsync"
	case OpClose:
		return "close"
	case OpUnlink:
		return "unlink"
	case OpMkdir:
		return "mkdir"
	}
	return "op?"
}

// IsMeta reports whether the operation counts as metadata in the Darshan
// sense (everything that is neither a data read nor a data write).
func (o Op) IsMeta() bool { return o != OpRead && o != OpWrite }

// Monitor observes instrumented operations. Implementations must be cheap;
// they run inline with the simulated operation.
type Monitor interface {
	Record(rank int, op Op, path string, bytes int64, start, end sim.Time)
}

// Env is a per-rank POSIX environment: which file system and node NIC the
// rank's syscalls go through, and which monitor observes them.
type Env struct {
	FS      pfs.FileSystem
	Client  *pfs.Client
	Rank    int
	Monitor Monitor // may be nil

	// Stage is an optional staging tier (e.g. a node-local burst buffer)
	// layered over FS. I/O paths opt in per engine, with a copy of the
	// environment whose FS is Stage; plain FS operations keep going direct.
	Stage pfs.FileSystem
}

func (e *Env) record(op Op, path string, bytes int64, start, end sim.Time) {
	if e.Monitor != nil {
		e.Monitor.Record(e.Rank, op, path, bytes, start, end)
	}
}

// begin is where a path enters the POSIX layer: it is normalised here,
// once, and the returned string is the one the monitor records, the
// descriptor stores and the file system is handed — so one file is one
// Darshan record however the caller spelled its path, failed opens
// included.
func begin(p *sim.Proc, path string) (string, sim.Time) { return pfs.Clean(path), p.Now() }

// FD is an open file descriptor with a position.
type FD struct {
	env  *Env
	f    pfs.File
	path string
	off  int64
}

// OpenMode is how OpenFD opens a file: C's fopen "w" and "r".
type OpenMode int

// The ways to open a file.
const (
	Truncate OpenMode = iota // create, or truncate, at offset 0
	ReadOnly                 // an existing file, at offset 0
)

// OpenFD opens path into fd, a descriptor the caller holds by value — on
// its stack, or inside what wraps it — so that opening allocates nothing
// beyond what the file system does. Create and Open are OpenFD into a new
// descriptor; on an error fd is left as it was.
func (e *Env) OpenFD(fd *FD, p *sim.Proc, path string, mode OpenMode) error {
	path, start := begin(p, path)
	op, call := OpOpen, e.FS.Open
	if mode == Truncate {
		op, call = OpCreate, e.FS.Create
	}
	f, err := call(p, e.Client, path)
	e.record(op, path, 0, start, p.Now())
	if err != nil {
		return err
	}
	*fd = FD{env: e, f: f, path: path}
	return nil
}

func (e *Env) open(p *sim.Proc, path string, mode OpenMode) (*FD, error) {
	fd := new(FD)
	if err := e.OpenFD(fd, p, path, mode); err != nil {
		return nil, err
	}
	return fd, nil
}

// Create creates (or truncates) a file and returns a descriptor at offset 0.
func (e *Env) Create(p *sim.Proc, path string) (*FD, error) { return e.open(p, path, Truncate) }

// Open opens an existing file at offset 0.
func (e *Env) Open(p *sim.Proc, path string) (*FD, error) { return e.open(p, path, ReadOnly) }

// Stat reports file metadata.
func (e *Env) Stat(p *sim.Proc, path string) (pfs.FileInfo, error) {
	path, start := begin(p, path)
	fi, err := e.FS.Stat(p, e.Client, path)
	e.record(OpStat, path, 0, start, p.Now())
	return fi, err
}

// Unlink removes a file.
func (e *Env) Unlink(p *sim.Proc, path string) error {
	path, start := begin(p, path)
	err := e.FS.Unlink(p, e.Client, path)
	e.record(OpUnlink, path, 0, start, p.Now())
	return err
}

// MkdirAll creates a directory chain.
func (e *Env) MkdirAll(p *sim.Proc, path string) error {
	path, start := begin(p, path)
	err := e.FS.MkdirAll(p, e.Client, path)
	e.record(OpMkdir, path, 0, start, p.Now())
	return err
}

// Size reports the current size of the underlying file.
func (fd *FD) Size() int64 { return fd.f.Size() }

// Write writes n bytes at the current offset and advances it. data may be
// nil (volume mode) or must have length n.
func (fd *FD) Write(p *sim.Proc, n int64, data []byte) {
	fd.Pwrite(p, fd.off, n, data)
	fd.off += n
}

// WritePause is Write, then pause of the caller's own time before its next
// operation: the client cost of producing the next buffer. The monitor
// sees the write's own span, as after Write. On a file that books its
// writes (pfs.WriteBooker) the write and the pause are one wait; on any
// other they are two. A pause <= 0 is none.
func (fd *FD) WritePause(p *sim.Proc, n int64, data []byte, pause sim.Duration) {
	b, ok := fd.f.(pfs.WriteBooker)
	if !ok {
		fd.Write(p, n, data)
		if pause > 0 {
			p.Sleep(pause)
		}
		return
	}
	start := p.Now()
	end := max(b.BookWriteAt(p, fd.env.Client, fd.off, n, data), start)
	fd.off += n
	fd.env.record(OpWrite, fd.path, n, start, end)
	p.SleepUntil(end + max(pause, 0))
}

// Pwrite writes n bytes at offset off without moving the file position.
func (fd *FD) Pwrite(p *sim.Proc, off, n int64, data []byte) {
	start := p.Now()
	fd.f.WriteAt(p, fd.env.Client, off, n, data)
	fd.env.record(OpWrite, fd.path, n, start, p.Now())
}

// Read reads up to n bytes at the current offset and advances it.
func (fd *FD) Read(p *sim.Proc, n int64) []byte {
	n = fd.readable(fd.off, n)
	b := fd.Pread(p, fd.off, n)
	fd.off += n
	return b
}

// Pread reads up to n bytes at offset off without moving the position.
func (fd *FD) Pread(p *sim.Proc, off, n int64) []byte {
	start := p.Now()
	n = fd.readable(off, n)
	b := fd.f.ReadAt(p, fd.env.Client, off, n)
	fd.env.record(OpRead, fd.path, n, start, p.Now())
	return b
}

// readable is how many of n bytes at off a read starting now gets: it
// clips at the end of the file as it is when the read starts, as the file
// system does, so bytes that land while the read waits are left for the
// next one. A negative offset or length gets none.
func (fd *FD) readable(off, n int64) int64 {
	if off < 0 || n < 0 {
		return 0
	}
	return max(min(n, fd.f.Size()-off), 0)
}

// Fsync flushes the file to stable storage.
func (fd *FD) Fsync(p *sim.Proc) {
	start := p.Now()
	fd.f.Sync(p, fd.env.Client)
	fd.env.record(OpFsync, fd.path, 0, start, p.Now())
}

// Close closes the descriptor.
func (fd *FD) Close(p *sim.Proc) {
	start := p.Now()
	fd.f.Close(p, fd.env.Client)
	fd.env.record(OpClose, fd.path, 0, start, p.Now())
}
