// Package posix provides the POSIX-flavoured I/O layer the simulated
// applications program against: file descriptors with read/write/seek/
// fsync/close on top of a simulated pfs.FileSystem, with an instrumentation
// hook through which the Darshan module observes every operation — exactly
// where real Darshan interposes on the POSIX API.
package posix

import (
	"sync"

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
func (fd *FD) Write(p *sim.Proc, n int64, data []byte) { fd.write(p, nil, n, data) }

// WritePause is count times Write, each followed by pause of the
// caller's own time before its next operation: the client cost of
// producing the next buffer. data may be nil or must have length count*n,
// the i-th write taking the i-th n bytes. The monitor sees each write's
// own span, as after Write. On a file that books its writes
// (pfs.WriteBooker) a write and its pause are one wait, and the writes
// run as the kernel's steps (sim.Proc.Continue), the first at once, with
// no switch to the caller between them; on any other a write and its
// pause are two waits of the caller's. A pause <= 0 is none.
func (fd *FD) WritePause(p *sim.Proc, count int, n int64, data []byte, pause sim.Duration) {
	if count <= 0 {
		return
	}
	b, ok := fd.f.(pfs.WriteBooker)
	if !ok {
		fd.writeEach(p, count, n, data, pause)
		return
	}
	w := takeWriteStep(fd, b, count, n, data, pause)
	defer w.done(fd)
	p.Continue(w)
}

// writeEach is WritePause on a file that does not book its writes: the
// caller waits for each write, then for its pause. It is a function of
// its own to keep WritePause's frame, under which a rank parks, small.
func (fd *FD) writeEach(p *sim.Proc, count int, n int64, data []byte, pause sim.Duration) {
	for i := range count {
		fd.Write(p, n, chunkOf(data, i, n))
		if pause > 0 {
			p.Sleep(pause)
		}
	}
}

// write is every write at the offset: n bytes of data booked through b —
// the caller then owns the wait until the returned end — or, when b is
// nil, written with WriteAt's own wait. It moves the offset past them and
// shows the monitor the write's span.
func (fd *FD) write(p *sim.Proc, b pfs.WriteBooker, n int64, data []byte) sim.Time {
	start := p.Now()
	var end sim.Time
	if b != nil {
		end = max(b.BookWriteAt(p, fd.env.Client, fd.off, n, data), start)
	} else {
		fd.f.WriteAt(p, fd.env.Client, fd.off, n, data)
		end = p.Now()
	}
	fd.off += n
	fd.env.record(OpWrite, fd.path, n, start, end)
	return end
}

// chunkOf is the i-th n bytes of data, or nil for a volume-mode write.
func chunkOf(data []byte, i int, n int64) []byte {
	if data == nil {
		return nil
	}
	return data[int64(i)*n:][:n]
}

// writeStep is WritePause's continuation on a file that books its writes:
// a write and its pause at each wake. It works on a copy of the caller's
// descriptor, which may live on the caller's stack, and done hands the
// offset back.
type writeStep struct {
	fd    FD
	b     pfs.WriteBooker
	left  int // writes still to make
	i     int // the next write's chunk of data
	n     int64
	data  []byte
	pause sim.Duration
	free  *writeStep // the next free record, while this one is free
}

// Step implements sim.Stepper.
func (w *writeStep) Step(p *sim.Proc) (sim.Time, bool) {
	end := w.fd.write(p, w.b, w.n, chunkOf(w.data, w.i, w.n))
	w.i++
	w.left--
	return end + w.pause, w.left > 0
}

// done moves fd's offset past the writes made — all of them, or those
// before a kill — and returns the record to the free list.
func (w *writeStep) done(fd *FD) {
	fd.off = w.fd.off
	writeSteps.Lock()
	*w = writeStep{free: writeSteps.free}
	writeSteps.free = w
	writeSteps.Unlock()
}

// writeSteps is the process-wide free list of write steps, grown a slab
// at a time: the records in use are one per process in WritePause, in
// any kernel, so what they weigh follows the most ranks mid-write at once.
var writeSteps struct {
	sync.Mutex
	free *writeStep
}

// writeStepSlab is how many records the free list grows by at a time.
const writeStepSlab = 256

// takeWriteStep hands out a free record, growing the list by a slab when
// it is empty, set to write count chunks at fd's offset.
func takeWriteStep(fd *FD, b pfs.WriteBooker, count int, n int64, data []byte, pause sim.Duration) *writeStep {
	writeSteps.Lock()
	if writeSteps.free == nil {
		slab := make([]writeStep, writeStepSlab)
		for i := range slab {
			slab[i].free = writeSteps.free
			writeSteps.free = &slab[i]
		}
	}
	w := writeSteps.free
	writeSteps.free = w.free
	writeSteps.Unlock()
	*w = writeStep{fd: *fd, b: b, left: count, n: n, data: data, pause: max(pause, 0)}
	return w
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
