// Package stdio models the C standard-I/O buffered layer (fopen/fprintf/
// fwrite/fflush/fclose) that BIT1's original output path uses. Writes
// accumulate in a user-space buffer (default 4 KiB, like glibc) and are
// flushed to the POSIX layer when full — which is precisely why the
// original BIT1 I/O issues storms of small writes and per-snapshot
// metadata operations at scale.
package stdio

import (
	"fmt"

	"picmcio/internal/posix"
	"picmcio/internal/sim"
)

// DefaultBufSize is the stdio buffer size (glibc BUFSIZ-like).
const DefaultBufSize = 4096

// File is a buffered stream over a POSIX descriptor.
type File struct {
	fd       posix.FD // by value: a stream and its descriptor are one object
	buf      int64    // bytes currently buffered
	bufSize  int64
	content  []byte       // retained only in content mode
	volume   bool         // true once any volume-mode write happened
	overhead sim.Duration // synchronous client-side cost per flush
}

// Fopen opens path into a new stream: Open, on the heap.
func Fopen(p *sim.Proc, env *posix.Env, path, mode string) (*File, error) {
	f := new(File)
	if err := f.Open(p, env, path, mode); err != nil {
		return nil, err
	}
	return f, nil
}

// Open opens path into f, a stream the caller holds — by value, for one
// that lives no longer than the function that opens it, so that opening
// allocates nothing — with C-style modes "w" (truncate), "a" (append) or
// "r" (read). Only the writing modes buffer. Whatever f held is
// discarded, not closed.
func (f *File) Open(p *sim.Proc, env *posix.Env, path, mode string) error {
	var how posix.OpenMode
	switch mode {
	case "w":
		how = posix.Truncate
	case "a":
		how = posix.Append
	case "r":
		how = posix.ReadOnly
	default:
		return fmt.Errorf("stdio: unsupported mode %q", mode)
	}
	*f = File{bufSize: DefaultBufSize}
	return env.OpenFD(&f.fd, p, path, how)
}

// SetBufSize overrides the buffer size (setvbuf). Must be called before
// the first write; n <= 0 means unbuffered.
func (f *File) SetBufSize(n int64) {
	if n <= 0 {
		n = 1
	}
	f.bufSize = n
}

// SetWriteOverhead charges a fixed synchronous client-side cost per
// buffer flush: the formatting + VFS + synchronous-RPC round trip that
// makes BIT1's original stdio output slow even on an idle file system.
func (f *File) SetWriteOverhead(d sim.Duration) { f.overhead = d }

// Fwrite appends n bytes to the stream. data may be nil (volume mode) or
// must have length n. Buffered data spills to POSIX in bufSize chunks.
func (f *File) Fwrite(p *sim.Proc, n int64, data []byte) {
	if data != nil {
		f.content = append(f.content, data...)
	} else {
		f.volume = true
	}
	f.buf += n
	for f.buf >= f.bufSize {
		f.flushChunk(p, f.bufSize)
	}
}

// flushChunk writes exactly n buffered bytes through POSIX.
func (f *File) flushChunk(p *sim.Proc, n int64) {
	if n <= 0 || f.buf <= 0 {
		return
	}
	if f.overhead > 0 {
		p.Sleep(f.overhead)
	}
	if n > f.buf {
		n = f.buf
	}
	var payload []byte
	if !f.volume && int64(len(f.content)) >= n {
		payload = f.content[:n:n]
		f.content = f.content[n:]
	} else {
		// Mixed or volume mode: drop content fidelity, keep volume.
		if int64(len(f.content)) >= n {
			f.content = f.content[n:]
		} else {
			f.content = nil
		}
	}
	f.fd.Write(p, n, payload)
	f.buf -= n
}

// Fflush drains the buffer to the POSIX layer.
func (f *File) Fflush(p *sim.Proc) {
	for f.buf > 0 {
		f.flushChunk(p, f.bufSize)
	}
}

// Fclose flushes and closes the stream.
func (f *File) Fclose(p *sim.Proc) {
	f.Fflush(p)
	f.fd.Close(p)
}
