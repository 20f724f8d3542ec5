// Package ior reimplements the IOR parallel I/O benchmark semantics the
// paper uses as its upper-bound reference (Table I / Fig. 4): N tasks
// write (and optionally read back) block-sized files through the POSIX
// API, either file-per-process (-F) or to a single shared file, with
// optional fsync-on-close (-e) and task reordering for readback (-C).
package ior

import (
	"fmt"
	"strings"

	"picmcio/internal/mpisim"
	"picmcio/internal/pfs"
	"picmcio/internal/posix"
	"picmcio/internal/sim"
)

// API selects the I/O interface, by the value of IOR's -a option. Only
// POSIX is implemented.
type API string

// POSIX is the supported API.
const POSIX API = "POSIX"

// Config mirrors the IOR command-line options used in Table I.
type Config struct {
	NumTasks     int   // -N
	API          API   // -a
	FilePerProc  bool  // -F
	ReorderTasks bool  // -C (read back rank n+1's data)
	Fsync        bool  // -e
	TransferSize int64 // -t
	BlockSize    int64 // -b (bytes written per task)
	ReadBack     bool  // perform the read phase
	TestDir      string
}

// DefaultConfig mirrors `ior -a POSIX -C -e` with 1 MiB transfers and a
// 16 MiB block per task.
func DefaultConfig(tasks int) Config {
	return Config{
		NumTasks:     tasks,
		API:          POSIX,
		ReorderTasks: true,
		Fsync:        true,
		TransferSize: 1 << 20,
		BlockSize:    16 << 20,
		TestDir:      "/ior",
	}
}

// CommandLine renders the equivalent IOR invocation (Table I style). It
// names -t and -b only where they differ from Table I's 1 MiB transfers
// and 16 MiB blocks.
func (c Config) CommandLine() string {
	var b strings.Builder
	fmt.Fprintf(&b, "srun -n %d ior -N=%d -a %s", c.NumTasks, c.NumTasks, c.API)
	if c.FilePerProc {
		b.WriteString(" -F")
	}
	if c.ReorderTasks {
		b.WriteString(" -C")
	}
	if c.Fsync {
		b.WriteString(" -e")
	}
	if c.ReadBack {
		b.WriteString(" -r")
	}
	if c.TransferSize != 1<<20 {
		b.WriteString(" -t " + sizeArg(c.TransferSize))
	}
	if c.BlockSize != 16<<20 {
		b.WriteString(" -b " + sizeArg(c.BlockSize))
	}
	return b.String()
}

// sizeArg renders a byte count as IOR's -t and -b take it: in the largest
// of g, m and k that divides it, else in bytes.
func sizeArg(n int64) string {
	switch {
	case n%(1<<30) == 0:
		return fmt.Sprintf("%dg", n>>30)
	case n%(1<<20) == 0:
		return fmt.Sprintf("%dm", n>>20)
	case n%(1<<10) == 0:
		return fmt.Sprintf("%dk", n>>10)
	}
	return fmt.Sprint(n)
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.API != POSIX {
		return fmt.Errorf("ior: API %s not supported (POSIX only)", c.API)
	}
	if c.NumTasks < 1 {
		return fmt.Errorf("ior: need at least one task")
	}
	if c.TransferSize < 1 || c.BlockSize < 1 {
		return fmt.Errorf("ior: transfer and block sizes must be positive")
	}
	return nil
}

// Result reports a run's aggregate performance, matching IOR's summary.
type Result struct {
	WriteBytes     int64
	WriteSeconds   float64
	WriteBandwidth float64 // bytes/second
	ReadBytes      int64
	ReadSeconds    float64
	ReadBandwidth  float64
	FilesCreated   int
}

// EnvFor builds the per-rank POSIX environment; supplied by the caller so
// IOR shares the machinery (clients, monitors) of the other experiments.
type EnvFor func(r *mpisim.Rank) *posix.Env

// Run executes the benchmark on an existing world and returns the result
// (valid on every rank after the final barrier). A failed mkdir, create or
// open is every rank's: each phase hands its failures to the barrier that
// closes it, and Run returns the first.
func Run(cfg Config, w *mpisim.World, envFor EnvFor) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	res := &Result{}
	var runErr error
	w.Run(func(r *mpisim.Rank) {
		p, env := r.Proc, envFor(r)
		var err error
		if r.ID == 0 {
			err = env.MkdirAll(p, cfg.TestDir)
		}
		if err = r.Comm.BarrierErr(err); err != nil {
			runErr = err
			return
		}

		path := pfs.Join(cfg.TestDir, "testFile")
		if cfg.FilePerProc {
			path = pfs.Join(cfg.TestDir, fmt.Sprintf("testFile.%08d", r.ID))
		}

		// Write phase. A shared file's other ranks open it once rank 0's
		// create has passed the barrier.
		t0 := p.Now()
		var fd *posix.FD
		if cfg.FilePerProc || r.ID == 0 {
			fd, err = env.Create(p, path)
		}
		if err = r.Comm.BarrierErr(err); err != nil {
			if fd != nil {
				fd.Close(p)
			}
			runErr = err
			return
		}
		if fd == nil {
			fd, err = env.Open(p, path)
		}
		if err == nil {
			base := int64(0)
			if !cfg.FilePerProc {
				base = int64(r.ID) * cfg.BlockSize
			}
			for off := int64(0); off < cfg.BlockSize; off += cfg.TransferSize {
				n := cfg.TransferSize
				if off+n > cfg.BlockSize {
					n = cfg.BlockSize - off
				}
				fd.Pwrite(p, base+off, n, nil)
			}
			if cfg.Fsync {
				fd.Fsync(p)
			}
			fd.Close(p)
		}
		if err = r.Comm.BarrierErr(err); err != nil {
			runErr = err
			return
		}
		writeEnd := p.Now()

		// Read phase (optionally reordered so ranks do not read their
		// own cached data — IOR's -C).
		var readEnd sim.Time
		if cfg.ReadBack {
			readID := r.ID
			if cfg.ReorderTasks {
				readID = (r.ID + 1) % cfg.NumTasks
			}
			rpath := path
			if cfg.FilePerProc {
				rpath = pfs.Join(cfg.TestDir, fmt.Sprintf("testFile.%08d", readID))
			}
			rfd, err := env.Open(p, rpath)
			if err == nil {
				rbase := int64(0)
				if !cfg.FilePerProc {
					rbase = int64(readID) * cfg.BlockSize
				}
				for off := int64(0); off < cfg.BlockSize; off += cfg.TransferSize {
					n := cfg.TransferSize
					if off+n > cfg.BlockSize {
						n = cfg.BlockSize - off
					}
					rfd.Pread(p, rbase+off, n)
				}
				rfd.Close(p)
			}
			if err = r.Comm.BarrierErr(err); err != nil {
				runErr = err
				return
			}
			readEnd = p.Now()
		}

		if r.ID == 0 {
			res.WriteBytes = cfg.BlockSize * int64(cfg.NumTasks)
			res.WriteSeconds = float64(writeEnd - t0)
			if res.WriteSeconds > 0 {
				res.WriteBandwidth = float64(res.WriteBytes) / res.WriteSeconds
			}
			if cfg.ReadBack {
				res.ReadBytes = res.WriteBytes
				res.ReadSeconds = float64(readEnd - writeEnd)
				if res.ReadSeconds > 0 {
					res.ReadBandwidth = float64(res.ReadBytes) / res.ReadSeconds
				}
			}
			if cfg.FilePerProc {
				res.FilesCreated = cfg.NumTasks
			} else {
				res.FilesCreated = 1
			}
		}
	})
	if runErr != nil {
		return nil, runErr
	}
	return res, nil
}
