package pfs_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"picmcio/internal/burst"
	"picmcio/internal/lustre"
	"picmcio/internal/pfs"
	"picmcio/internal/sim"
)

const mib = 1 << 20

// script is one process's half of the scenario: it records, after every
// step, what the step did (op, error, sizes, contents — the POSIX
// semantics a burst tier must not change) and when it finished (`p.Now()`
// as %x — the cost model, which it may).
type script struct {
	p     *sim.Proc
	c     *pfs.Client
	fs    pfs.FileSystem
	name  string
	sem   []string // what happened
	trace []string // what happened and when
}

func (s *script) step(format string, a ...any) {
	line := s.name + " " + fmt.Sprintf(format, a...)
	s.sem = append(s.sem, line)
	s.trace = append(s.trace, fmt.Sprintf("%s @ %x", line, float64(s.p.Now())))
}

func errText(err error) string {
	if err == nil {
		return "ok"
	}
	for _, e := range []error{pfs.ErrNotExist, pfs.ErrIsDir, pfs.ErrNotDir} {
		if errors.Is(err, e) {
			return "err=" + err.Error()
		}
	}
	return "err=UNCLASSIFIED " + err.Error()
}

func (s *script) mkdir(path string) {
	s.step("mkdir %s %s", path, errText(s.fs.MkdirAll(s.p, s.c, path)))
}

// open runs one of Create/Open/OpenAppend and records the handle's path
// and size; the handle is nil when the step failed.
func (s *script) open(op string, fn func(*sim.Proc, *pfs.Client, string) (pfs.File, error), path string) pfs.File {
	f, err := fn(s.p, s.c, path)
	if err != nil {
		s.step("%s %s %s", op, path, errText(err))
		return nil
	}
	s.step("%s %s ok path=%s size=%d", op, path, f.Path(), f.Size())
	return f
}

func (s *script) write(f pfs.File, off, n int64, data []byte) {
	f.WriteAt(s.p, s.c, off, n, data)
	s.step("write %s off=%d n=%d content=%t size=%d", f.Path(), off, n, data != nil, f.Size())
}

func (s *script) read(f pfs.File, off, n int64) {
	b := f.ReadAt(s.p, s.c, off, n)
	s.step("read %s off=%d n=%d got=%d %q", f.Path(), off, n, len(b), b)
}

func (s *script) sync(f pfs.File) {
	f.Sync(s.p, s.c)
	s.step("sync %s", f.Path())
}

func (s *script) close(f pfs.File) {
	f.Close(s.p, s.c)
	s.step("close %s", f.Path())
}

func (s *script) stat(path string) {
	fi, err := s.fs.Stat(s.p, s.c, path)
	if err != nil {
		s.step("stat %s %s", path, errText(err))
		return
	}
	s.step("stat %s ok path=%s size=%d dir=%t", path, fi.Path, fi.Size, fi.IsDir)
}

func (s *script) readdir(path string) {
	ents, err := s.fs.ReadDir(s.p, s.c, path)
	if err != nil {
		s.step("readdir %s %s", path, errText(err))
		return
	}
	var b strings.Builder
	for _, e := range ents {
		fmt.Fprintf(&b, " %s:%d:%t", e.Path, e.Size, e.IsDir)
	}
	s.step("readdir %s ok%s", path, b.String())
}

func (s *script) unlink(path string) {
	s.step("unlink %s %s", path, errText(s.fs.Unlink(s.p, s.c, path)))
}

// scriptA is the single-writer walk through every FileSystem and File
// method: the rows the conformance comparison is about.
func scriptA(s *script) {
	fs := s.fs
	s.mkdir("/out/run")
	f := s.open("create", fs.Create, "/out/run/a.dat")
	s.write(f, 3*mib, 5*mib, nil) // straddles 1 MiB stripes and the 4 MiB object boundary
	s.write(f, 0, 12, []byte("hello, world"))
	s.sync(f)
	s.close(f)
	s.stat("/out/run/a.dat")
	s.stat("/out/run")

	f = s.open("open", fs.Open, "/out/run/a.dat")
	s.read(f, 0, 12)
	s.read(f, 7, 5)
	s.read(f, 8*mib+1, 16)  // past EOF: nothing, and free
	s.read(f, 8*mib-4, 100) // straddles EOF: clipped, volume mode
	s.read(f, 2*mib, 3*mib) // volume-mode span across stripes
	s.close(f)

	f = s.open("openappend", fs.OpenAppend, "/out/run/a.dat") // existing: opened at its size
	s.write(f, f.Size(), 100, nil)
	s.sync(f)
	s.close(f)
	f = s.open("openappend", fs.OpenAppend, "/out/run/new.log") // missing: created
	s.write(f, f.Size(), 7, []byte("line 1\n"))
	s.sync(f)
	s.close(f)
	f = s.open("openappend", fs.OpenAppend, "/out/run/new.log")
	s.write(f, f.Size(), 7, []byte("line 2\n"))
	s.read(f, 0, 64)
	s.sync(f)
	s.close(f)
	s.mkdir("/out/run/sub/deep")
	s.readdir("/out/run")
	s.readdir("/")

	s.unlink("/out/run/new.log")
	s.stat("/out/run/new.log")
	f = s.open("create", fs.Create, "/out/run/a.dat") // re-create truncates
	s.read(f, 0, 12)
	s.write(f, 0, 3, []byte("abc"))
	s.read(f, 0, 12)
	s.sync(f)
	s.close(f)
	s.stat("/out/run/a.dat")

	// The error rows: each still pays its metadata operation.
	s.open("open", fs.Open, "/out/missing")
	s.open("open", fs.Open, "/out/nodir/missing")
	s.open("open", fs.Open, "/out/run")             // a directory
	s.open("openappend", fs.OpenAppend, "/out/run") // a directory
	s.open("create", fs.Create, "/out/run/a.dat/x") // under a regular file
	s.open("create", fs.Create, "/out/run/sub")     // over a directory
	s.open("openappend", fs.OpenAppend, "/out/run/a.dat/x")
	s.unlink("/out/run") // a directory
	s.unlink("/out/missing")
	s.unlink("/out/run/a.dat/x")
	s.mkdir("/out/run/a.dat/sub")
	s.stat("/out/run/a.dat/x")
	s.readdir("/out/run/a.dat")
	s.readdir("/out/missing")
	s.mkdir("/")
	s.stat("/")
}

// scriptB runs concurrently on the second client, in the directory
// traceLustre stripes four ways: its operations queue behind scriptA's on
// the shared servers, which is what the trace pins.
func scriptB(s *script) {
	fs := s.fs
	f := s.open("create", fs.Create, "/out/striped/b.dat")
	s.write(f, 3*mib, 5*mib, nil)
	s.write(f, 8*mib, 0, nil) // zero-length write
	s.write(f, mib-3, 6, []byte("stripe"))
	s.sync(f)
	s.read(f, mib-3, 6)
	s.read(f, 0, 8*mib)
	s.close(f)
	s.stat("/out/striped/b.dat")
	for i := 0; i < 3; i++ {
		g := s.open("create", fs.Create, fmt.Sprintf("/out/striped/part.%d", i))
		s.write(g, 0, 256<<10, nil)
		s.sync(g) // a burst tier lists the backing size, which trails until a sync
		s.close(g)
	}
	s.readdir("/out/striped")
	f = s.open("open", fs.Open, "/out/striped/b.dat")
	s.read(f, 4*mib-1, 2)
	s.close(f)
}

// runScenario plays both scripts on fs and returns the semantic record
// and the timing trace, scriptA's rows first: the two processes never
// touch the same file, so each one's rows are a function of the file
// system alone and their interleaving shows only in the times.
func runScenario(k *sim.Kernel, fs pfs.FileSystem) (sem, trace string) {
	scripts := []*script{{name: "A"}, {name: "B"}}
	for i, body := range []func(*script){scriptA, scriptB} {
		s := scripts[i]
		s.fs = fs
		s.c = &pfs.Client{Node: i, NIC: sim.NewServer(k, 12.5e9, 2e-6)}
		k.Spawn(s.name, func(p *sim.Proc) {
			s.p = p
			body(s)
		})
	}
	k.Run()
	var a, b strings.Builder
	for _, s := range scripts {
		a.WriteString(strings.Join(s.sem, "\n") + "\n")
		b.WriteString(strings.Join(s.trace, "\n") + "\n")
	}
	return a.String(), b.String()
}

func traceLustre(k *sim.Kernel) *lustre.FS {
	p := lustre.DefaultParams()
	p.JitterFrac = 0.2
	p.BackboneRate = 2e9
	p.ClientWriteLatency = 15e-6
	p.Seed = 7
	fs := lustre.New(k, p)
	if err := fs.SetStripe("/out/striped", 4, mib); err != nil {
		panic(err)
	}
	return fs
}

// TestBackendTraces pins Lustre's cost model to the nanosecond:
// testdata/trace_lustre.txt was printed by this scenario at 6ceed54. It
// runs on fresh storage and on the nodes and placements a larger file
// system released. The subtest is named for its trace file.
func TestBackendTraces(t *testing.T) {
	t.Run("lustre", func(t *testing.T) {
		file := filepath.Join("testdata", "trace_lustre.txt")
		want, err := os.ReadFile(file)
		for _, run := range []struct {
			name  string
			pools func()
		}{{"fresh", emptyPools}, {"recycled", dirtyPools}} {
			run.pools()
			k := sim.NewKernel()
			_, got := runScenario(k, traceLustre(k))
			if err == nil && got == string(want) {
				continue
			}
			gotFile := strings.TrimSuffix(file, ".txt") + ".got.txt"
			if werr := os.WriteFile(gotFile, []byte(got), 0o644); werr != nil {
				t.Logf("could not save diverging trace: %v", werr)
			}
			if err != nil {
				t.Fatalf("%v (trace saved to %s)", err, gotFile)
			}
			t.Fatalf("%s trace diverged from the 6ceed54 capture (saved to %s); first difference:\n%s", run.name, gotFile, firstDiff(got, string(want)))
		}
	})
}

// emptyPools empties the node and placement pools: a pool keeps at most
// what its last release gave, and a file system of no files gives none.
func emptyPools() { lustre.New(sim.NewKernel(), lustre.DefaultParams()).Release() }

// dirtyPools fills the node and placement pools with the full chunks of a
// file system of written, striped files.
func dirtyPools() {
	k := sim.NewKernel()
	fs := lustre.New(k, lustre.DefaultParams())
	if err := fs.SetStripe("/dirty", 4, mib); err != nil {
		panic(err)
	}
	k.Spawn("dirty", func(p *sim.Proc) {
		c := &pfs.Client{}
		for i := range 3000 {
			f, err := fs.Create(p, c, fmt.Sprintf("/dirty/f%d", i))
			if err != nil {
				panic(err)
			}
			f.WriteAt(p, c, 0, 3, []byte("abc"))
		}
	})
	k.Run()
	fs.Release()
}

func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d\n got: %s\nwant: %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("got %d lines, want %d", len(g), len(w))
}

// TestBackendConformance: the same scenario means the same thing on
// Lustre and through a burst tier over it — identical errors, sizes,
// listings and contents; only the times differ.
func TestBackendConformance(t *testing.T) {
	k := sim.NewKernel()
	ref, _ := runScenario(k, traceLustre(k))
	if strings.Contains(ref, "UNCLASSIFIED") {
		t.Fatalf("an error that is none of the pfs sentinels:\n%s", ref)
	}
	k = sim.NewKernel()
	tier := burst.NewTier(k, burst.Spec{CapacityBytes: 64 * mib, Rate: 5e9, PerOp: 10e-6}, traceLustre(k))
	if got, _ := runScenario(k, tier.FS()); got != ref {
		t.Errorf("burst+lustre disagrees with lustre on POSIX semantics; first difference:\n%s", firstDiff(got, ref))
	}

	// Spot-check the reference itself against POSIX, so the two cannot
	// agree on something wrong.
	for _, want := range []string{
		"A create /out/run/a.dat ok path=/out/run/a.dat size=0",
		"A stat /out/run/a.dat ok path=/out/run/a.dat size=8388608 dir=false",
		`A read /out/run/a.dat off=0 n=12 got=12 "hello, world"`,
		`A read /out/run/a.dat off=8388609 n=16 got=0 ""`,
		"A openappend /out/run/a.dat ok path=/out/run/a.dat size=8388608",
		"A openappend /out/run/new.log ok path=/out/run/new.log size=0",
		`A read /out/run/new.log off=0 n=64 got=14 "line 1\nline 2\n"`,
		"A readdir /out/run ok /out/run/a.dat:8388708:false /out/run/new.log:14:false /out/run/sub:0:true",
		"A stat /out/run/new.log err=pfs: no such file or directory: /out/run/new.log",
		`A read /out/run/a.dat off=0 n=12 got=3 "abc"`,
		"A open /out/run err=pfs: is a directory: /out/run",
		"A create /out/run/a.dat/x err=pfs: not a directory: /out/run/a.dat",
		"A unlink /out/run err=pfs: is a directory: /out/run",
		`B read /out/striped/b.dat off=1048573 n=6 got=6 "stripe"`,
	} {
		if !strings.Contains(ref, want+"\n") {
			t.Errorf("reference record lacks %q", want)
		}
	}
	if t.Failed() {
		t.Logf("reference record:\n%s", ref)
	}
}

// A read of a negative offset or length is pread's EINVAL on Lustre and
// through a burst tier over it: nothing returned, nothing served, no
// time spent — and a length that would overflow past the end is clipped
// like any other.
func TestReadRejectsNegativeRegion(t *testing.T) {
	check := func(name string, k *sim.Kernel, fs pfs.FileSystem) {
		k.Spawn("reader", func(p *sim.Proc) {
			c := &pfs.Client{}
			f, err := fs.Create(p, c, "/neg.dat")
			if err != nil {
				t.Errorf("%s: %v", name, err)
				return
			}
			f.WriteAt(p, c, 0, 5, []byte("hello"))
			f.ReadAt(p, c, 0, 1) // a burst tier drains before its first read
			before := p.Now()
			for _, r := range [][2]int64{{-1, 4}, {0, -1}, {-1 << 63, -1 << 63}, {1 << 62, 1 << 62}} {
				if got := f.ReadAt(p, c, r[0], r[1]); got != nil {
					t.Errorf("%s: ReadAt(%d, %d) returned %q", name, r[0], r[1], got)
				}
			}
			if p.Now() != before {
				t.Errorf("%s: rejected reads took %v", name, p.Now()-before)
			}
			if got := string(f.ReadAt(p, c, 2, 1<<63-1)); got != "llo" {
				t.Errorf("%s: ReadAt(2, MaxInt64) = %q, want %q", name, got, "llo")
			}
			f.Close(p, c)
		})
		k.Run()
	}
	k := sim.NewKernel()
	check("lustre", k, traceLustre(k))
	k = sim.NewKernel()
	tier := burst.NewTier(k, burst.Spec{CapacityBytes: 64 * mib, Rate: 5e9, PerOp: 10e-6}, traceLustre(k))
	check("burst+lustre", k, tier.FS())
}

// TestSharedHandle: the opens of one file share the handle its
// placement carries — a handle holds nothing an open owns — and its path
// is the clean one however the file was named; a file unlinked and
// created again is a new node with a handle of its own, and the old
// handle still names the old file's bytes.
func TestSharedHandle(t *testing.T) {
	t.Run("lustre", func(t *testing.T) {
		k := sim.NewKernel()
		fs := traceLustre(k)
		k.Spawn("r", func(p *sim.Proc) {
			c := &pfs.Client{}
			f1, err := fs.Create(p, c, "/d/f")
			if err != nil {
				t.Error(err)
				return
			}
			f1.WriteAt(p, c, 0, mib, nil)
			f2, err := fs.Open(p, c, "/d/./f")
			if err != nil {
				t.Error(err)
				return
			}
			f3, err := fs.OpenAppend(p, c, "//d/f")
			if err != nil {
				t.Error(err)
				return
			}
			if f1 != f2 || f2 != f3 {
				t.Errorf("three live opens of one file have distinct handles")
			}
			if f1.Path() != "/d/f" || f2.Path() != "/d/f" || f3.Path() != "/d/f" {
				t.Errorf("paths %q %q %q, want /d/f", f1.Path(), f2.Path(), f3.Path())
			}
			f2.Close(p, c)
			f3.Close(p, c)
			if err := fs.Unlink(p, c, "/d/f"); err != nil {
				t.Error(err)
				return
			}
			g, err := fs.Create(p, c, "/d/f")
			if err != nil {
				t.Error(err)
				return
			}
			g.WriteAt(p, c, 0, 2*mib, nil)
			if g == f1 {
				t.Errorf("a file created after an unlink shares the unlinked file's handle")
			}
			if f1.Size() != mib || g.Size() != 2*mib || f1.Path() != "/d/f" {
				t.Errorf("old handle: size %d path %q; new: size %d; want %d, /d/f, %d", f1.Size(), f1.Path(), g.Size(), mib, 2*mib)
			}
			f1.Close(p, c)
			g.Close(p, c)
		})
		k.Run()
	})
}
