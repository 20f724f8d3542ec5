package posix

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"picmcio/internal/lustre"
	"picmcio/internal/pfs"
	"picmcio/internal/sim"
)

type opLog struct {
	ops   []Op
	bytes []int64
}

func (m *opLog) Record(rank int, op Op, path string, bytes int64, start, end sim.Time) {
	m.ops = append(m.ops, op)
	m.bytes = append(m.bytes, bytes)
}

func newEnv(t *testing.T) (*sim.Kernel, *Env, *opLog) {
	t.Helper()
	k := sim.NewKernel()
	fs := lustre.New(k, lustre.DefaultParams())
	mon := &opLog{}
	return k, &Env{FS: fs, Client: &pfs.Client{}, Rank: 0, Monitor: mon}, mon
}

func TestWriteAdvancesOffset(t *testing.T) {
	k, env, _ := newEnv(t)
	k.Spawn("r", func(p *sim.Proc) {
		fd, err := env.Create(p, "/f")
		if err != nil {
			t.Error(err)
			return
		}
		fd.Write(p, 100, nil)
		fd.Write(p, 50, nil)
		if fd.off != 150 {
			t.Errorf("offset=%d, want 150", fd.off)
		}
		if fd.Size() != 150 {
			t.Errorf("size=%d, want 150", fd.Size())
		}
		fd.Close(p)
	})
	k.Run()
}

func TestPwriteDoesNotMoveOffset(t *testing.T) {
	k, env, _ := newEnv(t)
	k.Spawn("r", func(p *sim.Proc) {
		fd, _ := env.Create(p, "/f")
		fd.Pwrite(p, 1000, 10, nil)
		if fd.off != 0 {
			t.Errorf("offset moved to %d", fd.off)
		}
		if fd.Size() != 1010 {
			t.Errorf("size=%d", fd.Size())
		}
		fd.Close(p)
	})
	k.Run()
}

func TestReadClipsAtEOF(t *testing.T) {
	k, env, _ := newEnv(t)
	k.Spawn("r", func(p *sim.Proc) {
		fd, _ := env.Create(p, "/f")
		fd.Write(p, 10, []byte("0123456789"))
		fd.off = 5
		got := fd.Read(p, 100)
		if string(got) != "56789" {
			t.Errorf("read %q", got)
		}
		if fd.off != 10 {
			t.Errorf("offset=%d, want 10 (clipped)", fd.off)
		}
		fd.Close(p)
	})
	k.Run()
}

// TestReadClipsAtStart: a read gets the bytes the file holds when it
// starts. What another process appends while it waits is not returned,
// not counted, and not skipped over: the next read returns it.
func TestReadClipsAtStart(t *testing.T) {
	k, env, mon := newEnv(t)
	k.Spawn("r", func(p *sim.Proc) {
		fd, _ := env.Create(p, "/f")
		fd.Write(p, 10, []byte("0123456789"))
		fd.off = 0
		k.Spawn("appender", func(q *sim.Proc) { fd.Pwrite(q, 10, 10, []byte("abcdefghij")) })
		for _, want := range []string{"0123456789", "abcdefghij"} {
			reads, off := len(mon.ops), fd.off
			got := fd.Read(p, 100)
			if string(got) != want {
				t.Errorf("read %q, want %q", got, want)
			}
			i := slices.Index(mon.ops[reads:], OpRead)
			if i < 0 || mon.bytes[reads+i] != int64(len(got)) || fd.off-off != int64(len(got)) {
				t.Errorf("read %d bytes, monitor %v, offset moved %d", len(got), mon.bytes[reads:], fd.off-off)
			}
		}
		fd.Close(p)
	})
	k.Run()
}

func TestMonitorSeesEveryOp(t *testing.T) {
	k, env, mon := newEnv(t)
	k.Spawn("r", func(p *sim.Proc) {
		env.MkdirAll(p, "/d")
		fd, _ := env.Create(p, "/d/f")
		fd.Write(p, 8, nil)
		fd.Fsync(p)
		fd.Close(p)
		env.Stat(p, "/d/f")
		env.Unlink(p, "/d/f")
	})
	k.Run()
	want := []Op{OpMkdir, OpCreate, OpWrite, OpFsync, OpClose, OpStat, OpUnlink}
	if len(mon.ops) != len(want) {
		t.Fatalf("ops=%v", mon.ops)
	}
	for i, op := range want {
		if mon.ops[i] != op {
			t.Fatalf("op %d = %v, want %v", i, mon.ops[i], op)
		}
	}
}

func TestOpClassification(t *testing.T) {
	if OpWrite.IsMeta() || OpRead.IsMeta() {
		t.Fatal("read/write misclassified as metadata")
	}
	for _, op := range []Op{OpOpen, OpCreate, OpSeek, OpStat, OpFsync, OpClose, OpUnlink, OpMkdir} {
		if !op.IsMeta() {
			t.Fatalf("%v should be metadata", op)
		}
	}
}

// openWriteClose is the allocations per file of a world whose one process
// creates each of paths in turn into a descriptor it holds, writes 4 KiB
// and closes it, counted as the difference between worlds of 110 and of 10
// files, so the kernel's and the file system's setup cancel out.
func openWriteClose(t *testing.T, paths func(i int) string) float64 {
	t.Helper()
	world := func(n int) float64 {
		return testing.AllocsPerRun(5, func() {
			k := sim.NewKernel()
			env := &Env{FS: lustre.New(k, lustre.DefaultParams()), Client: &pfs.Client{}}
			k.Spawn("r", func(p *sim.Proc) {
				var fd FD
				for i := 0; i < n; i++ {
					if err := env.OpenFD(&fd, p, paths(i), Truncate); err != nil {
						t.Error(err)
						return
					}
					fd.Write(p, 4096, nil)
					fd.Close(p)
				}
			})
			k.Run()
		})
	}
	return (world(110) - world(10)) / 100
}

// TestCreateWriteCloseAllocs pins what create + 4 KiB volume write + close
// costs on default Lustre, so neither per-layer path re-cleaning nor a
// per-open or per-write allocation can creep back. Re-creating a file —
// what every rank of a file-per-process writer does at each epoch —
// allocates nothing: the handle is the node's and the truncated layout is
// recycled. A new file is its node and its layout with its one stripe
// object, and whatever its directory grows by, amortised. When every layer
// normalised the path again a re-create was 33 objects, 28 of them path
// cleaning; with a handle per open and a layout per create it was 3.
func TestCreateWriteCloseAllocs(t *testing.T) {
	const path = "/scratch/bit1/bit1_000001.dat"
	if per := openWriteClose(t, func(int) string { return path }); per >= 0.5 {
		t.Errorf("re-create+write+close allocates %.2f objects, want 0", per)
	} else {
		t.Logf("re-create+write+close allocates %.2f objects", per)
	}
	names := make([]string, 110)
	for i := range names {
		names[i] = fmt.Sprintf("/scratch/bit1/bit1_%06d.dat", i)
	}
	if per := openWriteClose(t, func(i int) string { return names[i] }); per >= 2.5 {
		t.Errorf("create+write+close of a new file allocates %.2f objects, want 2 (and whatever grows amortised)", per)
	} else {
		t.Logf("create+write+close of a new file allocates %.2f objects", per)
	}
}

// callLog keeps every monitored call, per rank, in the order the rank made
// them: a Darshan record — every counter and F-counter — is a function of
// its (rank, path)'s calls in that order.
type callLog map[int][]call

type call struct {
	op         Op
	path       string
	bytes      int64
	start, end sim.Time
}

func (m callLog) Record(rank int, op Op, path string, bytes int64, start, end sim.Time) {
	m[rank] = append(m[rank], call{op, path, bytes, start, end})
}

// plainFS hides lustre's pfs.WriteBooker: its files are only pfs.File.
type plainFS struct{ pfs.FileSystem }

type plainFile struct{ pfs.File }

func (f plainFS) Create(p *sim.Proc, c *pfs.Client, path string) (pfs.File, error) {
	file, err := f.FileSystem.Create(p, c, path)
	if err != nil {
		return nil, err
	}
	return plainFile{file}, nil
}

// TestWritePauseMatchesWriteThenSleep: WritePause on a file that books its
// writes is one wait where Write then Sleep is two, and nothing else
// tells them apart. Six ranks on two nodes' NICs, sharing Lustre's OSTs,
// each write a file in chunks of their own size with a pause of their own
// (two of them none) before a short last write and a close. Through
// lustre and through a file system hiding BookWriteAt, each rank's
// monitored calls — operation, bytes, start and end — and its end time
// are the same, each write moves the offset past it, and the folded
// world takes fewer queued events.
func TestWritePauseMatchesWriteThenSleep(t *testing.T) {
	type world struct {
		calls callLog
		ends  []sim.Time
		stats sim.KernelStats
	}
	run := func(hide bool) world {
		k := sim.NewKernel()
		var fs pfs.FileSystem = lustre.New(k, lustre.DefaultParams())
		if hide {
			fs = plainFS{fs}
		}
		nics := []*pfs.Client{
			{Node: 0, NIC: sim.NewServer(k, 2e9, 0)},
			{Node: 1, NIC: sim.NewServer(k, 2e9, 0)},
		}
		w := world{calls: callLog{}, ends: make([]sim.Time, 6)}
		for rank := range w.ends {
			env := &Env{FS: fs, Client: nics[rank%2], Rank: rank, Monitor: w.calls}
			chunk := int64(64<<10) << (rank % 3)
			pause := sim.Duration(rank%4) * 3e-4
			k.Spawn("r", func(p *sim.Proc) {
				fd, err := env.Create(p, fmt.Sprintf("/out/r%d", rank))
				if err != nil {
					t.Error(err)
					return
				}
				for i := range 8 {
					fd.WritePause(p, chunk, nil, pause)
					if fd.off != int64(i+1)*chunk || fd.Size() < fd.off {
						t.Errorf("rank %d: after %d writes offset %d, size %d", rank, i+1, fd.off, fd.Size())
					}
				}
				fd.Write(p, 100, nil)
				fd.Close(p)
				w.ends[rank] = p.Now()
			})
		}
		k.Run()
		w.stats = k.Stats()
		return w
	}
	folded, plain := run(false), run(true)
	if !reflect.DeepEqual(folded.calls, plain.calls) {
		for rank := range folded.ends {
			if !reflect.DeepEqual(folded.calls[rank], plain.calls[rank]) {
				t.Errorf("rank %d: folded calls %v, write then sleep %v", rank, folded.calls[rank], plain.calls[rank])
			}
		}
	}
	if !reflect.DeepEqual(folded.ends, plain.ends) {
		t.Errorf("end times: folded %v, write then sleep %v", folded.ends, plain.ends)
	}
	if len(folded.calls[0]) != 1+8+1+1 {
		t.Errorf("rank 0 made %d calls, want 11", len(folded.calls[0]))
	}
	if f, w := folded.stats.QueueEvents, plain.stats.QueueEvents; f >= w {
		t.Errorf("queued events: folded %d, write then sleep %d; want fewer", f, w)
	} else {
		t.Logf("queued events: folded %d, write then sleep %d", f, w)
	}
}

// TestWritePauseContent: with data, WritePause lands the bytes at the
// descriptor's offset and moves it, as Write does.
func TestWritePauseContent(t *testing.T) {
	k, env, mon := newEnv(t)
	k.Spawn("r", func(p *sim.Proc) {
		fd, _ := env.Create(p, "/f")
		fd.WritePause(p, 4, []byte("abcd"), 1e-3)
		fd.WritePause(p, 2, []byte("ef"), 0)
		fd.off = 0
		if got := fd.Read(p, 10); string(got) != "abcdef" {
			t.Errorf("read %q, want abcdef", got)
		}
		fd.Close(p)
	})
	k.Run()
	if want := []Op{OpCreate, OpWrite, OpWrite, OpRead, OpClose}; !reflect.DeepEqual(mon.ops, want) {
		t.Errorf("ops %v, want %v", mon.ops, want)
	}
}
