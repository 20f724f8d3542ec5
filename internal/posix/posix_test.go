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

// writePauseSwitched is WritePause of one chunk on a file that books its
// writes as it was before the kernel ran continuations, kept as the
// oracle: the caller books the write and sleeps until its end and the
// pause, a switch to the run loop and back a chunk.
func writePauseSwitched(p *sim.Proc, fd *FD, n int64, pause sim.Duration) {
	start := p.Now()
	end := max(fd.f.(pfs.WriteBooker).BookWriteAt(p, fd.env.Client, fd.off, n, nil), start)
	fd.off += n
	fd.env.record(OpWrite, fd.path, n, start, end)
	p.SleepUntil(end + max(pause, 0))
}

// The three ways a rank of TestWritePauseMatchesWriteThenSleep writes its
// chunks.
const (
	continued = iota // WritePause's continuation on lustre
	switched         // writePauseSwitched on lustre, a chunk at a time
	plain            // WritePause through a file system hiding BookWriteAt
)

// TestWritePauseMatchesWriteThenSleep: WritePause on a file that books its
// writes is one wait a chunk where Write then Sleep is two, its chunks
// after the first run as kernel steps where the switch path resumes the
// caller for each, and nothing else tells the three apart. Six ranks on
// two nodes' NICs, sharing Lustre's OSTs, each write a file in 8 chunks
// of their own size with a pause of their own (two of them none) before a
// short last write and a close. Each rank's monitored calls — operation,
// bytes, start and end — and its end time are the same every way, the
// offset ends past every write, the continuation delivers as many events
// as the switch path, and each takes fewer switches than the one before.
func TestWritePauseMatchesWriteThenSleep(t *testing.T) {
	const chunks = 8
	type world struct {
		calls callLog
		ends  []sim.Time
		stats sim.KernelStats
	}
	run := func(way int) world {
		k := sim.NewKernel()
		var fs pfs.FileSystem = lustre.New(k, lustre.DefaultParams())
		if way == plain {
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
				if way == switched {
					for range chunks {
						writePauseSwitched(p, fd, chunk, pause)
					}
				} else {
					fd.WritePause(p, chunks, chunk, nil, pause)
				}
				if fd.off != chunks*chunk || fd.Size() < fd.off {
					t.Errorf("rank %d: after %d writes offset %d, size %d", rank, chunks, fd.off, fd.Size())
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
	worlds := []world{run(continued), run(switched), run(plain)}
	names := []string{"continued", "switched", "write then sleep"}
	for i, w := range worlds[1:] {
		if !reflect.DeepEqual(worlds[0].calls, w.calls) {
			for rank := range w.ends {
				if !reflect.DeepEqual(worlds[0].calls[rank], w.calls[rank]) {
					t.Errorf("rank %d: continued calls %v, %s %v", rank, worlds[0].calls[rank], names[i+1], w.calls[rank])
				}
			}
		}
		if !reflect.DeepEqual(worlds[0].ends, w.ends) {
			t.Errorf("end times: continued %v, %s %v", worlds[0].ends, names[i+1], w.ends)
		}
	}
	if len(worlds[0].calls[0]) != 1+chunks+1+1 {
		t.Errorf("rank 0 made %d calls, want 11", len(worlds[0].calls[0]))
	}
	if c, s := worlds[0].stats, worlds[1].stats; c.Events() != s.Events() || c.StepEvents == 0 {
		t.Errorf("events: continued %+v, switched %+v; want as many, some of them steps", c, s)
	}
	for i := range 2 {
		if a, b := worlds[i].stats.QueueEvents, worlds[i+1].stats.QueueEvents; a >= b {
			t.Errorf("switches: %s %d, %s %d; want fewer", names[i], a, names[i+1], b)
		} else {
			t.Logf("switches: %s %d, %s %d", names[i], a, names[i+1], b)
		}
	}
}

// freeWriteSteps counts the records on the write steps' free list.
func freeWriteSteps() int {
	writeSteps.Lock()
	defer writeSteps.Unlock()
	n := 0
	for w := writeSteps.free; w != nil; w = w.free {
		n++
	}
	return n
}

// TestWritePauseKilled: a rank killed between two of WritePause's steps
// dies there, as in a sleep: its deferred functions run, its descriptor's
// offset is past the writes it made, which are all the monitor saw, and
// its step record is back on the free list.
func TestWritePauseKilled(t *testing.T) {
	k, env, mon := newEnv(t)
	free := freeWriteSteps()
	var off int64
	victim := k.Spawn("r", func(p *sim.Proc) {
		var fd FD
		if err := env.OpenFD(&fd, p, "/f", Truncate); err != nil {
			t.Error(err)
			return
		}
		defer func() { off = fd.off }()
		fd.WritePause(p, 100, 1<<20, nil, 1)
		t.Error("a killed WritePause returned")
	})
	k.Spawn("killer", func(p *sim.Proc) {
		p.Sleep(3.5)
		k.Kill(victim)
	})
	k.Run()
	if want := []Op{OpCreate, OpWrite, OpWrite, OpWrite, OpWrite}; !reflect.DeepEqual(mon.ops, want) {
		t.Errorf("ops %v, want %v", mon.ops, want)
	}
	if off != 4<<20 {
		t.Errorf("offset %d after 4 writes of 1 MiB", off)
	}
	want := free
	if free == 0 {
		want = writeStepSlab // the one taken came from a new slab
	}
	if got := freeWriteSteps(); got != want {
		t.Errorf("%d write steps free after the kill, want %d (%d before)", got, want, free)
	}
}

// TestWritePauseContent: with data, WritePause lands each chunk at the
// descriptor's offset and moves it, as Write does, in-line or stepped.
func TestWritePauseContent(t *testing.T) {
	k, env, mon := newEnv(t)
	k.Spawn("r", func(p *sim.Proc) {
		fd, _ := env.Create(p, "/f")
		fd.WritePause(p, 1, 4, []byte("abcd"), 1e-3)
		fd.WritePause(p, 3, 2, []byte("efghij"), 0)
		fd.off = 0
		if got := fd.Read(p, 20); string(got) != "abcdefghij" {
			t.Errorf("read %q, want abcdefghij", got)
		}
		fd.Close(p)
	})
	k.Run()
	if want := []Op{OpCreate, OpWrite, OpWrite, OpWrite, OpWrite, OpRead, OpClose}; !reflect.DeepEqual(mon.ops, want) {
		t.Errorf("ops %v, want %v", mon.ops, want)
	}
}
