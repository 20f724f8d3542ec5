package stdio

import (
	"testing"

	"picmcio/internal/lustre"
	"picmcio/internal/pfs"
	"picmcio/internal/posix"
	"picmcio/internal/sim"
)

type countWrites struct {
	writes []int64
}

func (m *countWrites) Record(rank int, op posix.Op, path string, bytes int64, start, end sim.Time) {
	if op == posix.OpWrite {
		m.writes = append(m.writes, bytes)
	}
}

func setup(t *testing.T) (*sim.Kernel, *posix.Env, *countWrites) {
	t.Helper()
	k := sim.NewKernel()
	fs := lustre.New(k, lustre.DefaultParams())
	mon := &countWrites{}
	return k, &posix.Env{FS: fs, Client: &pfs.Client{}, Monitor: mon}, mon
}

func TestBufferingCoalescesSmallWrites(t *testing.T) {
	k, env, mon := setup(t)
	k.Spawn("r", func(p *sim.Proc) {
		f, err := Fopen(p, env, "/diag.dat", "w")
		if err != nil {
			t.Error(err)
			return
		}
		// 100 writes of 100 bytes: 10 000 bytes through a 4 KiB buffer
		// → two full 4 KiB flushes while writing, remainder at close.
		for i := 0; i < 100; i++ {
			f.Fwrite(p, 100, nil)
		}
		f.Fclose(p)
	})
	k.Run()
	if len(mon.writes) != 3 {
		t.Fatalf("POSIX writes=%v, want 3 flushes", mon.writes)
	}
	if mon.writes[0] != DefaultBufSize || mon.writes[1] != DefaultBufSize {
		t.Fatalf("flush sizes=%v", mon.writes)
	}
	var total int64
	for _, w := range mon.writes {
		total += w
	}
	if total != 10000 {
		t.Fatalf("total flushed=%d", total)
	}
}

func TestFwriteContent(t *testing.T) {
	k, env, _ := setup(t)
	var got string
	k.Spawn("r", func(p *sim.Proc) {
		f, _ := Fopen(p, env, "/t.txt", "w")
		f.Fwrite(p, 15, []byte("step=42 t=1.50\n"))
		f.Fclose(p)
		r, err := Fopen(p, env, "/t.txt", "r")
		if err != nil {
			t.Error(err)
			return
		}
		got = string(r.fd.Read(p, 1024))
		r.Fclose(p)
	})
	k.Run()
	if got != "step=42 t=1.50\n" {
		t.Fatalf("content=%q", got)
	}
}

func TestAppendMode(t *testing.T) {
	k, env, _ := setup(t)
	var size int64
	k.Spawn("r", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			f, _ := Fopen(p, env, "/a.log", "a")
			f.Fwrite(p, 500, nil)
			f.Fclose(p)
		}
		fd, _ := env.Stat(p, "/a.log")
		size = fd.Size
	})
	k.Run()
	if size != 1500 {
		t.Fatalf("size=%d, want 1500", size)
	}
}

func TestSetBufSize(t *testing.T) {
	k, env, mon := setup(t)
	k.Spawn("r", func(p *sim.Proc) {
		f, _ := Fopen(p, env, "/b", "w")
		f.SetBufSize(1024)
		f.Fwrite(p, 4096, nil)
		f.Fclose(p)
	})
	k.Run()
	if len(mon.writes) != 4 {
		t.Fatalf("writes=%v, want 4 × 1 KiB", mon.writes)
	}
}

func TestBadModeRejected(t *testing.T) {
	k, env, _ := setup(t)
	k.Spawn("r", func(p *sim.Proc) {
		if _, err := Fopen(p, env, "/x", "rw+"); err == nil {
			t.Error("mode rw+ accepted")
		}
	})
	k.Run()
}

func TestFflushDrains(t *testing.T) {
	k, env, mon := setup(t)
	k.Spawn("r", func(p *sim.Proc) {
		f, _ := Fopen(p, env, "/f", "w")
		f.Fwrite(p, 100, nil)
		if f.buf != 100 {
			t.Errorf("buffered=%d", f.buf)
		}
		f.Fflush(p)
		if f.buf != 0 {
			t.Errorf("buffered after flush=%d", f.buf)
		}
		f.Fclose(p)
	})
	k.Run()
	if len(mon.writes) != 1 || mon.writes[0] != 100 {
		t.Fatalf("writes=%v", mon.writes)
	}
}

// TestRecreateAllocs: re-creating a file through a stream the caller holds
// by value — BIT1's per-epoch .dat and .dmp — allocates nothing in stdio,
// posix or the file system, and each Open starts the stream afresh.
func TestRecreateAllocs(t *testing.T) {
	world := func(n int) float64 {
		return testing.AllocsPerRun(5, func() {
			k := sim.NewKernel()
			env := &posix.Env{FS: lustre.New(k, lustre.DefaultParams()), Client: &pfs.Client{}}
			k.Spawn("r", func(p *sim.Proc) {
				var f File
				for i := 0; i < n; i++ {
					if err := f.Open(p, env, "/out/bit1_000001.dmp", "w"); err != nil {
						t.Error(err)
						return
					}
					if f.bufSize != DefaultBufSize || f.buf != 0 || f.overhead != 0 {
						t.Errorf("re-opened stream kept state: bufSize=%d buf=%d overhead=%v", f.bufSize, f.buf, f.overhead)
					}
					f.SetBufSize(1024)
					f.SetWriteOverhead(1e-6)
					f.Fwrite(p, 8192+100, nil)
					f.Fclose(p)
				}
			})
			k.Run()
		})
	}
	if per := (world(110) - world(10)) / 100; per >= 0.5 {
		t.Errorf("stdio re-create+write+close allocates %.2f objects, want 0", per)
	} else {
		t.Logf("stdio re-create+write+close allocates %.2f objects", per)
	}
}
