package darshan

import (
	"bytes"
	"strings"
	"testing"

	"picmcio/internal/lustre"
	"picmcio/internal/pfs"
	"picmcio/internal/posix"
	"picmcio/internal/sim"
)

// runInstrumented performs a small instrumented workload and returns the
// resulting log.
func runInstrumented(t *testing.T) *Log {
	t.Helper()
	k := sim.NewKernel()
	fs := lustre.New(k, lustre.DefaultParams())
	col := NewCollector()
	for rank := 0; rank < 4; rank++ {
		rank := rank
		k.Spawn("r", func(p *sim.Proc) {
			env := &posix.Env{FS: fs, Client: &pfs.Client{}, Rank: rank, Monitor: col}
			fd, err := env.Create(p, pfs.Join("/out", "file", string(rune('a'+rank))))
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < 10; i++ {
				fd.Write(p, 4096, nil)
			}
			fd.Fsync(p)
			fd.Close(p)
			rd, err := env.Open(p, fd.Path())
			if err != nil {
				t.Error(err)
				return
			}
			rd.Read(p, 1024)
			rd.Close(p)
		})
	}
	k.Run()
	return col.Snapshot(JobMeta{Executable: "test", NProcs: 4, Machine: "testbox", RunSeconds: float64(k.Now())})
}

func TestCountersAccumulate(t *testing.T) {
	l := runInstrumented(t)
	if got := l.TotalBytesWritten(); got != 4*10*4096 {
		t.Fatalf("bytes written=%d, want %d", got, 4*10*4096)
	}
	if got := l.TotalBytesRead(); got != 4*1024 {
		t.Fatalf("bytes read=%d", got)
	}
	// 4 ranks × 1 file, each opened twice (create + reopen) → 4 records
	// with OPENS=2.
	if len(l.Records) != 4 {
		t.Fatalf("records=%d, want 4", len(l.Records))
	}
	for _, r := range l.Records {
		if r.Counters[POSIX_OPENS] != 2 {
			t.Errorf("rank %d opens=%d, want 2", r.Rank, r.Counters[POSIX_OPENS])
		}
		if r.Counters[POSIX_WRITES] != 10 {
			t.Errorf("rank %d writes=%d", r.Rank, r.Counters[POSIX_WRITES])
		}
		if r.Counters[POSIX_FSYNCS] != 1 {
			t.Errorf("rank %d fsyncs=%d", r.Rank, r.Counters[POSIX_FSYNCS])
		}
		if r.Counters[POSIX_SIZE_WRITE_1K_10K] != 10 {
			t.Errorf("rank %d histogram=%v", r.Rank, r.Counters)
		}
		if r.FCount[POSIX_F_WRITE_TIME] <= 0 {
			t.Errorf("rank %d has zero write time", r.Rank)
		}
		if r.FCount[POSIX_F_META_TIME] <= 0 {
			t.Errorf("rank %d has zero meta time", r.Rank)
		}
	}
}

func TestThroughputEstimators(t *testing.T) {
	l := runInstrumented(t)
	if tp := l.WriteThroughputByElapsed(); tp <= 0 {
		t.Fatalf("elapsed throughput=%v", tp)
	}
	if tp := l.WriteThroughputBySlowest(); tp <= 0 {
		t.Fatalf("slowest throughput=%v", tp)
	}
}

func TestPerProcessTimes(t *testing.T) {
	l := runInstrumented(t)
	r, m, w := l.PerProcessTimes()
	if r <= 0 || m <= 0 || w <= 0 {
		t.Fatalf("times r=%v m=%v w=%v, want all positive", r, m, w)
	}
}

func TestEncodeParseRoundTrip(t *testing.T) {
	l := runInstrumented(t)
	var buf bytes.Buffer
	if err := l.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != len(l.Records) {
		t.Fatalf("records %d != %d", len(got.Records), len(l.Records))
	}
	if got.TotalBytesWritten() != l.TotalBytesWritten() {
		t.Fatal("byte totals differ after round trip")
	}
	if got.Meta.Version != l.Meta.Version {
		t.Fatal("meta differs")
	}
}

func TestParseRejectsJunk(t *testing.T) {
	if _, err := Parse(strings.NewReader("not a log")); err == nil {
		t.Fatal("expected error")
	}
}

func TestFileSummaries(t *testing.T) {
	l := runInstrumented(t)
	sums := l.FileSummaries()
	if len(sums) != 4 {
		t.Fatalf("files=%d, want 4", len(sums))
	}
	for _, s := range sums {
		if s.BytesWritten != 10*4096 || s.Writers != 1 {
			t.Errorf("summary %+v", s)
		}
	}
	// Sorted by path.
	for i := 1; i < len(sums); i++ {
		if sums[i-1].Path >= sums[i].Path {
			t.Fatal("summaries not sorted")
		}
	}
}

func TestReportContainsKeyLines(t *testing.T) {
	rep := runInstrumented(t).Report()
	for _, want := range []string{
		"total_POSIX_BYTES_WRITTEN", "agg_perf_by_slowest",
		"avg_per_process_meta_time", "POSIX_SIZE_WRITE_1K_10K",
	} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
}

func TestWriteWindow(t *testing.T) {
	l := runInstrumented(t)
	s, e, ok := l.WriteWindow()
	if !ok || e <= s {
		t.Fatalf("window [%v,%v] ok=%v", s, e, ok)
	}
}

func TestSharedFileAggregation(t *testing.T) {
	// Two ranks writing the same path yield two records, one file summary
	// with Writers == 2.
	col := NewCollector()
	col.Record(0, posix.OpWrite, "/shared", 100, 0, 1)
	col.Record(1, posix.OpWrite, "/shared", 200, 0, 2)
	l := col.Snapshot(JobMeta{})
	sums := l.FileSummaries()
	if len(sums) != 1 || sums[0].Writers != 2 || sums[0].BytesWritten != 300 {
		t.Fatalf("sums=%+v", sums)
	}
}

// TestOneFileOneRecord: a file is one record however its path is spelled.
// posix normalises the path where it enters, so the open, every descriptor
// operation and a failed open all land on the normalised name. (Before,
// the open was recorded under the path as given and the writes under the
// cleaned one: two records, one with OPENS=1 WRITES=0 and one with
// OPENS=0 WRITES=1.)
func TestOneFileOneRecord(t *testing.T) {
	k := sim.NewKernel()
	fs := lustre.New(k, lustre.DefaultParams())
	col := NewCollector()
	k.Spawn("r", func(p *sim.Proc) {
		env := &posix.Env{FS: fs, Client: &pfs.Client{}, Monitor: col}
		if err := env.MkdirAll(p, "/out/"); err != nil {
			t.Error(err)
		}
		fd, err := env.Create(p, "/out//x.dat")
		if err != nil {
			t.Error(err)
			return
		}
		fd.Write(p, 4096, nil)
		fd.Close(p)
		if _, err := env.Stat(p, "/out/./x.dat"); err != nil {
			t.Error(err)
		}
		ap, err := env.OpenAppend(p, "out/x.dat")
		if err != nil {
			t.Error(err)
			return
		}
		ap.Write(p, 4096, nil)
		ap.Close(p)
		if err := env.Unlink(p, "/out/sub/../x.dat"); err != nil {
			t.Error(err)
		}
		if _, err := env.Open(p, "/nope/../missing"); err == nil || !strings.HasSuffix(err.Error(), ": /missing") {
			t.Errorf("open of a missing file: err=%v, want one naming /missing", err)
		}
	})
	k.Run()
	l := col.Snapshot(JobMeta{NProcs: 1})
	want := map[string][3]int64{ // opens, writes, stats
		"/out":       {0, 0, 0},
		"/out/x.dat": {2, 2, 1},
		"/missing":   {1, 0, 0},
	}
	if len(l.Records) != len(want) {
		t.Errorf("records=%d, want %d", len(l.Records), len(want))
	}
	for _, r := range l.Records {
		w, ok := want[r.Path]
		got := [3]int64{r.Counters[POSIX_OPENS], r.Counters[POSIX_WRITES], r.Counters[POSIX_STATS]}
		if !ok || got != w {
			t.Errorf("record %q: opens/writes/stats=%v, want %v (known path: %t)", r.Path, got, w, ok)
		}
	}
}
