package darshan

import (
	"bytes"
	"cmp"
	"compress/gzip"
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"strings"
	"testing"

	"picmcio/internal/lustre"
	"picmcio/internal/pfs"
	"picmcio/internal/posix"
	"picmcio/internal/sim"
)

// runInstrumented performs a small instrumented workload and returns the
// resulting log.
func runInstrumented(t testing.TB) *Log {
	t.Helper()
	k := sim.NewKernel()
	fs := lustre.New(k, lustre.DefaultParams())
	col := NewCollector()
	for rank := 0; rank < 4; rank++ {
		rank := rank
		k.Spawn("r", func(p *sim.Proc) {
			env := &posix.Env{FS: fs, Client: &pfs.Client{}, Rank: rank, Monitor: col}
			path := pfs.Join("/out", "file", string(rune('a'+rank)))
			fd, err := env.Create(p, path)
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < 10; i++ {
				fd.Write(p, 4096, nil)
			}
			fd.Fsync(p)
			fd.Close(p)
			rd, err := env.Open(p, path)
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

	// A log that does not say how many processes ran averages over the
	// ranks that appear in it — and a hand-built one need not be in rank
	// order: three distinct ranks here, ranks 2 and 0 each split in two.
	rec := func(rank int, path string, read, meta, write float64) Record {
		r := Record{Rank: rank, Path: path}
		r.Counters[POSIX_BYTES_WRITTEN] = 36
		r.FCount[POSIX_F_READ_TIME], r.FCount[POSIX_F_META_TIME], r.FCount[POSIX_F_WRITE_TIME] = read, meta, write
		return r
	}
	hand := &Log{Records: []Record{
		rec(2, "/b", 1, 2, 4), rec(0, "/a", 1, 2, 4), rec(7, "/a", 1, 2, 4),
		rec(2, "/a", 1, 2, 4), rec(0, "/b.inp", 1, 2, 4), rec(0, "/c", 1, 2, 4),
	}}
	before := slices.Clone(hand.Records)
	if r, m, w := hand.PerProcessTimes(); r != 2 || m != 4 || w != 8 {
		t.Errorf("unsorted log without NProcs: r=%v m=%v w=%v, want 2 4 8 (six records over three ranks)", r, m, w)
	}
	notInp := func(r *Record) bool { return !strings.HasSuffix(r.Path, ".inp") }
	if r, _, _ := hand.Filter(func(r *Record) bool { return !notInp(r) }).PerProcessTimes(); r != 1 {
		t.Errorf("one kept record of one rank: read=%v, want 1", r)
	}
	if r, m, w := hand.Filter(notInp).PerProcessTimes(); r != 5.0/3 || m != 10.0/3 || w != 20.0/3 {
		t.Errorf("five kept records over three ranks: r=%v m=%v w=%v", r, m, w)
	}
	// Rank 0 is slowest with three records of write+meta 6 each; 36 bytes
	// written apiece makes 216 bytes over 18 s.
	if tp := hand.WriteThroughputBySlowest(); tp != 12 {
		t.Errorf("unsorted log: throughput by slowest=%v, want 12", tp)
	}
	if !reflect.DeepEqual(hand.Records, before) {
		t.Error("a reduction reordered the log it was given")
	}
	hand.Meta.NProcs = 12
	if r, m, w := hand.PerProcessTimes(); r != 0.5 || m != 1 || w != 2 {
		t.Errorf("NProcs=12: r=%v m=%v w=%v, want 0.5 1 2", r, m, w)
	}
}

// TestSnapshotIsACopy: recording may go on after a Snapshot without the
// log it returned moving, and the next Snapshot has everything, in order.
func TestSnapshotIsACopy(t *testing.T) {
	col := NewCollector()
	col.Record(1, posix.OpWrite, "/b", 100, 0, 1)
	col.Record(0, posix.OpWrite, "/a", 100, 0, 1)
	first := col.Snapshot(JobMeta{NProcs: 2})
	frozen := slices.Clone(first.Records)

	col.Record(1, posix.OpWrite, "/b", 50, 1, 2) // an existing key
	col.Record(1, posix.OpWrite, "/a", 25, 2, 3) // new keys
	col.Record(0, posix.OpCreate, "/z", 0, 3, 4)
	second := col.Snapshot(JobMeta{NProcs: 2})

	if !reflect.DeepEqual(first.Records, frozen) {
		t.Errorf("first snapshot changed under later records:\n got %+v\nwant %+v", first.Records, frozen)
	}
	var got []string
	for _, r := range second.Records {
		got = append(got, fmt.Sprintf("%d%s:%d", r.Rank, r.Path, r.Counters[POSIX_BYTES_WRITTEN]))
	}
	if want := []string{"0/a:100", "0/z:0", "1/a:25", "1/b:150"}; !slices.Equal(got, want) {
		t.Errorf("second snapshot %v, want %v", got, want)
	}
}

// TestCollectorIndex: the by-rank index finds a record again whether it is
// among a rank's first few files or past them, for ranks far apart, and
// the snapshot is in (rank, path) order across both; a rank of BIT1's
// three files costs the collector no object of its own.
func TestCollectorIndex(t *testing.T) {
	col := NewCollector()
	files := []string{"/g", "/c", "/e", "/a", "/f", "/b", "/d"} // more than a rank's few
	ranks := []int{3 * rankBlock, 0, rankBlock + 7}
	for round := 1; round <= 2; round++ {
		for _, rank := range ranks {
			for _, f := range files {
				col.Record(rank, posix.OpWrite, f, int64(round), 0, 1)
			}
		}
	}
	var got []string
	for _, r := range col.Snapshot(JobMeta{}).Records {
		if r.Counters[POSIX_WRITES] != 2 || r.Counters[POSIX_BYTES_WRITTEN] != 3 {
			t.Errorf("rank %d %s: %d writes of %d bytes, want 2 of 3", r.Rank, r.Path, r.Counters[POSIX_WRITES], r.Counters[POSIX_BYTES_WRITTEN])
		}
		got = append(got, fmt.Sprintf("%d%s", r.Rank, r.Path))
	}
	var want []string
	for _, rank := range []int{0, rankBlock + 7, 3 * rankBlock} {
		for _, f := range []string{"/a", "/b", "/c", "/d", "/e", "/f", "/g"} {
			want = append(want, fmt.Sprintf("%d%s", rank, f))
		}
	}
	if !slices.Equal(got, want) {
		t.Errorf("snapshot order %v, want %v", got, want)
	}

	const n = 4 * rankBlock
	paths := [3]string{"/in", "/dat", "/dmp"}
	perRank := testing.AllocsPerRun(3, func() {
		col := NewCollector()
		for rank := 0; rank < n; rank++ {
			for _, f := range paths {
				col.Record(rank, posix.OpWrite, f, 1, 0, 1)
			}
		}
	}) / n
	if perRank > 0.1 {
		t.Errorf("the collector allocates %.2f objects per rank of three files, want blocks only (< 0.1)", perRank)
	}
}

// TestSnapshotAllocs: a snapshot is the log and one Records slice of
// exactly the collector's size — no append growth, no sort scratch.
func TestSnapshotAllocs(t *testing.T) {
	const n = 10000
	col := NewCollector()
	for i := 0; i < n; i++ {
		col.Record(i%100, posix.OpWrite, fmt.Sprintf("/f%05d", i), 1, 0, 1)
	}
	var l *Log
	if a := testing.AllocsPerRun(3, func() { l = col.Snapshot(JobMeta{}) }); a > 4 {
		t.Errorf("Snapshot of %d records allocates %.0f objects, want <= 4", n, a)
	}
	if len(l.Records) != n || cap(l.Records) != n {
		t.Errorf("Records len %d cap %d, want both %d", len(l.Records), cap(l.Records), n)
	}
}

// TestInPlaceMatchesSnapshot: the collector read in place is its Snapshot
// read as a log. Over 60 seeds, ranks spread over several rank blocks each
// touch 1–7 files — past a rank's few — first in a shuffled order, with
// durations that make every float sum depend on the order it is taken in.
// Snapshot holds one record per (rank, path) in that order, All visits
// exactly Snapshot's records in Snapshot's order, and every reduction,
// over all records or through a predicate, is bit for bit the Log's on
// the Snapshot or on its Filter.
func TestInPlaceMatchesSnapshot(t *testing.T) {
	ops := []posix.Op{posix.OpCreate, posix.OpWrite, posix.OpWrite, posix.OpRead, posix.OpStat, posix.OpClose}
	files := []string{"/a.inp", "/b", "/c", "/d.inp", "/e", "/f", "/g"}
	var few, more int // ranks whose records all fit in few, and ranks past it
	for seed := uint64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0))
		nprocs := 3*rankBlock + rng.IntN(rankBlock)
		type touch struct {
			rank int
			path string
		}
		var touches []touch
		for _, rank := range rng.Perm(nprocs)[:24] {
			n := 1 + rng.IntN(len(files))
			if n > len(rankRecords{}.few) {
				more++
			} else {
				few++
			}
			for _, i := range rng.Perm(len(files))[:n] {
				for range 1 + rng.IntN(3) {
					touches = append(touches, touch{rank, files[i]})
				}
			}
		}
		rng.Shuffle(len(touches), func(i, j int) { touches[i], touches[j] = touches[j], touches[i] })
		col := NewCollector()
		for _, tc := range touches {
			start := sim.Time(rng.Float64() * 100)
			col.Record(tc.rank, ops[rng.IntN(len(ops))], tc.path, rng.Int64N(1<<20), start, start+sim.Time(rng.ExpFloat64()/7))
		}

		l := col.Snapshot(JobMeta{NProcs: nprocs})
		distinct := map[touch]bool{}
		for _, tc := range touches {
			distinct[tc] = true
		}
		byRankPath := func(a, b Record) int { return cmp.Or(cmp.Compare(a.Rank, b.Rank), strings.Compare(a.Path, b.Path)) }
		if len(l.Records) != len(distinct) || !slices.IsSortedFunc(l.Records, byRankPath) {
			t.Fatalf("seed %d: Snapshot has %d records for %d (rank, path) pairs, in (rank, path) order: %t",
				seed, len(l.Records), len(distinct), slices.IsSortedFunc(l.Records, byRankPath))
		}
		var visited []Record
		for r := range col.All() {
			visited = append(visited, *r)
		}
		if !reflect.DeepEqual(visited, l.Records) {
			t.Fatalf("seed %d: All visits %d records, not Snapshot's %d in its order", seed, len(visited), len(l.Records))
		}
		once := func(r *Record) bool { return strings.HasSuffix(r.Path, ".inp") }
		perEpoch := func(r *Record) bool { return !once(r) }
		for name, keep := range map[string]func(*Record) bool{"all": nil, "once": once, "per-epoch": perEpoch} {
			want := l
			if keep != nil {
				want = l.Filter(keep)
			}
			if got, w := col.WriteThroughputByElapsed(keep), want.WriteThroughputByElapsed(); got != w || got <= 0 {
				t.Errorf("seed %d, %s: throughput in place %v, on the log %v", seed, name, got, w)
			}
			r, m, w := col.PerProcessTimes(nprocs, keep)
			if lr, lm, lw := want.PerProcessTimes(); r != lr || m != lm || w != lw || m <= 0 {
				t.Errorf("seed %d, %s: per-process times in place %v %v %v, on the log %v %v %v", seed, name, r, m, w, lr, lm, lw)
			}
		}
	}
	if few == 0 || more == 0 {
		t.Errorf("%d ranks within a rank's few files and %d past them; both must be exercised", few, more)
	}
}

// TestFoldAllocs: a reduction reads the collector in place — no copy, no
// object per record or per rank, whatever the rank's file count.
func TestFoldAllocs(t *testing.T) {
	const n = 10000
	col := NewCollector()
	for i := 0; i < n; i++ {
		col.Record(i%100, posix.OpWrite, fmt.Sprintf("/f%05d", i), 1, sim.Time(i), sim.Time(i+1))
	}
	tenth := func(r *Record) bool { return strings.HasSuffix(r.Path, "7") }
	for name, fold := range map[string]func(){
		"throughput":        func() { col.WriteThroughputByElapsed(nil) },
		"per-process times": func() { col.PerProcessTimes(100, tenth) },
		"visit through All": func() {
			for range col.All() {
			}
		},
	} {
		if a := testing.AllocsPerRun(3, fold); a > 2 {
			t.Errorf("%s over %d records allocates %.0f objects, want <= 2", name, n, a)
		}
	}
}

// TestFilterAllocs: the filtered log is one Records slice of exactly the
// kept size, in log order.
func TestFilterAllocs(t *testing.T) {
	l := runInstrumented(t)
	odd := func(r *Record) bool { return r.Rank%2 == 1 }
	var f *Log
	if a := testing.AllocsPerRun(10, func() { f = l.Filter(odd) }); a > 2 {
		t.Errorf("Filter allocates %.0f objects, want <= 2", a)
	}
	if len(f.Records) != 2 || cap(f.Records) != 2 || f.Records[0].Rank != 1 || f.Records[1].Rank != 3 || f.Meta != l.Meta {
		t.Errorf("filtered log %+v", f)
	}
	if none := l.Filter(func(*Record) bool { return false }); len(none.Records) != 0 {
		t.Errorf("empty filter kept %d records", len(none.Records))
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

// gz is text as Encode would compress it.
func gz(t testing.TB, text string) []byte {
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write([]byte(text)); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestParseRejectsOtherFormats: a record must carry exactly this
// version's counters — a longer array is not truncated, a shorter or
// missing one not zero-filled — and a log may not decompress without
// bound.
func TestParseRejectsOtherFormats(t *testing.T) {
	ints := func(n int) string { return "[" + strings.TrimSuffix(strings.Repeat("1,", n), ",") + "]" }
	record := func(counters, fcounters int) string {
		return `{"meta":{"nprocs":1},"records":[{"rank":0,"path":"/a","counters":` + ints(counters) + `,"fcounters":` + ints(fcounters) + `}]}`
	}
	if l, err := Parse(bytes.NewReader(gz(t, record(int(NumCounters), int(NumFCounters))))); err != nil || len(l.Records) != 1 || l.Records[0].Counters[NumCounters-1] != 1 {
		t.Fatalf("a well-formed record: log %+v, err %v", l, err)
	}
	for name, text := range map[string]string{
		"too many counters":  record(int(NumCounters)+1, int(NumFCounters)),
		"too few counters":   record(int(NumCounters)-1, int(NumFCounters)),
		"too many fcounters": record(int(NumCounters), int(NumFCounters)+1),
		"no counters":        `{"records":[{"rank":0,"path":"/a"}]}`,
		"null record":        `{"records":[null]}`,
		"not JSON":           "POSIX_OPENS 1\n",
	} {
		if l, err := Parse(bytes.NewReader(gz(t, text))); err == nil {
			t.Errorf("%s: accepted as %d record(s)", name, len(l.Records))
		}
	}
	good := record(int(NumCounters), int(NumFCounters))
	if _, err := parse(bytes.NewReader(gz(t, good)), int64(len(good))); err != nil {
		t.Errorf("a log of exactly the cap: %v", err)
	}
	for name, text := range map[string]string{"a log": good, "padding inside a log": good[:len(good)-2] + strings.Repeat(" ", 1<<16) + "]}", "padding after a log": good + strings.Repeat(" ", 1<<16)} {
		if _, err := parse(bytes.NewReader(gz(t, text)), int64(len(good))-1); err == nil || !strings.Contains(err.Error(), "decompresses to more than") {
			t.Errorf("%s past the cap: err=%v", name, err)
		}
	}
	whole := gz(t, good)
	if _, err := Parse(bytes.NewReader(whole[:len(whole)-6])); err == nil {
		t.Error("a truncated gzip stream was accepted")
	}
}

// FuzzParse: arbitrary bytes never panic or hang Parse, and a log it
// accepts survives Encode → Parse unchanged. The hostile seeds are
// testdata/fuzz/FuzzParse; the real one is made here so that it follows
// the format.
func FuzzParse(f *testing.F) {
	var real bytes.Buffer
	if err := runInstrumented(f).Encode(&real); err != nil {
		f.Fatal(err)
	}
	f.Add(real.Bytes())
	f.Fuzz(func(t *testing.T, in []byte) {
		l, err := Parse(bytes.NewReader(in))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := l.Encode(&out); err != nil {
			t.Fatalf("encoding an accepted log: %v", err)
		}
		back, err := Parse(&out)
		if err != nil {
			t.Fatalf("re-reading an encoded log: %v", err)
		}
		if !reflect.DeepEqual(l, back) {
			t.Fatalf("round trip changed the log:\n got %+v\nwant %+v", back, l)
		}
	})
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
	if f := foldOf(records(l.Records), nil); !f.wrote || f.end <= f.start {
		t.Fatalf("window [%v,%v] wrote=%v", f.start, f.end, f.wrote)
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
		fd, err = env.Create(p, "out/x.dat")
		if err != nil {
			t.Error(err)
			return
		}
		fd.Write(p, 4096, nil)
		fd.Close(p)
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

// TestLookupMovesToFront: lookups that alternate between a rank's files —
// a few of them, and more than few holds — return the record each file
// got first, leave the last one looked up in few's first slot with few
// holding each record once and no hole before a record, and change
// nothing All visits: one record per (rank, path), in (rank, path) order,
// each counting its own writes.
func TestLookupMovesToFront(t *testing.T) {
	files := []string{"/d", "/a", "/c", "/b", "/f", "/e"}
	col := NewCollector()
	first := map[string]*Record{}
	key := func(rank int, path string) string { return fmt.Sprint(rank, path) }
	writes := map[string]int64{}
	rng := rand.New(rand.NewPCG(7, 0))
	for i := range 400 {
		rank := []int{3, rankBlock + 1, 0}[i%3]
		n := len(files)
		if rank == 0 {
			n = 3 // a BIT1 rank's three files: few only
		}
		path := files[rng.IntN(n)]
		r := col.record(rank, path, sim.Time(i))
		if f, ok := first[key(rank, path)]; !ok {
			first[key(rank, path)] = r
		} else if f != r {
			t.Fatalf("lookup %d: rank %d's %s moved to another record", i, rank, path)
		}
		rr := &col.ranks[rank/rankBlock][rank%rankBlock]
		if rr.more[path] == nil && rr.few[0] != r {
			t.Fatalf("lookup %d: rank %d's %s is not first in few", i, rank, path)
		}
		seen := map[*Record]bool{}
		for j, fr := range rr.few {
			if fr == nil {
				if j < len(rr.few)-1 && rr.few[j+1] != nil {
					t.Fatalf("lookup %d: rank %d's few has a hole at %d", i, rank, j)
				}
				continue
			}
			if seen[fr] || rr.more[fr.Path] != nil {
				t.Fatalf("lookup %d: rank %d's %s is in its index twice", i, rank, fr.Path)
			}
			seen[fr] = true
		}
		col.Record(rank, posix.OpWrite, path, 1, sim.Time(i), sim.Time(i)+0.5)
		writes[key(rank, path)]++
	}
	var got []*Record
	for r := range col.All() {
		got = append(got, r)
	}
	byRankPath := func(a, b *Record) int { return cmp.Or(cmp.Compare(a.Rank, b.Rank), strings.Compare(a.Path, b.Path)) }
	if len(got) != len(first) || !slices.IsSortedFunc(got, byRankPath) {
		t.Fatalf("All visits %d records for %d (rank, path) pairs, in (rank, path) order: %t",
			len(got), len(first), slices.IsSortedFunc(got, byRankPath))
	}
	for _, r := range got {
		if k := key(r.Rank, r.Path); first[k] != r || r.Counters[POSIX_WRITES] != writes[k] {
			t.Errorf("rank %d's %s: %d writes in its record, %d made", r.Rank, r.Path, r.Counters[POSIX_WRITES], writes[k])
		}
	}
}

// TestRecycledCollectorMatchesFresh: a collector on the record chunks and
// rank blocks a larger, dirtier collector released logs byte for byte
// what a fresh one does.
func TestRecycledCollectorMatchesFresh(t *testing.T) {
	play := func(col *Collector, ranks, files int, bytes int64) {
		for rank := range ranks {
			for f := range files {
				path := fmt.Sprintf("/out/f%d", (rank+f)%files)
				col.Record(rank*3, posix.OpCreate, path, 0, sim.Time(rank), sim.Time(rank)+1e-3)
				col.Record(rank*3, posix.OpWrite, path, bytes*int64(f+1), sim.Time(rank)+1e-3, sim.Time(rank)+2e-3)
				col.Record(rank*3, posix.OpClose, path, 0, sim.Time(rank)+2e-3, sim.Time(rank)+3e-3)
			}
		}
	}
	encode := func(col *Collector) (*Log, []byte) {
		l := col.Snapshot(JobMeta{Executable: "recycle", NProcs: 3 * 2 * rankBlock})
		var b bytes.Buffer
		if err := l.Encode(&b); err != nil {
			t.Fatal(err)
		}
		return l, b.Bytes()
	}
	// Empty the pools, for the fresh collector to allocate its own.
	recordChunks.Give(nil)
	rankBlocks.Give(nil)
	fresh := NewCollector()
	play(fresh, 2*rankBlock/3+5, 6, 100)
	wantLog, want := encode(fresh)

	dirty := NewCollector()
	play(dirty, 4*rankBlock/3, 9, 7)
	dirty.Record(6*rankBlock, posix.OpWrite, "/far", 1, 0, 1) // past two blocks it never takes
	released := map[*Record]bool{}
	for r := range dirty.All() {
		released[r] = true
	}
	dirty.Release()

	recycled := NewCollector()
	play(recycled, 2*rankBlock/3+5, 6, 100)
	reused := 0
	for r := range recycled.All() {
		if released[r] {
			reused++
		}
	}
	if reused == 0 {
		t.Fatal("the collector took no record the dirty one released")
	}
	gotLog, got := encode(recycled)
	if !reflect.DeepEqual(gotLog, wantLog) || !bytes.Equal(got, want) {
		t.Errorf("a collector on recycled storage (%d records reused) logs differently from a fresh one", reused)
	}
	fresh.Release()
	recycled.Release()
}

// TestReleasedCollectorPanics: every use of a released collector panics
// with a message that names it; none reads its cleared records.
func TestReleasedCollectorPanics(t *testing.T) {
	col := NewCollector()
	col.Record(0, posix.OpWrite, "/f", 1, 0, 1)
	col.Release()
	for name, use := range map[string]func(){
		"Record":                   func() { col.Record(0, posix.OpWrite, "/f", 1, 0, 1) },
		"Snapshot":                 func() { col.Snapshot(JobMeta{}) },
		"All":                      func() { _ = slices.Collect(col.All()) },
		"WriteThroughputByElapsed": func() { col.WriteThroughputByElapsed(nil) },
		"PerProcessTimes":          func() { col.PerProcessTimes(1, nil) },
		"Release":                  col.Release,
	} {
		func() {
			defer func() {
				if r := recover(); r != "darshan: use of a released Collector" {
					t.Errorf("%s after Release: recovered %v", name, r)
				}
			}()
			use()
		}()
	}
}
