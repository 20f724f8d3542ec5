package darshan

import (
	"cmp"
	"fmt"
	"iter"
	"slices"
	"sort"
	"strings"

	"picmcio/internal/units"
)

// The reductions a figure is drawn from — the write window and the
// per-process times — are written once, as a fold over a sequence of
// records: a Log's Records in order, or a Collector's read in place
// (Collector.All). Both are in (rank, path) order for any Snapshot, so a
// reduction of the collector is bit for bit the same reduction of its
// Snapshot. The collector's forms take a predicate keep, and return what
// the Log's forms return on Snapshot(...).Filter(keep), without the copy;
// a nil keep keeps every record.

func kept(keep func(r *Record) bool, r *Record) bool { return keep == nil || keep(r) }

// records is the sequence of a slice's records, in order.
func records(recs []Record) iter.Seq[*Record] {
	return func(yield func(*Record) bool) {
		for i := range recs {
			if !yield(&recs[i]) {
				return
			}
		}
	}
}

// fold is what the reductions read of the records added to it.
type fold struct {
	start, end        float64 // the write window: earliest write start, latest write end
	wrote             bool    // whether any record wrote, so that the window is set
	bytes             int64   // bytes written
	read, meta, write float64 // cumulative seconds
	ranks, last       int     // runs of one rank: its distinct ranks when added grouped by rank
}

// foldOf folds the records of recs that keep keeps, in order.
func foldOf(recs iter.Seq[*Record], keep func(r *Record) bool) (f fold) {
	for r := range recs {
		if kept(keep, r) {
			f.add(r)
		}
	}
	return f
}

func (f *fold) add(r *Record) {
	f.bytes += r.Counters[POSIX_BYTES_WRITTEN]
	if r.Counters[POSIX_WRITES] > 0 {
		s := r.FCount[POSIX_F_WRITE_START_TIMESTAMP]
		e := r.FCount[POSIX_F_WRITE_END_TIMESTAMP]
		switch {
		case !f.wrote:
			f.start, f.end, f.wrote = s, e, true
		case s < f.start:
			f.start = s
		}
		if e > f.end {
			f.end = e
		}
	}
	f.read += r.FCount[POSIX_F_READ_TIME]
	f.meta += r.FCount[POSIX_F_META_TIME]
	f.write += r.FCount[POSIX_F_WRITE_TIME]
	if f.ranks == 0 || r.Rank != f.last {
		f.ranks, f.last = f.ranks+1, r.Rank
	}
}

// throughputByElapsed is the bytes written over the span of the write
// window; 0 if nothing was written.
func (f fold) throughputByElapsed() float64 {
	if !f.wrote || f.end <= f.start {
		return 0
	}
	return float64(f.bytes) / (f.end - f.start)
}

// perProcessTimes averages the cumulative seconds over nprocs processes,
// or, if nprocs is 0, over the distinct ranks folded.
func (f fold) perProcessTimes(nprocs int) (read, meta, write float64) {
	n := float64(nprocs)
	if n == 0 {
		n = float64(f.ranks)
	}
	if n == 0 {
		return 0, 0, 0
	}
	return f.read / n, f.meta / n, f.write / n
}

// TotalBytesWritten sums bytes written across all records.
func (l *Log) TotalBytesWritten() int64 {
	var n int64
	for i := range l.Records {
		n += l.Records[i].Counters[POSIX_BYTES_WRITTEN]
	}
	return n
}

// TotalBytesRead sums bytes read across all records.
func (l *Log) TotalBytesRead() int64 {
	var n int64
	for i := range l.Records {
		n += l.Records[i].Counters[POSIX_BYTES_READ]
	}
	return n
}

// WriteThroughputByElapsed estimates aggregate write throughput as total
// bytes written divided by the wall span of the write window — the
// headline "write throughput" number of the paper's figures.
func (l *Log) WriteThroughputByElapsed() float64 {
	return foldOf(records(l.Records), nil).throughputByElapsed()
}

// WriteThroughputByElapsed is Log.WriteThroughputByElapsed over the
// records keep keeps, read in place.
func (c *Collector) WriteThroughputByElapsed(keep func(r *Record) bool) float64 {
	return foldOf(c.All(), keep).throughputByElapsed()
}

// byRank returns the records grouped by rank, each rank's in log order:
// the log's own slice when it is already in rank order — as every Snapshot
// is — and otherwise a stably sorted copy, so a hand-built or foreign log
// costs a sort instead of being silently misread.
func (l *Log) byRank() []Record {
	rankOrder := func(a, b Record) int { return cmp.Compare(a.Rank, b.Rank) }
	if slices.IsSortedFunc(l.Records, rankOrder) {
		return l.Records
	}
	recs := slices.Clone(l.Records)
	slices.SortStableFunc(recs, rankOrder)
	return recs
}

// WriteThroughputBySlowest mirrors Darshan's agg_perf_by_slowest: total
// bytes divided by the largest per-rank cumulative I/O time (write + meta).
func (l *Log) WriteThroughputBySlowest() float64 {
	var slowest, sum float64
	recs := l.byRank()
	for i := range recs {
		r := &recs[i]
		if i > 0 && r.Rank != recs[i-1].Rank {
			sum = 0
		}
		sum += r.FCount[POSIX_F_WRITE_TIME] + r.FCount[POSIX_F_META_TIME]
		if sum > slowest {
			slowest = sum
		}
	}
	if slowest <= 0 {
		return 0
	}
	return float64(l.TotalBytesWritten()) / slowest
}

// PerProcessTimes reports the average cumulative read, metadata and write
// seconds per process — the decomposition of Fig. 5. The divisor is the
// job's process count (Meta.NProcs) when known, so ranks that performed no
// POSIX I/O (e.g. non-aggregators under BP4) still count in the average,
// exactly as Darshan averages over all procs; a log that does not say
// averages over the ranks that appear in it.
func (l *Log) PerProcessTimes() (read, meta, write float64) {
	return foldOf(records(l.byRank()), nil).perProcessTimes(l.Meta.NProcs)
}

// PerProcessTimes is Log.PerProcessTimes of a job of nprocs processes,
// over the records keep keeps, read in place.
func (c *Collector) PerProcessTimes(nprocs int, keep func(r *Record) bool) (read, meta, write float64) {
	return foldOf(c.All(), keep).perProcessTimes(nprocs)
}

// Filter returns a copy of the log containing only the records for which
// keep returns true (same job metadata), in one allocation of exactly that
// many records — so keep is asked twice about each. It is for tools that
// want a log to hand on; a reduction over part of a run reads the
// collector in place instead.
func (l *Log) Filter(keep func(r *Record) bool) *Log {
	n := 0
	for i := range l.Records {
		if keep(&l.Records[i]) {
			n++
		}
	}
	out := &Log{Meta: l.Meta}
	if n == 0 {
		return out
	}
	out.Records = make([]Record, 0, n)
	for i := range l.Records {
		if keep(&l.Records[i]) {
			out.Records = append(out.Records, l.Records[i])
		}
	}
	return out
}

// FileSummary describes one file aggregated across ranks.
type FileSummary struct {
	Path         string
	BytesWritten int64
	BytesRead    int64
	Writers      int
}

// FileSummaries aggregates records per file, sorted by path.
func (l *Log) FileSummaries() []FileSummary {
	agg := map[string]*FileSummary{}
	for i := range l.Records {
		r := &l.Records[i]
		fs := agg[r.Path]
		if fs == nil {
			fs = &FileSummary{Path: r.Path}
			agg[r.Path] = fs
		}
		fs.BytesWritten += r.Counters[POSIX_BYTES_WRITTEN]
		fs.BytesRead += r.Counters[POSIX_BYTES_READ]
		if r.Counters[POSIX_WRITES] > 0 {
			fs.Writers++
		}
	}
	out := make([]FileSummary, 0, len(agg))
	for _, fs := range agg {
		out = append(out, *fs)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// WriteSizeHistogram sums the access-size histogram across records,
// returning bucket label → count.
func (l *Log) WriteSizeHistogram() []struct {
	Bucket string
	Count  int64
} {
	buckets := []Counter{
		POSIX_SIZE_WRITE_0_100, POSIX_SIZE_WRITE_100_1K, POSIX_SIZE_WRITE_1K_10K,
		POSIX_SIZE_WRITE_10K_100K, POSIX_SIZE_WRITE_100K_1M, POSIX_SIZE_WRITE_1M_4M,
		POSIX_SIZE_WRITE_4M_10M, POSIX_SIZE_WRITE_10M_100M, POSIX_SIZE_WRITE_100M_PLUS,
	}
	out := make([]struct {
		Bucket string
		Count  int64
	}, len(buckets))
	for bi, b := range buckets {
		out[bi].Bucket = b.String()
		for i := range l.Records {
			out[bi].Count += l.Records[i].Counters[b]
		}
	}
	return out
}

// Report renders a human-readable summary in the spirit of darshan-parser
// --total output.
func (l *Log) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s log\n", l.Meta.Version)
	fmt.Fprintf(&b, "# exe: %s\n", l.Meta.Executable)
	fmt.Fprintf(&b, "# machine: %s  nprocs: %d  run: %s\n",
		l.Meta.Machine, l.Meta.NProcs, units.Seconds(l.Meta.RunSeconds))
	fmt.Fprintf(&b, "# records: %d  files: %d\n", len(l.Records), len(l.FileSummaries()))
	fmt.Fprintf(&b, "total_POSIX_BYTES_WRITTEN: %d (%s)\n",
		l.TotalBytesWritten(), units.Bytes(l.TotalBytesWritten()))
	fmt.Fprintf(&b, "total_POSIX_BYTES_READ: %d (%s)\n",
		l.TotalBytesRead(), units.Bytes(l.TotalBytesRead()))
	fmt.Fprintf(&b, "agg_perf_by_elapsed: %s\n", units.Throughput(l.WriteThroughputByElapsed()))
	fmt.Fprintf(&b, "agg_perf_by_slowest: %s\n", units.Throughput(l.WriteThroughputBySlowest()))
	r, m, w := l.PerProcessTimes()
	fmt.Fprintf(&b, "avg_per_process_read_time: %s\n", units.Seconds(r))
	fmt.Fprintf(&b, "avg_per_process_meta_time: %s\n", units.Seconds(m))
	fmt.Fprintf(&b, "avg_per_process_write_time: %s\n", units.Seconds(w))
	fmt.Fprintf(&b, "write size histogram:\n")
	for _, h := range l.WriteSizeHistogram() {
		if h.Count > 0 {
			fmt.Fprintf(&b, "  %-28s %d\n", h.Bucket, h.Count)
		}
	}
	return b.String()
}
