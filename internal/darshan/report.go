package darshan

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"

	"picmcio/internal/units"
)

// The reductions a figure is drawn from come in two forms: over the whole
// log, and — the Where forms — over the records a predicate keeps, read in
// place. A Where form visits records in log order, so it returns exactly
// what the plain form returns on Filter(keep), without the copy; a nil
// keep keeps every record.

func kept(keep func(r *Record) bool, r *Record) bool { return keep == nil || keep(r) }

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

// writeWindowWhere reports the earliest write start and latest write end
// timestamps across the kept records, with the bytes they wrote. ok is
// false if nothing was written.
func (l *Log) writeWindowWhere(keep func(r *Record) bool) (start, end float64, bytes int64, ok bool) {
	for i := range l.Records {
		r := &l.Records[i]
		if !kept(keep, r) {
			continue
		}
		bytes += r.Counters[POSIX_BYTES_WRITTEN]
		if r.Counters[POSIX_WRITES] == 0 {
			continue
		}
		s := r.FCount[POSIX_F_WRITE_START_TIMESTAMP]
		e := r.FCount[POSIX_F_WRITE_END_TIMESTAMP]
		if !ok {
			start, end, ok = s, e, true
			continue
		}
		if s < start {
			start = s
		}
		if e > end {
			end = e
		}
	}
	return start, end, bytes, ok
}

// WriteThroughputByElapsed estimates aggregate write throughput as total
// bytes written divided by the wall span of the write window — the
// headline "write throughput" number of the paper's figures.
func (l *Log) WriteThroughputByElapsed() float64 { return l.WriteThroughputByElapsedWhere(nil) }

// WriteThroughputByElapsedWhere is WriteThroughputByElapsed over the
// records keep keeps.
func (l *Log) WriteThroughputByElapsedWhere(keep func(r *Record) bool) float64 {
	s, e, bytes, ok := l.writeWindowWhere(keep)
	if !ok || e <= s {
		return 0
	}
	return float64(bytes) / (e - s)
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
func (l *Log) PerProcessTimes() (read, meta, write float64) { return l.PerProcessTimesWhere(nil) }

// PerProcessTimesWhere is PerProcessTimes over the records keep keeps.
func (l *Log) PerProcessTimesWhere(keep func(r *Record) bool) (read, meta, write float64) {
	for i := range l.Records {
		if r := &l.Records[i]; kept(keep, r) {
			read += r.FCount[POSIX_F_READ_TIME]
			meta += r.FCount[POSIX_F_META_TIME]
			write += r.FCount[POSIX_F_WRITE_TIME]
		}
	}
	n := float64(l.Meta.NProcs)
	if n == 0 {
		n = float64(l.ranksWhere(keep))
	}
	if n == 0 {
		return 0, 0, 0
	}
	return read / n, meta / n, write / n
}

// ranksWhere counts the distinct ranks among the kept records.
func (l *Log) ranksWhere(keep func(r *Record) bool) int {
	n, prev := 0, 0
	recs := l.byRank()
	for i := range recs {
		if r := &recs[i]; kept(keep, r) && (n == 0 || r.Rank != prev) {
			n, prev = n+1, r.Rank
		}
	}
	return n
}

// Filter returns a copy of the log containing only the records for which
// keep returns true (same job metadata), in one allocation of exactly that
// many records — so keep is asked twice about each. It is for tools that
// want a log to hand on; a reduction over part of a log takes the
// predicate instead (the Where forms above).
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
