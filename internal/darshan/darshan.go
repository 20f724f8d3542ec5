// Package darshan reimplements the essentials of the Darshan HPC I/O
// characterization tool against the simulated POSIX layer: per-rank,
// per-file counter records (operation counts, byte totals, access-size
// histogram, cumulative read/write/metadata timers), a compressed log
// format, a parser, and the throughput estimators the paper uses to report
// every figure ("we evaluate the I/O performance of BIT1 in terms of write
// throughput by extracting the throughput and amount of data stored by
// each file ... using Darshan logs").
package darshan

import (
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"iter"
	"slices"
	"strings"

	"picmcio/internal/pfs"
	"picmcio/internal/posix"
	"picmcio/internal/sim"
)

// Counter indexes the integer counters of a record; names mirror the real
// Darshan POSIX module.
type Counter int

// Integer counters.
const (
	POSIX_OPENS Counter = iota
	POSIX_WRITES
	POSIX_READS
	POSIX_SEEKS
	POSIX_STATS
	POSIX_FSYNCS
	POSIX_BYTES_WRITTEN
	POSIX_BYTES_READ
	POSIX_SIZE_WRITE_0_100
	POSIX_SIZE_WRITE_100_1K
	POSIX_SIZE_WRITE_1K_10K
	POSIX_SIZE_WRITE_10K_100K
	POSIX_SIZE_WRITE_100K_1M
	POSIX_SIZE_WRITE_1M_4M
	POSIX_SIZE_WRITE_4M_10M
	POSIX_SIZE_WRITE_10M_100M
	POSIX_SIZE_WRITE_100M_PLUS
	NumCounters
)

var counterNames = [NumCounters]string{
	"POSIX_OPENS", "POSIX_WRITES", "POSIX_READS", "POSIX_SEEKS",
	"POSIX_STATS", "POSIX_FSYNCS", "POSIX_BYTES_WRITTEN", "POSIX_BYTES_READ",
	"POSIX_SIZE_WRITE_0_100", "POSIX_SIZE_WRITE_100_1K",
	"POSIX_SIZE_WRITE_1K_10K", "POSIX_SIZE_WRITE_10K_100K",
	"POSIX_SIZE_WRITE_100K_1M", "POSIX_SIZE_WRITE_1M_4M",
	"POSIX_SIZE_WRITE_4M_10M", "POSIX_SIZE_WRITE_10M_100M",
	"POSIX_SIZE_WRITE_100M_PLUS",
}

// String implements fmt.Stringer.
func (c Counter) String() string {
	if c >= 0 && c < NumCounters {
		return counterNames[c]
	}
	return fmt.Sprintf("Counter(%d)", int(c))
}

// FCounter indexes the floating-point (time) counters of a record.
type FCounter int

// Floating-point counters (all in seconds of virtual time).
const (
	POSIX_F_READ_TIME FCounter = iota
	POSIX_F_WRITE_TIME
	POSIX_F_META_TIME
	POSIX_F_OPEN_START_TIMESTAMP
	POSIX_F_WRITE_START_TIMESTAMP
	POSIX_F_WRITE_END_TIMESTAMP
	POSIX_F_READ_START_TIMESTAMP
	POSIX_F_READ_END_TIMESTAMP
	POSIX_F_CLOSE_END_TIMESTAMP
	NumFCounters
)

var fcounterNames = [NumFCounters]string{
	"POSIX_F_READ_TIME", "POSIX_F_WRITE_TIME", "POSIX_F_META_TIME",
	"POSIX_F_OPEN_START_TIMESTAMP", "POSIX_F_WRITE_START_TIMESTAMP",
	"POSIX_F_WRITE_END_TIMESTAMP", "POSIX_F_READ_START_TIMESTAMP",
	"POSIX_F_READ_END_TIMESTAMP", "POSIX_F_CLOSE_END_TIMESTAMP",
}

// String implements fmt.Stringer.
func (c FCounter) String() string {
	if c >= 0 && c < NumFCounters {
		return fcounterNames[c]
	}
	return fmt.Sprintf("FCounter(%d)", int(c))
}

// Record is one (rank, file) characterization record.
type Record struct {
	Rank     int                   `json:"rank"`
	Path     string                `json:"path"`
	Counters [NumCounters]int64    `json:"counters"`
	FCount   [NumFCounters]float64 `json:"fcounters"`
}

// Collector gathers records during a run. It implements posix.Monitor and
// is attached to every rank's POSIX environment, exactly where the real
// Darshan library interposes. It allocates per block of ranks and per
// chunk of records, not per record: the index is by rank, then by path
// among the few files a rank touches, and the records lie in a slab whose
// chunks never move. Release gives both back for the next collector.
type Collector struct {
	ranks    [][]rankRecords // ranks[r/rankBlock][r%rankBlock] is rank r's index
	records  pfs.Slab[Record]
	n        int
	released bool
}

// rankRecords finds one rank's records by path.
type rankRecords struct {
	few  [4]*Record         // its first files, the last one looked up first: a BIT1 rank has three
	more map[string]*Record // the rest
}

// toFront puts r, found at or bound for few[i], in few's first slot and
// the i before it one slot down. A rank's next operations are most likely
// on the file of its last one, and then compare against that record alone.
func (rr *rankRecords) toFront(i int, r *Record) {
	copy(rr.few[1:i+1], rr.few[:i])
	rr.few[0] = r
}

const rankBlock = 256

// The pools of every collector's record chunks and rank blocks.
var (
	recordChunks pfs.Pool[Record]
	rankBlocks   pfs.Pool[rankRecords]
)

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{records: pfs.NewSlab(&recordChunks)} }

// Release gives the collector's records and rank blocks back to
// process-wide pools for the next collector and ends it: every later use
// panics. A Log from Snapshot is a copy and stays valid; a *Record read
// from All must not be kept.
func (c *Collector) Release() {
	c.live()
	c.records.Release()
	// A block no rank of it recorded in was never taken.
	rankBlocks.Give(slices.DeleteFunc(c.ranks, func(b []rankRecords) bool { return b == nil }))
	*c = Collector{released: true}
}

// live panics if the collector has been released.
func (c *Collector) live() {
	if c.released {
		panic("darshan: use of a released Collector")
	}
}

// record returns the record of (rank, path), new if it is their first
// operation; start is then when that began.
func (c *Collector) record(rank int, path string, start sim.Time) *Record {
	c.live()
	if rank < 0 {
		panic(fmt.Sprintf("darshan: record of rank %d", rank))
	}
	for len(c.ranks) <= rank/rankBlock {
		c.ranks = append(c.ranks, nil)
	}
	block := &c.ranks[rank/rankBlock]
	if *block == nil {
		*block = rankBlocks.Take(rankBlock)
	}
	rr := &(*block)[rank%rankBlock]
	free := -1 // the first empty slot of few
	for i, r := range rr.few {
		if r == nil {
			free = i
			break
		}
		if r.Path == path {
			rr.toFront(i, r)
			return r
		}
	}
	if free < 0 {
		if r := rr.more[path]; r != nil {
			return r
		}
	}

	r := c.records.New()
	r.Rank, r.Path = rank, path
	r.FCount[POSIX_F_OPEN_START_TIMESTAMP] = float64(start)
	c.n++
	switch {
	case free >= 0:
		rr.toFront(free, r)
	case rr.more == nil:
		rr.more = map[string]*Record{path: r}
	default:
		rr.more[path] = r
	}
	return r
}

func writeSizeBucket(n int64) Counter {
	switch {
	case n < 100:
		return POSIX_SIZE_WRITE_0_100
	case n < 1<<10:
		return POSIX_SIZE_WRITE_100_1K
	case n < 10<<10:
		return POSIX_SIZE_WRITE_1K_10K
	case n < 100<<10:
		return POSIX_SIZE_WRITE_10K_100K
	case n < 1<<20:
		return POSIX_SIZE_WRITE_100K_1M
	case n < 4<<20:
		return POSIX_SIZE_WRITE_1M_4M
	case n < 10<<20:
		return POSIX_SIZE_WRITE_4M_10M
	case n < 100<<20:
		return POSIX_SIZE_WRITE_10M_100M
	default:
		return POSIX_SIZE_WRITE_100M_PLUS
	}
}

// Record implements posix.Monitor.
func (c *Collector) Record(rank int, op posix.Op, path string, bytes int64, start, end sim.Time) {
	r := c.record(rank, path, start)
	dur := float64(end - start)
	switch op {
	case posix.OpOpen, posix.OpCreate:
		r.Counters[POSIX_OPENS]++
		r.FCount[POSIX_F_META_TIME] += dur
	case posix.OpWrite:
		if r.Counters[POSIX_WRITES] == 0 {
			r.FCount[POSIX_F_WRITE_START_TIMESTAMP] = float64(start)
		}
		r.Counters[POSIX_WRITES]++
		r.Counters[POSIX_BYTES_WRITTEN] += bytes
		r.Counters[writeSizeBucket(bytes)]++
		r.FCount[POSIX_F_WRITE_TIME] += dur
		r.FCount[POSIX_F_WRITE_END_TIMESTAMP] = float64(end)
	case posix.OpRead:
		if r.Counters[POSIX_READS] == 0 {
			r.FCount[POSIX_F_READ_START_TIMESTAMP] = float64(start)
		}
		r.Counters[POSIX_READS]++
		r.Counters[POSIX_BYTES_READ] += bytes
		r.FCount[POSIX_F_READ_TIME] += dur
		r.FCount[POSIX_F_READ_END_TIMESTAMP] = float64(end)
	case posix.OpSeek:
		r.Counters[POSIX_SEEKS]++
		r.FCount[POSIX_F_META_TIME] += dur
	case posix.OpStat:
		r.Counters[POSIX_STATS]++
		r.FCount[POSIX_F_META_TIME] += dur
	case posix.OpFsync:
		r.Counters[POSIX_FSYNCS]++
		r.FCount[POSIX_F_META_TIME] += dur
	case posix.OpClose:
		r.FCount[POSIX_F_META_TIME] += dur
		r.FCount[POSIX_F_CLOSE_END_TIMESTAMP] = float64(end)
	default:
		r.FCount[POSIX_F_META_TIME] += dur
	}
}

// JobMeta describes the instrumented job, mirroring a Darshan log header.
type JobMeta struct {
	Executable string  `json:"exe"`
	NProcs     int     `json:"nprocs"`
	Machine    string  `json:"machine"`
	RunSeconds float64 `json:"run_seconds"`
	Version    string  `json:"version"`
}

// Log is a finalized set of records plus job metadata.
type Log struct {
	Meta    JobMeta  `json:"meta"`
	Records []Record `json:"records"`
}

// All visits every record in place, in the order Snapshot copies them:
// by rank, then by path among that rank's records. The records are the
// collector's own, so the visit is for reading; recording must not go on
// during it.
func (c *Collector) All() iter.Seq[*Record] {
	// A closure literal and not the method value c.visit: the compiler
	// inlines it, so the body of a range over All stays on the stack.
	return func(yield func(*Record) bool) { c.visit(yield) }
}

// visit is All's sequence. A rank's records are sorted as pointers, in a
// buffer on the stack unless the rank has more files than it holds.
func (c *Collector) visit(yield func(*Record) bool) {
	c.live()
	var stack [8]*Record
	rank := stack[:0]
	for _, block := range c.ranks {
		for i := range block {
			rr := &block[i]
			if rr.few[0] == nil {
				continue // a rank that recorded nothing
			}
			rank = rank[:0]
			if n := len(rr.few) + len(rr.more); n > cap(rank) {
				rank = make([]*Record, 0, n)
			}
			for _, r := range rr.few {
				if r != nil {
					rank = append(rank, r)
				}
			}
			for _, r := range rr.more {
				rank = append(rank, r)
			}
			slices.SortFunc(rank, func(a, b *Record) int { return strings.Compare(a.Path, b.Path) })
			for _, r := range rank {
				if !yield(r) {
					return
				}
			}
		}
	}
}

// Snapshot freezes the collector into a Log, in All's (rank, path) order
// for deterministic output. The log is a copy — one Records slice of
// exactly the collector's size — so recording may go on after it. A
// reduction needs no copy: the collector's own forms read it in place.
func (c *Collector) Snapshot(meta JobMeta) *Log {
	c.live()
	meta.Version = "darshan-sim 3.4.2-go"
	l := &Log{Meta: meta, Records: make([]Record, 0, c.n)}
	for r := range c.All() {
		l.Records = append(l.Records, *r)
	}
	return l
}

// Encode writes the log in its on-disk format (gzip-compressed JSON, as
// real Darshan logs are compressed).
func (l *Log) Encode(w io.Writer) error {
	zw := gzip.NewWriter(w)
	if err := json.NewEncoder(zw).Encode(l); err != nil {
		zw.Close()
		return fmt.Errorf("darshan: encode: %w", err)
	}
	return zw.Close()
}

// maxLogBytes caps the JSON a log may decompress to: four times the log of
// the largest run the simulator launches (200 nodes × 128 ranks × 3 files,
// ≈ 300 bytes a record), so that a small hostile file cannot make Parse
// allocate without bound. A record must carry all its counters (see
// UnmarshalJSON), which keeps what Parse builds within a small multiple of
// what it read.
const maxLogBytes = 96 << 20

// Parse reads a log produced by Encode.
func Parse(r io.Reader) (*Log, error) { return parse(r, maxLogBytes) }

// parse is Parse with the cap on the decompressed size a parameter.
func parse(r io.Reader, limit int64) (*Log, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("darshan: not a darshan-sim log: %w", err)
	}
	defer zr.Close()
	body := &io.LimitedReader{R: zr, N: limit + 1}
	var l Log
	err = json.NewDecoder(body).Decode(&l)
	if err == nil {
		// Reading on to the end of the stream is what checks its length
		// and checksum: the decoder stops where the log's closing brace is.
		_, err = io.Copy(io.Discard, body)
	}
	if body.N == 0 {
		return nil, fmt.Errorf("darshan: parse: log decompresses to more than %d bytes", limit)
	}
	if err != nil {
		return nil, fmt.Errorf("darshan: parse: %w", err)
	}
	return &l, nil
}

// UnmarshalJSON reads a record as Encode writes it and rejects one with a
// different number of counters: a log of another format version is an
// error, not a log with some counters silently dropped or zero.
func (r *Record) UnmarshalJSON(b []byte) error {
	var w struct {
		Rank     int       `json:"rank"`
		Path     string    `json:"path"`
		Counters []int64   `json:"counters"`
		FCount   []float64 `json:"fcounters"`
	}
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	if len(w.Counters) != int(NumCounters) || len(w.FCount) != int(NumFCounters) {
		return fmt.Errorf("record of rank %d has %d counters and %d fcounters, want %d and %d",
			w.Rank, len(w.Counters), len(w.FCount), NumCounters, NumFCounters)
	}
	*r = Record{Rank: w.Rank, Path: w.Path}
	copy(r.Counters[:], w.Counters)
	copy(r.FCount[:], w.FCount)
	return nil
}
