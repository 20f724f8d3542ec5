package bit1

import (
	"slices"
	"strings"
	"testing"

	"picmcio/internal/lustre"
	"picmcio/internal/mpisim"
	"picmcio/internal/pfs"
	"picmcio/internal/posix"
	"picmcio/internal/sim"
)

// opLog records every POSIX call of a run in the order it ends.
type opLog []loggedOp

type loggedOp struct {
	op         posix.Op
	path       string
	bytes      int64
	start, end sim.Time
}

func (l *opLog) Record(rank int, op posix.Op, path string, bytes int64, start, end sim.Time) {
	*l = append(*l, loggedOp{op, path, bytes, start, end})
}

// writerCall is one POSIX call on one path, with the gap between a
// write's start and the end of the call before it, whatever its path: 0 or
// the overhead exactly, else as measured.
type writerCall struct {
	op    posix.Op
	bytes int64
	gap   sim.Duration
}

const seqChunk, seqOverhead = 1024, 1e-3

// runOriginalWriter runs a one-rank original-mode BIT1 of three
// diagnostics and one checkpoint, and returns each path's calls and each
// history file's size at the end.
func runOriginalWriter(t *testing.T) (cfg Config, byPath map[string][]writerCall, sizes map[string]int64) {
	t.Helper()
	cfg = Config{
		Deck:   InputDeck{DatFile: "bit1", LastStep: 300, MVFlag: 1, MVStep: 100, DMPStep: 300},
		OutDir: "/out", Mode: IOOriginal, StdioOverhead: seqOverhead,
	}
	cfg.Sizing.DiagSnapshotTotalBytes = 3 * seqChunk // + the header: k=3, r=100
	cfg.Sizing.CheckpointTotalBytes = 2 * seqChunk   // k=2, r=100
	cfg.Sizing.HeaderBytes = 100
	cfg.Sizing.StdioChunk = seqChunk
	cfg.Sizing.SharedFilesOriginal = 2
	cfg.Sizing.SharedFileBytes = 128

	k := sim.NewKernel()
	fs := lustre.New(k, lustre.DefaultParams())
	var log opLog
	sizes = map[string]int64{}
	mpisim.NewWorld(k, 1, nil).Run(func(r *mpisim.Rank) {
		env := &posix.Env{FS: fs, Client: &pfs.Client{}, Monitor: &log}
		if err := Run(cfg, RankEnv{Rank: r, Env: env}); err != nil {
			t.Error(err)
			return
		}
		for _, name := range sharedFileNames(cfg) {
			fi, err := fs.Stat(r.Proc, env.Client, name)
			if err != nil {
				t.Error(err)
			}
			sizes[name] = fi.Size
		}
	})

	byPath = map[string][]writerCall{}
	for i, o := range log {
		var gap sim.Duration
		if o.op == posix.OpWrite {
			switch prev := log[i-1].end; o.start {
			case prev:
			case prev + seqOverhead:
				gap = seqOverhead
			default:
				gap = o.start - prev
			}
		}
		byPath[o.path] = append(byPath[o.path], writerCall{o.op, o.bytes, gap})
	}
	return cfg, byPath, sizes
}

// checkCalls compares the calls on each wanted path with want, and
// reports a wanted path that saw no call.
func checkCalls(t *testing.T, byPath, want map[string][]writerCall) {
	t.Helper()
	for path, w := range want {
		if calls, ok := byPath[path]; !ok {
			t.Errorf("no calls on %s", path)
		} else if !slices.Equal(calls, w) {
			t.Errorf("%s:\n got %v\nwant %v", path, calls, w)
		}
	}
}

// TestOriginalWriterSequence pins what the original writer hands POSIX for
// a rank file. A file of k·chunk + r bytes is a create, k writes of chunk
// and one of r, then a close, each write starting the per-flush overhead
// after the call before it ended. No path but the rank files, the history
// files and the deck sees a call.
func TestOriginalWriterSequence(t *testing.T) {
	cfg, byPath, _ := runOriginalWriter(t)
	rankFile := func(writes ...int64) []writerCall {
		calls := []writerCall{{op: posix.OpCreate}}
		for _, n := range writes {
			calls = append(calls, writerCall{posix.OpWrite, n, seqOverhead})
		}
		return append(calls, writerCall{op: posix.OpClose})
	}
	dat := rankFile(seqChunk, seqChunk, seqChunk, 100)
	want := map[string][]writerCall{
		"/out/bit1_000000.dat": slices.Concat(dat, dat, dat),      // three diagnostics
		"/out/bit1_000000.dmp": rankFile(seqChunk, seqChunk, 100), // one checkpoint
	}
	checkCalls(t, byPath, want)
	for path, calls := range byPath {
		if _, ok := want[path]; ok || slices.Contains(sharedFileNames(cfg), path) ||
			strings.HasSuffix(path, ".inp") || path == "/out" {
			continue
		}
		t.Errorf("unexpected calls on %s: %v", path, calls)
	}
}

// TestOriginalWriterHistory pins rank 0's history files: a create, one
// SharedFileBytes write an epoch, with no overhead, at the offset the
// epochs before it reached, and one close at the end of the run.
func TestOriginalWriterHistory(t *testing.T) {
	cfg, byPath, sizes := runOriginalWriter(t)
	want := map[string][]writerCall{}
	for _, name := range sharedFileNames(cfg) {
		history := []writerCall{{op: posix.OpCreate}}
		for range 3 {
			history = append(history, writerCall{posix.OpWrite, 128, 0})
		}
		want[name] = append(history, writerCall{op: posix.OpClose})
		if sizes[name] != 3*128 {
			t.Errorf("%s: %d bytes after three epochs, want %d", name, sizes[name], 3*128)
		}
	}
	if len(want) != 2 {
		t.Fatalf("%d history files, want 2", len(want))
	}
	checkCalls(t, byPath, want)
}

// TestOriginalWriterUnbuffered: a chunk <= 0 is an unbuffered stream, a
// byte a write.
func TestOriginalWriterUnbuffered(t *testing.T) {
	k := sim.NewKernel()
	fs := lustre.New(k, lustre.DefaultParams())
	var log opLog
	k.Spawn("unbuffered", func(p *sim.Proc) {
		env := &posix.Env{FS: fs, Client: &pfs.Client{}, Monitor: &log}
		if err := writeStdioVolume(p, env, "/out/u", 3, 0, 0); err != nil {
			t.Error(err)
		}
	})
	k.Run()
	if len(log) != 5 || log[1].bytes != 1 || log[2].bytes != 1 || log[3].bytes != 1 {
		t.Errorf("3 bytes through a chunk of 0: %v, want a create, 3 one-byte writes and a close", log)
	}
}

// TestRecreateAllocs: re-creating a rank's file through the descriptor
// writeStdioVolume holds on the rank's stack, writing it in chunks and
// closing it — BIT1's per-epoch .dat and .dmp — allocates nothing in bit1,
// posix or the file system.
func TestRecreateAllocs(t *testing.T) {
	world := func(n int) float64 {
		return testing.AllocsPerRun(5, func() {
			k := sim.NewKernel()
			env := &posix.Env{FS: lustre.New(k, lustre.DefaultParams()), Client: &pfs.Client{}}
			k.Spawn("r", func(p *sim.Proc) {
				for range n {
					if err := writeStdioVolume(p, env, "/out/bit1_000001.dmp", 8192+100, 1024, 1e-6); err != nil {
						t.Error(err)
						return
					}
				}
			})
			k.Run()
		})
	}
	if per := (world(110) - world(10)) / 100; per >= 0.5 {
		t.Errorf("a re-create, write and close allocates %.2f objects, want 0", per)
	} else {
		t.Logf("a re-create, write and close allocates %.2f objects", per)
	}
}
