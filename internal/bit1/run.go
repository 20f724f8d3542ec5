package bit1

import (
	"fmt"
	"strconv"
	"strings"

	"picmcio/internal/mpisim"
	"picmcio/internal/openpmd"
	"picmcio/internal/pfs"
	"picmcio/internal/posix"
	"picmcio/internal/sim"
	"picmcio/internal/workload"
)

// IOMode selects the output path.
type IOMode int

// Output paths of the paper.
const (
	IOOriginal IOMode = iota // serial stdio file-per-process (baseline)
	IOOpenPMD                // openPMD adaptor → ADIOS2 BP4
)

// String implements fmt.Stringer.
func (m IOMode) String() string {
	if m == IOOpenPMD {
		return "openPMD+BP4"
	}
	return "Original I/O"
}

// ParseIOMode maps the name of an output path, "original" or "openpmd" in
// any case, to its mode. Anything else is an error: a typo'd mode must not
// run the other experiment.
func ParseIOMode(s string) (IOMode, error) {
	switch strings.ToLower(s) {
	case "original":
		return IOOriginal, nil
	case "openpmd":
		return IOOpenPMD, nil
	}
	return 0, fmt.Errorf("bit1: unknown I/O mode %q (want original or openpmd)", s)
}

// Config describes one BIT1 run.
type Config struct {
	Deck   InputDeck
	Sizing workload.Sizing
	OutDir string
	Mode   IOMode
	// OpenPMDOptions is the TOML configuration handed to the adaptor
	// (engine parameters, aggregators, compression).
	OpenPMDOptions string
	// ComputePerStep charges virtual compute time per PIC step between
	// output epochs (0 for pure-I/O experiments).
	ComputePerStep sim.Duration
	// StdioOverhead is the per-flush synchronous cost of the original
	// stdio writer on the target machine (cluster.Machine.StdioWriteOverhead).
	StdioOverhead sim.Duration
}

// RankEnv supplies the per-rank simulation context.
type RankEnv struct {
	Rank *mpisim.Rank
	Env  *posix.Env
}

// Run executes the BIT1 time-step loop for one rank. It is the function
// launched once per rank under mpisim. Collective operations inside
// require every rank of the world to call Run with the same config.
func Run(cfg Config, re RankEnv) error {
	pl := planFor(&cfg, re.Rank.Comm)
	if pl.err != nil {
		return pl.err
	}
	if err := readInputDeck(pl, re); err != nil {
		return err
	}
	return runSteps(pl, re)
}

// planFor returns the world's plan for cfg, built by the first rank that
// asks. It is small enough to inline, and must not be: the memo key and
// the builder's copy of cfg would then lie in Run's frame, under every
// rank's parks — the original writer's streams need the room.
//
//go:noinline
func planFor(cfg *Config, comm *mpisim.Comm) *plan {
	return mpisim.Memo(comm, *cfg, func() *plan { return newPlan(*cfg, comm.Size()) })
}

// inputDeckBytes is the size of the input file every rank reads at start
// ("a relatively small (1-3 kB) file read by all processes", §II) — the
// only read operation in a BIT1 run, visible as the constant read bar of
// Fig. 5.
const inputDeckBytes = 2048

// readInputDeck has rank 0 stage the input file, then every rank read it.
// A deck rank 0 cannot create is every rank's error.
func readInputDeck(pl *plan, re RankEnv) error {
	r, env, p := re.Rank, re.Env, re.Rank.Proc
	path := pl.inputPath
	var fd posix.FD
	var err error
	if r.ID == 0 {
		if err = env.OpenFD(&fd, p, path, posix.Truncate); err == nil {
			fd.Write(p, inputDeckBytes, nil)
			fd.Close(p)
		}
	}
	if err = r.Comm.BarrierErr(err); err != nil {
		return err
	}
	if err = env.OpenFD(&fd, p, path, posix.ReadOnly); err != nil {
		return err
	}
	fd.Read(p, inputDeckBytes)
	fd.Close(p)
	r.Comm.Barrier()
	return nil
}

// plan is what a run derives from its config and the size of the world
// alone, so that one rank works it out for all of them (mpisim.Memo): it
// is immutable once built. It carries the config, so that the frames a
// rank parks under hold a pointer and not a copy of it.
type plan struct {
	cfg       Config
	inputPath string
	epochs    []epoch
	shared    []string // rank 0's global history files

	// Original mode only: a rank's bytes per diagnostic and per checkpoint,
	// what its two files' names start with, and every rank's two names in
	// one block (see rankFiles).
	diagBytes, checkpointBytes int64
	rankFilePrefix, rankNames  string

	// openPMD mode only.
	seriesPath string
	schema     *openpmd.Schema // the snapshot's components
	elems      []int64         // per-rank elements of each, per epoch

	err error // why the config cannot run: the rest is unset
}

func newPlan(cfg Config, ranks int) *plan {
	pl := &plan{cfg: cfg}
	if pl.err = cfg.Deck.Validate(); pl.err != nil {
		return pl
	}
	if cfg.Mode != IOOriginal && cfg.Mode != IOOpenPMD {
		pl.err = fmt.Errorf("bit1: unknown I/O mode %d", cfg.Mode)
		return pl
	}
	pl.inputPath = pfs.Join(cfg.OutDir, "..", cfg.Deck.DatFile+".inp")
	pl.epochs, pl.shared = epochs(cfg.Deck), sharedFileNames(cfg)
	if cfg.Mode == IOOriginal {
		pl.diagBytes, pl.checkpointBytes = cfg.Sizing.PerRankDiag(ranks), cfg.Sizing.PerRankCheckpoint(ranks)
		pl.rankFilePrefix = pfs.Join(cfg.OutDir, cfg.Deck.DatFile+"_")
		var b strings.Builder
		b.Grow(pl.rankNamesBefore(ranks))
		for r := range ranks {
			writeRankFile(&b, pl.rankFilePrefix, r, ".dat")
			writeRankFile(&b, pl.rankFilePrefix, r, ".dmp")
		}
		pl.rankNames = b.String()
	}
	if cfg.Mode == IOOpenPMD {
		pl.seriesPath = pfs.Join(cfg.OutDir, cfg.Deck.DatFile+"_file.bp4")
		pl.schema, pl.err = openpmd.NewSchema(snapshotComponents(cfg.Sizing.NVars), openpmd.Float64, 1)
		pl.elems = cfg.Sizing.PerRankSnapshotElems(ranks)
	}
	return pl
}

// epoch describes one output event in the step loop.
type epoch struct {
	step       int
	diag       bool
	checkpoint bool
}

// epochs enumerates the output schedule of a deck, in step order.
func epochs(d InputDeck) []epoch {
	var out []epoch
	for s := 1; s <= d.LastStep; s++ {
		diag := d.MVFlag > 0 && d.MVStep > 0 && s%d.MVStep == 0
		ck := s%d.DMPStep == 0 || s == d.LastStep
		if diag || ck {
			out = append(out, epoch{step: s, diag: diag, checkpoint: ck})
		}
	}
	return out
}

// sharedFileNames lists the rank-0 global outputs for a mode.
func sharedFileNames(cfg Config) []string {
	n := cfg.Sizing.SharedFilesOriginal
	if cfg.Mode == IOOpenPMD {
		n = cfg.Sizing.SharedFilesOpenPMD
	}
	names := make([]string, n)
	for i := range names {
		names[i] = pfs.Join(cfg.OutDir, fmt.Sprintf("%s_global_%d.dat", cfg.Deck.DatFile, i))
	}
	return names
}

// writeRankFile writes the name of a rank's own file, <prefix><rank, six
// digits or more><ext>: with the plan's clean prefix,
// <OutDir>/<DatFile>_000042.dat.
func writeRankFile(b *strings.Builder, prefix string, rank int, ext string) {
	var buf [20]byte
	digits := strconv.AppendInt(buf[:0], int64(rank), 10)
	b.WriteString(prefix)
	for range 6 - len(digits) {
		b.WriteByte('0')
	}
	b.Write(digits)
	b.WriteString(ext)
}

// rankNameLen is the length of either of a rank's names: the prefix, six
// digits or more, and a four-byte extension.
func (pl *plan) rankNameLen(rank int) int {
	n := len(pl.rankFilePrefix) + 6 + len(".dat")
	for p := 1000000; p <= rank; p *= 10 {
		n++
	}
	return n
}

// rankNamesBefore is how many bytes the names of ranks [0, rank) take in
// the plan's block: two a rank, each one byte longer for every rank from
// 10⁶, 10⁷, … on.
func (pl *plan) rankNamesBefore(rank int) int {
	n := rank * pl.rankNameLen(0)
	for p := 1000000; p < rank; p *= 10 {
		n += rank - p
	}
	return 2 * n
}

// rankFiles returns a rank's .dat and .dmp names, cut from the plan's
// block without allocating.
func (pl *plan) rankFiles(rank int) (dat, dmp string) {
	off, n := pl.rankNamesBefore(rank), pl.rankNameLen(rank)
	return pl.rankNames[off : off+n], pl.rankNames[off+n : off+2*n]
}

// runSteps is BIT1's one time-step loop on a rank, in either output
// mode; the two differ only in what an epoch writes. In the original mode
// every rank re-creates its own .dat at each diagnostic epoch and its .dmp
// at each checkpoint, through buffered stdio: the file-per-process pattern
// whose metadata cost collapses at scale (Figs. 2–5). In the openPMD mode,
// the paper's integration, every rank accumulates its vectors and saves
// them as openPMD iteration 0, overwritten with the latest system state,
// through ADIOS2 BP4. Rank 0 also appends the global history files at
// each diagnostic epoch.
func runSteps(pl *plan, re RankEnv) error {
	r, env, p := re.Rank, re.Env, re.Rank.Proc
	cfg, sz := &pl.cfg, &pl.cfg.Sizing

	var shared []posix.FD
	var err error
	if r.ID == 0 {
		if err = env.MkdirAll(p, cfg.OutDir); err == nil {
			shared, err = openShared(p, env, pl.shared)
		}
	}
	if err = r.Comm.BarrierErr(err); err != nil {
		return err
	}
	var ad *adaptor
	if cfg.Mode == IOOpenPMD {
		ad, err = newAdaptor(openpmd.Host{Proc: p, Env: env, Comm: r.Comm}, pl.seriesPath, cfg.OpenPMDOptions, pl.schema)
		if err != nil {
			return err
		}
	}

	prev := 0
	for _, ep := range pl.epochs {
		if cfg.ComputePerStep > 0 {
			p.Sleep(cfg.ComputePerStep * sim.Duration(ep.step-prev))
		}
		prev = ep.step
		if ad != nil {
			// The latest system state (checkpoint and diagnostics) goes
			// into the global vectors, flushed as iteration 0.
			for i, n := range pl.elems {
				ad.accumulateVolume(i, n)
			}
			if err := ad.saveIteration(0); err != nil {
				return err
			}
		} else if ep.diag {
			dat, _ := pl.rankFiles(r.ID)
			if err := writeStdioVolume(p, env, dat, pl.diagBytes, sz.StdioChunk, cfg.StdioOverhead); err != nil {
				return err
			}
		}
		if ep.diag {
			for i := range shared {
				writeChunked(p, &shared[i], sz.SharedFileBytes, sz.StdioChunk, 0)
			}
		}
		if ad == nil && ep.checkpoint {
			_, dmp := pl.rankFiles(r.ID)
			if err := writeStdioVolume(p, env, dmp, pl.checkpointBytes, sz.StdioChunk, cfg.StdioOverhead); err != nil {
				return err
			}
		}
	}
	for i := range shared {
		shared[i].Close(p)
	}
	if ad != nil {
		if err := ad.close(); err != nil {
			return err
		}
	}
	r.Comm.Barrier()
	return nil
}

// openShared is rank 0's part of a run's setup: it creates the global
// history files.
func openShared(p *sim.Proc, env *posix.Env, names []string) ([]posix.FD, error) {
	shared := make([]posix.FD, len(names))
	for i, name := range names {
		if err := env.OpenFD(&shared[i], p, name, posix.Truncate); err != nil {
			return nil, err
		}
	}
	return shared, nil
}

// writeStdioVolume re-creates path and writes n bytes to it as BIT1's
// formatted output reaches POSIX (writeChunked). The descriptor is the
// rank's, on its stack: an epoch's re-create allocates nothing.
func writeStdioVolume(p *sim.Proc, env *posix.Env, path string, n, chunk int64, overhead sim.Duration) error {
	var fd posix.FD
	if err := env.OpenFD(&fd, p, path, posix.Truncate); err != nil {
		return err
	}
	writeChunked(p, &fd, n, chunk, overhead)
	fd.Close(p)
	return nil
}

// writeChunked writes n bytes at fd's offset the way a C stdio buffer of
// chunk bytes spills them: min(n, chunk) bytes a write, the last one
// short, each after overhead of synchronous client cost (formatting, VFS
// and the RPC round trip that make BIT1's fprintf slow even on an idle
// file system). A chunk <= 0 is an unbuffered stream: one byte a write.
// The overhead before each write but the first rides on the previous
// write's wait, and the full chunks are one posix.FD.WritePause.
func writeChunked(p *sim.Proc, fd *posix.FD, n, chunk int64, overhead sim.Duration) {
	if n <= 0 {
		return
	}
	if chunk <= 0 {
		chunk = 1
	}
	if overhead > 0 {
		p.Sleep(overhead)
	}
	full := (n - 1) / chunk
	fd.WritePause(p, int(full), chunk, nil, overhead)
	fd.Write(p, n-full*chunk, nil)
}

// snapshotComponents names the openPMD components the snapshot is spread
// over: species × (position + momentum components), then mesh profiles.
func snapshotComponents(n int) []openpmd.ComponentName {
	species := []string{"e", "D+", "D"}
	records := []openpmd.ComponentName{
		{Record: "position", Component: "x"},
		{Record: "momentum", Component: "x"},
		{Record: "momentum", Component: "y"},
		{Record: "momentum", Component: "z"},
	}
	var out []openpmd.ComponentName
	for _, sp := range species {
		for _, rec := range records {
			if len(out) == n {
				return out
			}
			rec.Species = sp
			out = append(out, rec)
		}
	}
	for i := len(out); i < n; i++ {
		out = append(out, openpmd.ComponentName{Mesh: true, Record: fmt.Sprintf("profile%d", i), Component: openpmd.Scalar})
	}
	return out
}
