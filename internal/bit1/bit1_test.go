package bit1

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"picmcio/internal/darshan"
	"picmcio/internal/lustre"
	"picmcio/internal/mpisim"
	"picmcio/internal/pfs"
	"picmcio/internal/posix"
	"picmcio/internal/sim"
	"picmcio/internal/units"
	"picmcio/internal/workload"
)

// deckGood and deckBad are the input decks the table tests below read,
// and the seeds of FuzzParseDeck.
const deckGood = `
# BIT1 input
datfile = run42
dmpstep = 500
mvflag  = 1
mvstep  = 100
last_step = 1000
`

var deckBad = []string{
	"nonsense line",
	"unknown_key = 3",
	"dmpstep = abc",
	"last_step = 0",
	"mvflag = 1\nmvstep = 0",
	"cells = 1024", // a size no run reads
}

func TestParseDeck(t *testing.T) {
	d, err := ParseDeck(deckGood)
	if err != nil {
		t.Fatal(err)
	}
	if d.DatFile != "run42" || d.DMPStep != 500 || d.MVStep != 100 || d.LastStep != 1000 {
		t.Fatalf("deck=%+v", d)
	}
	diags, checkpoints := 0, 0
	for _, e := range epochs(d) {
		if e.diag {
			diags++
		}
		if e.checkpoint {
			checkpoints++
		}
	}
	if diags != 10 || checkpoints != 2 {
		t.Fatalf("%d diagnostic and %d checkpoint epochs, want 10 and 2", diags, checkpoints)
	}
}

func TestParseDeckErrors(t *testing.T) {
	for _, bad := range deckBad {
		if _, err := ParseDeck(bad); err == nil {
			t.Errorf("deck %q accepted", bad)
		}
	}
}

// FuzzParseDeck: ParseDeck never panics, and a deck it accepts is valid.
func FuzzParseDeck(f *testing.F) {
	for _, src := range append([]string{deckGood}, deckBad...) {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		d, err := ParseDeck(src)
		if err != nil {
			return
		}
		if err := d.Validate(); err != nil {
			t.Fatalf("accepted deck %q does not validate: %v", src, err)
		}
	})
}

func TestEpochSchedule(t *testing.T) {
	d := InputDeck{DatFile: "x", LastStep: 1000, MVFlag: 1, MVStep: 300, DMPStep: 500}
	eps := epochs(d)
	// Diags at 300, 600, 900; checkpoints at 500, 1000 (last step).
	var steps []int
	for _, e := range eps {
		steps = append(steps, e.step)
	}
	want := []int{300, 500, 600, 900, 1000}
	if len(steps) != len(want) {
		t.Fatalf("steps=%v", steps)
	}
	for i := range want {
		if steps[i] != want[i] {
			t.Fatalf("steps=%v, want %v", steps, want)
		}
	}
	if !eps[4].checkpoint {
		t.Fatal("final step must checkpoint")
	}
}

// runBIT1 executes a small run and returns (fs, darshan log, elapsed).
func runBIT1(t *testing.T, mode IOMode, ranks int, toml string) (*lustre.FS, *darshan.Log, sim.Time) {
	t.Helper()
	k := sim.NewKernel()
	fs := lustre.New(k, lustre.DefaultParams())
	w := mpisim.NewWorld(k, ranks, mpisim.AlphaBeta(1e-6, 1.0/10e9))
	col := darshan.NewCollector()
	cfg := Config{
		Deck: InputDeck{
			DatFile: "bit1", LastStep: 400, MVFlag: 1, MVStep: 100, DMPStep: 200,
		},
		Sizing:         workload.Default(),
		OutDir:         "/out",
		Mode:           mode,
		OpenPMDOptions: toml,
	}
	// Scale sizing down so the test is light.
	cfg.Sizing.CheckpointTotalBytes = 4 * units.MiB
	cfg.Sizing.DiagSnapshotTotalBytes = 1 * units.MiB
	w.Run(func(r *mpisim.Rank) {
		env := &posix.Env{FS: fs, Client: &pfs.Client{}, Rank: r.ID, Monitor: col}
		if err := Run(cfg, RankEnv{Rank: r, Env: env}); err != nil {
			t.Error(err)
		}
	})
	end := k.Now()
	return fs, col.Snapshot(darshan.JobMeta{NProcs: ranks, RunSeconds: float64(end)}), end
}

func countFiles(fs *lustre.FS, dir string) (n int, total, maxSize int64) {
	fs.Namespace().WalkFiles(dir, func(p string, node *pfs.Node) {
		n++
		total += node.Size
		if node.Size > maxSize {
			maxSize = node.Size
		}
	})
	return
}

// A rank's file name is the name Join and Sprintf gave it, whatever the
// output directory looks like and however many digits the rank has; a
// plan cuts its world's names from one block, without allocating.
func TestRankFileName(t *testing.T) {
	deck := InputDeck{DatFile: "bit1", LastStep: 1, DMPStep: 1} // a plan checks its deck
	for _, dir := range []string{"/out", "/scratch//run/./x/", "rel/../out", strings.Repeat("/deep", 30)} {
		cfg := Config{Deck: deck, OutDir: dir, Mode: IOOriginal, Sizing: workload.Default()}
		pl := newPlan(cfg, 4)
		for _, rank := range []int{0, 7, 42, 99999, 100000, 123456, 999999, 1000000, 1234567, 98765432} {
			for _, ext := range []string{".dat", ".dmp"} {
				want := pfs.Join(dir, fmt.Sprintf("%s_%06d%s", cfg.Deck.DatFile, rank, ext))
				var b strings.Builder
				writeRankFile(&b, pl.rankFilePrefix, rank, ext)
				if got := b.String(); got != want {
					t.Errorf("writeRankFile(%d, %q) under %q = %q, want %q", rank, ext, dir, got, want)
				}
				if n := pl.rankNameLen(rank); n != len(want) {
					t.Errorf("rank %d's name under %q sized %d, want %d", rank, dir, n, len(want))
				}
			}
		}
	}
	// Worlds that cross 10⁶ ranks: the block's offsets count the extra digit.
	for _, ranks := range []int{1, 4, 1000003} {
		pl := newPlan(Config{Deck: deck, OutDir: "/out", Mode: IOOriginal, Sizing: workload.Default()}, ranks)
		if len(pl.rankNames) != pl.rankNamesBefore(ranks) {
			t.Errorf("%d ranks: a block of %d bytes, sized %d", ranks, len(pl.rankNames), pl.rankNamesBefore(ranks))
		}
		for _, rank := range []int{0, ranks / 2, 999999, 1000000, ranks - 1} {
			if rank >= ranks {
				continue
			}
			dat, dmp := pl.rankFiles(rank)
			if want := fmt.Sprintf("/out/bit1_%06d.dat", rank); dat != want {
				t.Errorf("%d ranks: rank %d's .dat is %q, want %q", ranks, rank, dat, want)
			}
			if want := fmt.Sprintf("/out/bit1_%06d.dmp", rank); dmp != want {
				t.Errorf("%d ranks: rank %d's .dmp is %q, want %q", ranks, rank, dmp, want)
			}
		}
	}
	pl := newPlan(Config{Deck: deck, OutDir: "/out", Mode: IOOriginal, Sizing: workload.Default()}, 5000)
	if n := testing.AllocsPerRun(100, func() { pl.rankFiles(4242) }); n != 0 {
		t.Errorf("rankFiles allocates %.0f objects, want 0", n)
	}
}

func TestOriginalFileCountMatchesTableII(t *testing.T) {
	fs, _, _ := runBIT1(t, IOOriginal, 8, "")
	n, total, _ := countFiles(fs, "/out")
	// Table II: 2·ranks + 6 files.
	if n != 2*8+6 {
		t.Fatalf("files=%d, want %d", n, 2*8+6)
	}
	if total <= 0 {
		t.Fatal("no data written")
	}
}

func TestOpenPMDFileCountMatchesTableII(t *testing.T) {
	// With NumAggregators=2: data.0 data.1 md.0 md.idx profiling.json
	// inside the .bp4 dir + 2 shared logs = 7 files (nAgg + 5).
	fs, _, _ := runBIT1(t, IOOpenPMD, 8, `
[adios2.engine.parameters]
NumAggregators = "2"
`)
	n, _, _ := countFiles(fs, "/out")
	if n != 2+5 {
		var names []string
		fs.Namespace().WalkFiles("/out", func(p string, _ *pfs.Node) { names = append(names, p) })
		t.Fatalf("files=%d, want 7: %v", n, names)
	}
}

func TestOpenPMDConstantFilesWith1Aggr(t *testing.T) {
	for _, ranks := range []int{2, 4, 8} {
		fs, _, _ := runBIT1(t, IOOpenPMD, ranks, `
[adios2.engine.parameters]
NumAggregators = "1"
`)
		n, _, _ := countFiles(fs, "/out")
		if n != 6 {
			t.Fatalf("ranks=%d: files=%d, want constant 6", ranks, n)
		}
	}
}

func TestCheckpointOverwriteKeepsPayloadBounded(t *testing.T) {
	// The .bp4 data payload must stay ~one snapshot even after several
	// epochs (iteration 0 overwrite), unlike a naive append.
	fs, _, _ := runBIT1(t, IOOpenPMD, 4, `
[adios2.engine.parameters]
NumAggregators = "1"
`)
	node, err := fs.Namespace().Lookup("/out/bit1_file.bp4/data.0")
	if err != nil {
		t.Fatal(err)
	}
	sz := workload.Default()
	sz.CheckpointTotalBytes = 4 * units.MiB
	sz.DiagSnapshotTotalBytes = 1 * units.MiB
	perRank := sz.PerRankCheckpoint(4) + sz.PerRankDiag(4)
	snapshot := 4 * perRank
	if node.Size > snapshot*3/2 {
		t.Fatalf("data.0 grew to %d (snapshot is %d): overwrite broken", node.Size, snapshot)
	}
}

func TestOpenPMDFasterThanOriginal(t *testing.T) {
	// The headline result: openPMD+BP4 writes the same volume in less
	// virtual time than the original stdio path.
	_, logO, endO := runBIT1(t, IOOriginal, 16, "")
	_, logP, endP := runBIT1(t, IOOpenPMD, 16, `
[adios2.engine.parameters]
NumAggregators = "2"
`)
	if endP >= endO {
		t.Fatalf("openPMD (%v) not faster than original (%v)", endP, endO)
	}
	_, metaO, _ := logO.PerProcessTimes()
	_, metaP, _ := logP.PerProcessTimes()
	if metaP >= metaO {
		t.Fatalf("openPMD metadata time %v not below original %v", metaP, metaO)
	}
}

func TestDarshanSeesOriginalWrites(t *testing.T) {
	_, log, _ := runBIT1(t, IOOriginal, 4, "")
	if log.TotalBytesWritten() == 0 {
		t.Fatal("darshan saw no writes")
	}
	// File-per-process: at least one record per rank file.
	perFile := log.FileSummaries()
	dats := 0
	for _, f := range perFile {
		if strings.Contains(f.Path, ".dat") || strings.Contains(f.Path, ".dmp") {
			dats++
		}
	}
	if dats < 8 {
		t.Fatalf("expected per-rank records, got %d", dats)
	}
}

func TestParseIOMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want IOMode
		ok   bool
	}{
		{"original", IOOriginal, true},
		{"openpmd", IOOpenPMD, true},
		{"OpenPMD", IOOpenPMD, true},
		{"ORIGINAL", IOOriginal, true},
		{"orignal", 0, false},
		{"", 0, false},
		{"openPMD+BP4", 0, false}, // String's label is not the flag's vocabulary
		{" original", 0, false},
	} {
		got, err := ParseIOMode(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParseIOMode(%q) = %v, %v; want %v, ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
		if err != nil && !strings.HasPrefix(err.Error(), "bit1:") {
			t.Errorf("ParseIOMode(%q): error %q does not say bit1:", tc.in, err)
		}
	}
}

func TestUnknownModeRejected(t *testing.T) {
	k := sim.NewKernel()
	fs := lustre.New(k, lustre.DefaultParams())
	w := mpisim.NewWorld(k, 1, nil)
	w.Run(func(r *mpisim.Rank) {
		env := &posix.Env{FS: fs, Client: &pfs.Client{}}
		err := Run(Config{Deck: DefaultDeck(), Sizing: workload.Default(), OutDir: "/o", Mode: IOMode(99)}, RankEnv{Rank: r, Env: env})
		if err == nil {
			t.Error("mode 99 accepted")
		}
	})
}

// TestSetupFailureIsEveryRanksError: when rank 0 cannot create the input
// deck, the output directory or a history file, every rank of the world
// returns the error — in both modes — rather than the others parking for
// good in the barrier or the collective rank 0 never reached.
func TestSetupFailureIsEveryRanksError(t *testing.T) {
	for _, tc := range []struct {
		name   string
		outDir string
		block  func(ns *pfs.Namespace) error // puts the obstacle in place
		want   error
	}{
		{"output directory is a regular file", "/out", func(ns *pfs.Namespace) error {
			_, err := ns.CreateFile("/out")
			return err
		}, pfs.ErrNotDir},
		{"input deck is a directory", "/out", func(ns *pfs.Namespace) error {
			_, err := ns.MkdirAll("/bit1.inp")
			return err
		}, pfs.ErrIsDir},
		{"input deck's directory is a regular file", "/top/out", func(ns *pfs.Namespace) error {
			_, err := ns.CreateFile("/top")
			return err
		}, pfs.ErrNotDir},
		{"history file is a directory", "/out", func(ns *pfs.Namespace) error {
			_, err := ns.MkdirAll("/out/bit1_global_0.dat")
			return err
		}, pfs.ErrIsDir},
	} {
		for _, modeName := range []string{"original", "openpmd"} {
			mode, _ := ParseIOMode(modeName)
			t.Run(tc.name+"/"+modeName, func(t *testing.T) {
				k := sim.NewKernel()
				fs := lustre.New(k, lustre.DefaultParams())
				if err := tc.block(fs.Namespace()); err != nil {
					t.Fatal(err)
				}
				const ranks = 4
				cfg := Config{Deck: InputDeck{DatFile: "bit1", LastStep: 200, MVFlag: 1, MVStep: 100, DMPStep: 100},
					Sizing: workload.Default(), OutDir: tc.outDir, Mode: mode}
				errs := make([]error, ranks)
				func() {
					defer func() {
						if r := recover(); r != nil {
							t.Fatalf("run panicked: %v", r)
						}
					}()
					mpisim.NewWorld(k, ranks, nil).Run(func(r *mpisim.Rank) {
						env := &posix.Env{FS: fs, Client: &pfs.Client{}, Rank: r.ID}
						errs[r.ID] = Run(cfg, RankEnv{Rank: r, Env: env})
					})
				}()
				for rank, err := range errs {
					if !errors.Is(err, tc.want) {
						t.Errorf("rank %d returned %v, want %v", rank, err, tc.want)
					}
				}
			})
		}
	}
}
