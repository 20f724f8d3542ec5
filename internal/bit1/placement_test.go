package bit1

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"picmcio/internal/lustre"
	"picmcio/internal/mpisim"
	"picmcio/internal/pfs"
	"picmcio/internal/posix"
	"picmcio/internal/sim"
	"picmcio/internal/units"
	"picmcio/internal/workload"
)

// describePlacement is a file's Lustre layout as lfs getstripe reports it.
func describePlacement(fs *lustre.FS, path string) string {
	l, err := fs.GetStripe(path)
	if err != nil {
		return err.Error()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "count=%d stripe_size=%d offset=%d", l.StripeCount, l.StripeSize, l.StripeOffset)
	for _, o := range l.Objects {
		fmt.Fprintf(&b, " %d:%d", o.OBDIdx, o.ObjID)
	}
	return b.String()
}

// placementTrace runs a 3-epoch Original BIT1 world of 4 ranks on Lustre,
// then re-creates one rank file under each of three changed conditions
// (its directory's stripe count raised, then lowered, then raised within
// what it had), writing to each incarnation. It reports every file's
// placement after the run and after each re-create, with the virtual
// times — what must not move however the placement state is allocated.
func placementTrace(t *testing.T) string {
	t.Helper()
	k := sim.NewKernel()
	p := lustre.DefaultParams()
	p.JitterFrac, p.Seed = 0.05, 3 // metadata jitter interleaves its draws with placement's
	fs := lustre.New(k, p)
	w := mpisim.NewWorld(k, 4, mpisim.AlphaBeta(1e-6, 1.0/10e9))
	cfg := Config{
		Deck:   InputDeck{DatFile: "bit1", LastStep: 300, MVFlag: 1, MVStep: 100, DMPStep: 100},
		Sizing: workload.Default(),
		OutDir: "/out",
		Mode:   IOOriginal,
	}
	cfg.Sizing.CheckpointTotalBytes = 8 * units.MiB
	cfg.Sizing.DiagSnapshotTotalBytes = 2 * units.MiB
	w.Run(func(r *mpisim.Rank) {
		env := &posix.Env{FS: fs, Client: &pfs.Client{}, Rank: r.ID}
		if err := Run(cfg, RankEnv{Rank: r, Env: env}); err != nil {
			t.Error(err)
		}
	})

	var out strings.Builder
	dump := func(what string) {
		fmt.Fprintf(&out, "== %s at %x\n", what, float64(k.Now()))
		fs.Namespace().WalkFiles("/", func(path string, n *pfs.Node) {
			fmt.Fprintf(&out, "%s size=%d %s\n", path, n.Size, describePlacement(fs, path))
		})
	}
	dump("after 3 epochs")
	const path = "/out/bit1_000000.dat"
	for i, stripe := range []struct {
		count int
		size  int64
	}{{4, units.MiB}, {2, 2 * units.MiB}, {3, units.MiB}} {
		if err := fs.SetStripe("/out", stripe.count, stripe.size); err != nil {
			t.Fatal(err)
		}
		k.Spawn("recreate", func(p *sim.Proc) {
			c := &pfs.Client{}
			f, err := fs.Create(p, c, path)
			if err != nil {
				t.Error(err)
				return
			}
			f.WriteAt(p, c, 0, 5*units.MiB, nil)
			f.Close(p, c)
		})
		k.Run()
		dump(fmt.Sprintf("re-create %d", i+1))
	}
	return out.String()
}

// TestPlacementFence pins every file's placement state — Lustre's stripe
// offset, OST indexes and object IDs — and the virtual times of a
// file-per-process BIT1 run and of re-creates after its directory's
// striping changes, byte for byte against a capture made before re-creates
// recycled placement state. It runs on fresh storage and on the nodes and
// placements a larger file system released. A divergence is saved as
// testdata/placement_lustre.got.txt; the subtest is named for its file.
func TestPlacementFence(t *testing.T) {
	t.Run("lustre", func(t *testing.T) {
		file := filepath.Join("testdata", "placement_lustre.txt")
		want, err := os.ReadFile(file)
		for _, run := range []struct {
			name  string
			pools func()
		}{{"fresh", emptyPools}, {"recycled", dirtyPools}} {
			run.pools()
			got := placementTrace(t)
			if err == nil && got == string(want) {
				continue
			}
			gotFile := strings.TrimSuffix(file, ".txt") + ".got.txt"
			if werr := os.WriteFile(gotFile, []byte(got), 0o644); werr != nil {
				t.Logf("could not save diverging trace: %v", werr)
			}
			if err != nil {
				t.Fatalf("%v (trace saved to %s)", err, gotFile)
			}
			t.Fatalf("%s placement diverged from the capture (saved to %s)", run.name, gotFile)
		}
	})
}

// emptyPools empties the node and placement pools: a pool keeps at most
// what its last release gave, and a file system of no files gives none.
func emptyPools() { lustre.New(sim.NewKernel(), lustre.DefaultParams()).Release() }

// dirtyPools fills the node and placement pools with the full chunks of a
// file system of written, striped files.
func dirtyPools() {
	k := sim.NewKernel()
	fs := lustre.New(k, lustre.DefaultParams())
	if err := fs.SetStripe("/dirty", 4, units.MiB); err != nil {
		panic(err)
	}
	k.Spawn("dirty", func(p *sim.Proc) {
		c := &pfs.Client{}
		for i := range 3000 {
			f, err := fs.Create(p, c, fmt.Sprintf("/dirty/f%d", i))
			if err != nil {
				panic(err)
			}
			f.WriteAt(p, c, 0, 3, []byte("abc"))
		}
	})
	k.Run()
	fs.Release()
}
