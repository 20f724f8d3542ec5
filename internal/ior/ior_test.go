package ior

import (
	"errors"
	"strings"
	"testing"

	"picmcio/internal/lustre"
	"picmcio/internal/mpisim"
	"picmcio/internal/pfs"
	"picmcio/internal/posix"
	"picmcio/internal/sim"
)

func run(t *testing.T, cfg Config, ranks int) (*Result, *lustre.FS) {
	t.Helper()
	k := sim.NewKernel()
	fs := lustre.New(k, lustre.DefaultParams())
	w := mpisim.NewWorld(k, ranks, mpisim.AlphaBeta(1e-6, 1.0/10e9))
	res, err := Run(cfg, w, func(r *mpisim.Rank) *posix.Env {
		return &posix.Env{FS: fs, Client: &pfs.Client{}, Rank: r.ID}
	})
	if err != nil {
		t.Fatal(err)
	}
	return res, fs
}

func TestFilePerProcCreatesNFiles(t *testing.T) {
	cfg := DefaultConfig(8)
	cfg.FilePerProc = true
	cfg.BlockSize = 4 << 20
	res, fs := run(t, cfg, 8)
	if res.FilesCreated != 8 {
		t.Fatalf("files=%d", res.FilesCreated)
	}
	n := 0
	fs.Namespace().WalkFiles("/ior", func(p string, node *pfs.Node) {
		n++
		if node.Size != 4<<20 {
			t.Errorf("%s size=%d", p, node.Size)
		}
	})
	if n != 8 {
		t.Fatalf("on-disk files=%d", n)
	}
	if res.WriteBandwidth <= 0 || res.WriteBytes != 8*4<<20 {
		t.Fatalf("result=%+v", res)
	}
}

func TestSharedFileSingleFile(t *testing.T) {
	cfg := DefaultConfig(8)
	cfg.BlockSize = 1 << 20
	res, fs := run(t, cfg, 8)
	if res.FilesCreated != 1 {
		t.Fatalf("files=%d", res.FilesCreated)
	}
	node, err := fs.Namespace().Lookup("/ior/testFile")
	if err != nil {
		t.Fatal(err)
	}
	if node.Size != 8<<20 {
		t.Fatalf("shared file size=%d, want 8 MiB", node.Size)
	}
}

func TestReadBackWithReorder(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.FilePerProc = true
	cfg.BlockSize = 1 << 20
	cfg.ReadBack = true
	res, _ := run(t, cfg, 4)
	if res.ReadBytes != res.WriteBytes || res.ReadBandwidth <= 0 {
		t.Fatalf("read result=%+v", res)
	}
}

func TestFPPBeatsSharedOnWrite(t *testing.T) {
	// The Fig. 4 ordering: file-per-process avoids shared-file
	// serialization and single-layout limits.
	shared := DefaultConfig(16)
	shared.BlockSize = 8 << 20
	fpp := shared
	fpp.FilePerProc = true
	rs, _ := run(t, shared, 16)
	rf, _ := run(t, fpp, 16)
	if rf.WriteBandwidth <= rs.WriteBandwidth {
		t.Fatalf("FPP %.3g not above shared %.3g", rf.WriteBandwidth, rs.WriteBandwidth)
	}
}

func TestCommandLineRendering(t *testing.T) {
	cfg := DefaultConfig(25600)
	cfg.FilePerProc = true
	got := cfg.CommandLine()
	want := "srun -n 25600 ior -N=25600 -a POSIX -F -C -e"
	if got != want {
		t.Fatalf("cmdline=%q, want %q", got, want)
	}
	cfg.FilePerProc = false
	if !strings.Contains(cfg.CommandLine(), "-a POSIX -C -e") {
		t.Fatalf("shared cmdline=%q", cfg.CommandLine())
	}
	// The read phase and sizes off Table I's are part of the run.
	cfg.ReadBack, cfg.TransferSize, cfg.BlockSize = true, 2<<20, 8<<20+512
	if got, want := cfg.CommandLine(), "srun -n 25600 ior -N=25600 -a POSIX -C -e -r -t 2m -b 8389120"; got != want {
		t.Fatalf("cmdline=%q, want %q", got, want)
	}
	cfg.TransferSize, cfg.BlockSize = 4<<10, 1<<30
	if got, want := cfg.CommandLine(), "srun -n 25600 ior -N=25600 -a POSIX -C -e -r -t 4k -b 1g"; got != want {
		t.Fatalf("cmdline=%q, want %q", got, want)
	}
}

func TestValidation(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.API = "HDF5"
	if err := cfg.Validate(); err == nil {
		t.Error("HDF5 accepted")
	}
	cfg = DefaultConfig(0)
	if err := cfg.Validate(); err == nil {
		t.Error("0 tasks accepted")
	}
	cfg = DefaultConfig(2)
	cfg.TransferSize = 0
	if err := cfg.Validate(); err == nil {
		t.Error("0 transfer accepted")
	}
}

// TestSetupFailureIsEveryRanksError: a test directory that cannot be made
// and a file one rank cannot create end the run with that error on every
// rank, instead of leaving the ranks that did not fail parked for good.
func TestSetupFailureIsEveryRanksError(t *testing.T) {
	for _, tc := range []struct {
		name, existing string
		dir            bool
		want           error
	}{
		{"mkdir", "/ior", false, pfs.ErrNotDir},
		{"create", "/ior/testFile.00000002", true, pfs.ErrIsDir},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := sim.NewKernel()
			fs := lustre.New(k, lustre.DefaultParams())
			ns := fs.Namespace()
			var err error
			if tc.dir {
				_, err = ns.MkdirAll(tc.existing)
			} else {
				_, err = ns.CreateFile(tc.existing)
			}
			if err != nil {
				t.Fatal(err)
			}
			cfg := DefaultConfig(4)
			cfg.FilePerProc = true
			w := mpisim.NewWorld(k, 4, mpisim.AlphaBeta(1e-6, 1.0/10e9))
			res, err := Run(cfg, w, func(r *mpisim.Rank) *posix.Env {
				return &posix.Env{FS: fs, Client: &pfs.Client{}, Rank: r.ID}
			})
			if !errors.Is(err, tc.want) || res != nil {
				t.Fatalf("Run = %v, %v; want nil, %v", res, err, tc.want)
			}
		})
	}
}
