package openpmd

import (
	"strings"
	"testing"

	"picmcio/internal/lustre"
	"picmcio/internal/mpisim"
	"picmcio/internal/pfs"
	"picmcio/internal/posix"
	"picmcio/internal/sim"
)

type rig struct {
	k  *sim.Kernel
	fs *lustre.FS
	w  *mpisim.World
}

func newRig(ranks int) *rig {
	k := sim.NewKernel()
	return &rig{k: k, fs: lustre.New(k, lustre.DefaultParams()),
		w: mpisim.NewWorld(k, ranks, mpisim.AlphaBeta(1e-6, 1.0/10e9))}
}

func (rg *rig) host(r *mpisim.Rank) Host {
	return Host{Proc: r.Proc, Env: &posix.Env{FS: rg.fs, Client: &pfs.Client{}, Rank: r.ID}, Comm: r.Comm}
}

// tomlGood and tomlBad are the adaptor configurations the table tests
// below read, and the seeds of FuzzParseTOML.
const tomlGood = `
# BIT1 openPMD runtime configuration
[adios2.engine]
type = "bp4"

[adios2.engine.parameters]
NumAggregators = "400"
Profile = "on"

[adios2.dataset.operators]
type = "blosc"
level = 5
`

var tomlBad = []string{"[unterminated", "[]", "just a line", "= novalue"}

func TestTOMLParse(t *testing.T) {
	cfg, err := ParseTOML(tomlGood)
	if err != nil {
		t.Fatal(err)
	}
	for k, want := range map[string]string{
		"adios2.engine.type":                      "bp4",
		"adios2.engine.parameters.NumAggregators": "400",
		"adios2.dataset.operators.type":           "blosc",
		"adios2.dataset.operators.level":          "5",
	} {
		if got, ok := cfg.Get(k); !ok || got != want {
			t.Errorf("%s = %q (ok=%v), want %q", k, got, ok, want)
		}
	}
	if len(cfg.Keys()) != 5 {
		t.Errorf("keys=%v", cfg.Keys())
	}
}

func TestTOMLErrors(t *testing.T) {
	for _, bad := range tomlBad {
		if _, err := ParseTOML(bad); err == nil {
			t.Errorf("ParseTOML(%q) accepted", bad)
		}
	}
}

// FuzzParseTOML: ParseTOML never panics, and every key a configuration
// lists is non-empty, has no space at either end and is found by Get.
func FuzzParseTOML(f *testing.F) {
	for _, src := range append([]string{tomlGood}, tomlBad...) {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		cfg, err := ParseTOML(src)
		if err != nil {
			return
		}
		for _, k := range cfg.Keys() {
			if _, ok := cfg.Get(k); k == "" || strings.TrimSpace(k) != k || !ok {
				t.Fatalf("key %q of %q: found by Get %v", k, src, ok)
			}
		}
	})
}

// writeParticleSeries writes one iteration of particle positions to the
// series at path and returns the rig for inspection.
func writeParticleSeries(t *testing.T, path string, ranks, perRank int, toml string) *rig {
	t.Helper()
	rg := newRig(ranks)
	rg.w.Run(func(r *mpisim.Rank) {
		s, err := NewSeries(rg.host(r), path, AccessCreate, toml)
		if err != nil {
			t.Error(err)
			return
		}
		it, err := s.WriteIteration(100)
		if err != nil {
			t.Error(err)
			return
		}
		rc := it.Particles("e").Record("position").Component("x")
		total := uint64(ranks * perRank)
		if err := rc.ResetDataset(Dataset{Extent: []uint64{total}}); err != nil {
			t.Error(err)
			return
		}
		// Offsets computed the BIT1 way: exscan over local extents.
		off := uint64(r.Comm.ExscanI64(int64(perRank)))
		data := make([]float64, perRank)
		for i := range data {
			data[i] = float64(r.ID) + float64(i)/1000
		}
		if err := rc.StoreChunk([]uint64{off}, []uint64{uint64(perRank)}, data); err != nil {
			t.Error(err)
			return
		}
		if err := it.Close(); err != nil {
			t.Error(err)
			return
		}
		if err := s.Close(); err != nil {
			t.Error(err)
		}
	})
	return rg
}

func TestBP4BackendWriteRead(t *testing.T) {
	rg := writeParticleSeries(t, "/io/series.bp4", 4, 16, `
[adios2.engine.parameters]
NumAggregators = "2"
`)
	w2 := mpisim.NewWorld(rg.k, 1, nil)
	w2.Run(func(r *mpisim.Rank) {
		s, err := NewSeries(rg.host(r), "/io/series.bp4", AccessReadOnly, "")
		if err != nil {
			t.Error(err)
			return
		}
		its, err := s.Iterations()
		if err != nil || len(its) != 1 || its[0] != 100 {
			t.Errorf("iterations=%v err=%v", its, err)
			return
		}
		it, _ := s.ReadIteration(100)
		rc := it.Particles("e").Record("position").Component("x")
		data, shape, err := rc.Load()
		if err != nil {
			t.Error(err)
			return
		}
		if shape[0] != 64 || len(data) != 64 {
			t.Errorf("shape=%v len=%d", shape, len(data))
		}
		if data[17] != 1.0+1.0/1000 { // rank 1, i=1
			t.Errorf("data[17]=%v", data[17])
		}
		s.Close()
	})
}

// Two ranks write a mesh record under the standard's mesh path; one rank
// reads it back by that path.
func TestMeshNamingSchema(t *testing.T) {
	rg := newRig(2)
	rg.w.Run(func(r *mpisim.Rank) {
		s, err := NewSeries(rg.host(r), "/m.bp4", AccessCreate, "")
		if err != nil {
			t.Error(err)
			return
		}
		it, _ := s.WriteIteration(7)
		rc := it.Meshes("density").Component(Scalar)
		rc.ResetDataset(Dataset{Extent: []uint64{8}})
		data := make([]float64, 4)
		for i := range data {
			data[i] = float64(10*r.ID + i)
		}
		if err := rc.StoreChunk([]uint64{uint64(4 * r.ID)}, []uint64{4}, data); err != nil {
			t.Error(err)
		}
		it.Close()
		s.Close()
	})
	mpisim.NewWorld(rg.k, 1, nil).Run(func(r *mpisim.Rank) {
		s, err := NewSeries(rg.host(r), "/m.bp4", AccessReadOnly, "")
		if err != nil {
			t.Error(err)
			return
		}
		it, _ := s.ReadIteration(7)
		rc := it.Meshes("density").Component(Scalar)
		if p := rc.Path(); p != "/data/7/meshes/density" {
			t.Errorf("mesh path %q", p)
		}
		data, shape, err := rc.Load()
		if err != nil {
			t.Error(err)
		} else if len(shape) != 1 || shape[0] != 8 || len(data) != 8 || data[5] != 11 {
			t.Errorf("shape=%v data=%v, want [8] with data[5] = 11", shape, data)
		}
		s.Close()
	})
}

func TestValidationErrors(t *testing.T) {
	rg := newRig(1)
	rg.w.Run(func(r *mpisim.Rank) {
		s, _ := NewSeries(rg.host(r), "/v.bp4", AccessCreate, "")
		it, _ := s.WriteIteration(0)
		rc := it.Particles("e").Record("position").Component("x")
		if err := rc.StoreChunk([]uint64{0}, []uint64{4}, make([]float64, 4)); err == nil {
			t.Error("StoreChunk before ResetDataset accepted")
		}
		rc.ResetDataset(Dataset{Extent: []uint64{8}})
		if err := rc.StoreChunk([]uint64{0}, []uint64{4}, make([]float64, 3)); err == nil {
			t.Error("mis-sized chunk accepted")
		}
		if _, err := s.WriteIteration(1); err == nil {
			t.Error("second concurrent iteration accepted")
		}
		it.Close()
		if err := it.Close(); err == nil {
			t.Error("double Close accepted")
		}
		s.Close()
	})
}

// A series is BP4 and nothing else: every other path is an error naming
// the path.
func TestUnknownBackendRejected(t *testing.T) {
	rg := newRig(1)
	rg.w.Run(func(r *mpisim.Rank) {
		for _, path := range []string{"/x.h5", "/x.json", "/x.bp5", "/x.bp"} {
			_, err := NewSeries(rg.host(r), path, AccessCreate, "")
			if err == nil || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), ".bp4") {
				t.Errorf("NewSeries(%q): %v, want an error naming it and .bp4", path, err)
			}
		}
	})
}

// A burst_* key other than the top-level burst_buffer and
// burst_durability — any burst_* key under [adios2.engine] — is an
// openPMD error naming it on every rank: a typo, a removed QoS knob or a
// misplaced key does not run silently as if unset.
func TestUnknownBurstKeyRejected(t *testing.T) {
	for _, c := range []struct{ toml, key string }{
		{"burst_buffer = true\nburst_drain_limit = \"2e9\"\n", "burst_drain_limit"},
		{"burst_bufer = true\n", "burst_bufer"},
		{"[adios2.engine]\nburst_qos_priority = true\n", "adios2.engine.burst_qos_priority"},
		{"[adios2.engine]\nburst_buffer = true\n", "adios2.engine.burst_buffer"},
	} {
		const ranks = 3
		rg := newRig(ranks)
		failed := 0
		rg.w.Run(func(r *mpisim.Rank) {
			_, err := NewSeries(rg.host(r), "/x.bp4", AccessCreate, c.toml)
			if err == nil || !strings.HasPrefix(err.Error(), "openpmd:") || !strings.Contains(err.Error(), `"`+c.key+`"`) {
				t.Errorf("rank %d, %q: %v, want an openpmd: error naming %q", r.ID, c.toml, err, c.key)
				return
			}
			failed++
		})
		if failed != ranks {
			t.Errorf("%q: %d of %d ranks got the error", c.toml, failed, ranks)
		}
	}
}

func TestCheckpointIterationOverwrite(t *testing.T) {
	// Re-writing iteration 0 (BIT1's checkpoint pattern) must not grow
	// the BP4 subfile.
	rg := newRig(2)
	var size2, size4 int64
	rg.w.Run(func(r *mpisim.Rank) {
		s, err := NewSeries(rg.host(r), "/ck.bp4", AccessCreate, `
[adios2.engine.parameters]
NumAggregators = "1"
Profile = "off"
`)
		if err != nil {
			t.Error(err)
			return
		}
		for rep := 0; rep < 4; rep++ {
			it, err := s.WriteIteration(0)
			if err != nil {
				t.Error(err)
				return
			}
			rc := it.Particles("D+").Record("position").Component("x")
			rc.ResetDataset(Dataset{Extent: []uint64{64}})
			rc.StoreChunk([]uint64{uint64(32 * r.ID)}, []uint64{32}, make([]float64, 32))
			it.Close()
			if r.ID == 0 && rep == 1 {
				fi, _ := rg.host(r).Env.Stat(r.Proc, "/ck.bp4/data.0")
				size2 = fi.Size
			}
		}
		if r.ID == 0 {
			fi, _ := rg.host(r).Env.Stat(r.Proc, "/ck.bp4/data.0")
			size4 = fi.Size
		}
		s.Close()
	})
	if size4 != size2 || size2 == 0 {
		t.Fatalf("iteration-0 overwrite grew file: %d -> %d", size2, size4)
	}
}

func TestBloscConfigFlowsThrough(t *testing.T) {
	rg := writeParticleSeries(t, "/c.bp4", 2, 512, `
[adios2.engine.parameters]
NumAggregators = "1"

[adios2.dataset.operators]
type = "blosc"
`)
	// Compressed subfile should be smaller than raw payload.
	n, err := rg.fs.Namespace().Lookup("/c.bp4/data.0")
	if err != nil {
		t.Fatal(err)
	}
	raw := int64(2*512*8 + 2*64)
	if n.Size >= raw {
		t.Fatalf("blosc did not shrink: %d >= %d", n.Size, raw)
	}
	// And it must read back correctly.
	w2 := mpisim.NewWorld(rg.k, 1, nil)
	w2.Run(func(r *mpisim.Rank) {
		s, err := NewSeries(rg.host(r), "/c.bp4", AccessReadOnly, "")
		if err != nil {
			t.Error(err)
			return
		}
		it, _ := s.ReadIteration(100)
		data, _, err := it.Particles("e").Record("position").Component("x").Load()
		if err != nil {
			t.Error(err)
			return
		}
		if data[512+3] != 1.0+3.0/1000 {
			t.Errorf("data=%v", data[512+3])
		}
		s.Close()
	})
}
