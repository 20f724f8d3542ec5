package openpmd

import (
	"encoding/json"
	"reflect"
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

// writeParticleSeries writes one iteration of particle positions with the
// given backend suffix and returns the rig for inspection.
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
		if err := rc.ResetDataset(Dataset{Type: Float64, Extent: []uint64{total}}); err != nil {
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
		if err := s.Flush(); err != nil {
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

func TestJSONBackendWriteRead(t *testing.T) {
	rg := writeParticleSeries(t, "/io/series.json", 3, 8, "")
	// The JSON file must literally exist and contain the naming schema.
	n, err := rg.fs.Namespace().Lookup("/io/series.json/data/100.json")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(n.Content), "/data/100/particles/e/position/x") {
		t.Fatalf("JSON missing openPMD path:\n%.300s", n.Content)
	}
	w2 := mpisim.NewWorld(rg.k, 1, nil)
	w2.Run(func(r *mpisim.Rank) {
		s, err := NewSeries(rg.host(r), "/io/series.json", AccessReadOnly, "")
		if err != nil {
			t.Error(err)
			return
		}
		it, _ := s.ReadIteration(100)
		data, shape, err := it.Particles("e").Record("position").Component("x").Load()
		if err != nil {
			t.Error(err)
			return
		}
		if shape[0] != 24 || data[9] != 1.0+1.0/1000 {
			t.Errorf("shape=%v data[9]=%v", shape, data[9])
		}
		s.Close()
	})
}

func TestMeshNamingSchema(t *testing.T) {
	rg := newRig(2)
	rg.w.Run(func(r *mpisim.Rank) {
		s, _ := NewSeries(rg.host(r), "/m.json", AccessCreate, "")
		it, _ := s.WriteIteration(7)
		rc := it.Meshes("density").Component(Scalar)
		rc.ResetDataset(Dataset{Type: Float64, Extent: []uint64{8}})
		off := uint64(4 * r.ID)
		rc.StoreChunk([]uint64{off}, []uint64{4}, make([]float64, 4))
		it.Close()
		s.Close()
	})
	n, err := rg.fs.Namespace().Lookup("/m.json/data/7.json")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(n.Content), "/data/7/meshes/density") {
		t.Fatal("mesh naming schema missing")
	}
}

// Every series reads the standard's seven attributes from one table; what
// SetAttribute stores — over one of them or beside them — is that
// series' alone, and the JSON backend writes the merged set.
func TestStandardAttributes(t *testing.T) {
	rg := newRig(1)
	rg.w.Run(func(r *mpisim.Rank) {
		s, _ := NewSeries(rg.host(r), "/a.json", AccessCreate, "")
		other, _ := NewSeries(rg.host(r), "/b.json", AccessCreate, "")
		if v, ok := s.attributes()["openPMD"]; !ok || v != "1.1.0" {
			t.Errorf("openPMD attr = %q", v)
		}
		if v := s.attributes()["iterationEncoding"]; v != "groupBased" {
			t.Errorf("encoding attr = %q", v)
		}
		s.SetAttribute("author", "BIT1 team")
		s.SetAttribute("software", "BIT1")
		s.SetAttribute("software", "BIT1 v2")
		if v := s.attributes()["software"]; v != "BIT1 v2" {
			t.Errorf("software attr = %q after SetAttribute", v)
		}
		if v := other.attributes()["software"]; v != "picmcio" {
			t.Errorf("another series' software attr = %q", v)
		}
		if v, ok := other.attributes()["author"]; ok {
			t.Errorf("another series has author = %q", v)
		}
		s.Close()
		other.Close()
	})
	for path, want := range map[string]map[string]string{
		"/a.json": {"author": "BIT1 team", "software": "BIT1 v2"},
		"/b.json": {"software": "picmcio"},
	} {
		n, err := rg.fs.Namespace().Lookup(path + "/attributes.json")
		if err != nil {
			t.Fatal(err)
		}
		var got map[string]string
		if err := json.Unmarshal(n.Content, &got); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for _, a := range standardAttrs {
			if _, over := want[a.key]; !over {
				want[a.key] = a.value
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s/attributes.json holds %v, want %v", path, got, want)
		}
	}
}

func TestValidationErrors(t *testing.T) {
	rg := newRig(1)
	rg.w.Run(func(r *mpisim.Rank) {
		s, _ := NewSeries(rg.host(r), "/v.json", AccessCreate, "")
		it, _ := s.WriteIteration(0)
		rc := it.Particles("e").Record("position").Component("x")
		if err := rc.StoreChunk([]uint64{0}, []uint64{4}, make([]float64, 4)); err == nil {
			t.Error("StoreChunk before ResetDataset accepted")
		}
		rc.ResetDataset(Dataset{Type: Float64, Extent: []uint64{8}})
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

func TestUnknownBackendRejected(t *testing.T) {
	rg := newRig(1)
	rg.w.Run(func(r *mpisim.Rank) {
		if _, err := NewSeries(rg.host(r), "/x.h5", AccessCreate, ""); err == nil {
			t.Error("h5 backend accepted")
		}
	})
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
			rc.ResetDataset(Dataset{Type: Float64, Extent: []uint64{64}})
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
