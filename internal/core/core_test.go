package core

import (
	"strings"
	"testing"

	"picmcio/internal/lustre"
	"picmcio/internal/mpisim"
	"picmcio/internal/openpmd"
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

func (rg *rig) host(r *mpisim.Rank) openpmd.Host {
	return openpmd.Host{Proc: r.Proc, Env: &posix.Env{FS: rg.fs, Client: &pfs.Client{}, Rank: r.ID}, Comm: r.Comm}
}

func TestAdaptorAccumulateAndSave(t *testing.T) {
	rg := newRig(4)
	rg.w.Run(func(r *mpisim.Rank) {
		ad, err := NewAdaptor(rg.host(r), "/io/adapt.bp4", `
[adios2.engine.parameters]
NumAggregators = "1"
`)
		if err != nil {
			t.Error(err)
			return
		}
		// Variable-length per-rank vectors: rank i holds i+1 values, the
		// exscan-offset case BIT1 hits with unequal particle counts.
		vals := make([]float64, r.ID+1)
		for i := range vals {
			vals[i] = float64(100*r.ID + i)
		}
		ad.AccumulateFloats("e/position/x", vals[:1])
		ad.AccumulateFloats("e/position/x", vals[1:]) // appends, any_function_save style
		if ad.PendingVars() != 1 {
			t.Errorf("pending=%d", ad.PendingVars())
		}
		if err := ad.SaveIteration(0); err != nil {
			t.Error(err)
			return
		}
		if ad.PendingVars() != 0 {
			t.Error("vectors not cleared after save")
		}
		if err := ad.Close(); err != nil {
			t.Error(err)
		}
	})
	// Read back: global extent 1+2+3+4 = 10, rank-ordered.
	w2 := mpisim.NewWorld(rg.k, 1, nil)
	w2.Run(func(r *mpisim.Rank) {
		s, err := openpmd.NewSeries(rg.host(r), "/io/adapt.bp4", openpmd.AccessReadOnly, "")
		if err != nil {
			t.Error(err)
			return
		}
		it, _ := s.ReadIteration(0)
		data, shape, err := it.Particles("e").Record("position").Component("x").Load()
		if err != nil {
			t.Error(err)
			return
		}
		if shape[0] != 10 {
			t.Errorf("global extent=%v, want 10", shape)
		}
		want := []float64{0, 100, 101, 200, 201, 202, 300, 301, 302, 303}
		for i := range want {
			if data[i] != want[i] {
				t.Errorf("data=%v, want %v", data, want)
				return
			}
		}
		s.Close()
	})
}

func TestAdaptorVolumeMode(t *testing.T) {
	rg := newRig(8)
	rg.w.Run(func(r *mpisim.Rank) {
		ad, err := NewAdaptor(rg.host(r), "/v.bp4", `
[adios2.engine.parameters]
NumAggregators = "2"
Profile = "off"
`)
		if err != nil {
			t.Error(err)
			return
		}
		ad.AccumulateVolume("D+/position/x", 1000)
		ad.AccumulateVolume("D+/momentum/x", 1000)
		if err := ad.SaveIteration(0); err != nil {
			t.Error(err)
			return
		}
		if err := ad.Close(); err != nil {
			t.Error(err)
		}
	})
	var data int64
	rg.fs.Namespace().WalkFiles("/v.bp4", func(p string, n *pfs.Node) {
		if len(p) > 5 && p[len(p)-6:len(p)-1] == "data." {
			data += n.Size
		}
	})
	want := int64(8 * 2 * (1000*8 + 64))
	if data != want {
		t.Fatalf("volume payload=%d, want %d", data, want)
	}
}

func TestAdaptorMeshComponent(t *testing.T) {
	rg := newRig(2)
	rg.w.Run(func(r *mpisim.Rank) {
		ad, err := NewAdaptor(rg.host(r), "/m.json", "")
		if err != nil {
			t.Error(err)
			return
		}
		ad.AccumulateFloats("meshes/density", []float64{float64(r.ID), float64(r.ID)})
		if err := ad.SaveIteration(5); err != nil {
			t.Error(err)
			return
		}
		ad.Close()
	})
	if _, err := rg.fs.Namespace().Lookup("/m.json/data/5.json"); err != nil {
		t.Fatal(err)
	}
}

func TestAdaptorRepeatedIterationZero(t *testing.T) {
	// The checkpoint pattern: save iteration 0 many times; payload stays
	// bounded at one snapshot.
	rg := newRig(2)
	rg.w.Run(func(r *mpisim.Rank) {
		ad, err := NewAdaptor(rg.host(r), "/ck.bp4", `
[adios2.engine.parameters]
NumAggregators = "1"
Profile = "off"
`)
		if err != nil {
			t.Error(err)
			return
		}
		for rep := 0; rep < 6; rep++ {
			ad.AccumulateVolume("e/position/x", 500)
			if err := ad.SaveIteration(0); err != nil {
				t.Error(err)
				return
			}
		}
		ad.Close()
	})
	n, err := rg.fs.Namespace().Lookup("/ck.bp4/data.0")
	if err != nil {
		t.Fatal(err)
	}
	want := int64(2 * (500*8 + 64))
	if n.Size != want {
		t.Fatalf("data.0=%d after 6 overwrites, want %d", n.Size, want)
	}
}

func TestAdaptorBadComponentName(t *testing.T) {
	rg := newRig(1)
	rg.w.Run(func(r *mpisim.Rank) {
		ad, _ := NewAdaptor(rg.host(r), "/b.bp4", "[adios2.engine.parameters]\nProfile = \"off\"")
		ad.AccumulateFloats("way/too/deep/name", []float64{1})
		if err := ad.SaveIteration(0); err == nil {
			t.Error("4-part name accepted")
		}
		ad.Close()
	})
}

func TestAdaptorClosedRejectsSave(t *testing.T) {
	rg := newRig(1)
	rg.w.Run(func(r *mpisim.Rank) {
		ad, _ := NewAdaptor(rg.host(r), "/c.bp4", "[adios2.engine.parameters]\nProfile = \"off\"")
		ad.Close()
		if err := ad.SaveIteration(0); err == nil {
			t.Error("save after close accepted")
		}
		if err := ad.Close(); err != nil {
			t.Error("double close should be a no-op")
		}
	})
}

func TestTOMLAggregatorsReachEngine(t *testing.T) {
	rg := newRig(8)
	rg.w.Run(func(r *mpisim.Rank) {
		ad, err := NewAdaptor(rg.host(r), "/agg.bp4", `
[adios2.engine.parameters]
NumAggregators = "4"
Profile = "off"
`)
		if err != nil {
			t.Error(err)
			return
		}
		ad.AccumulateVolume("e/position/x", 10)
		ad.SaveIteration(0)
		ad.Close()
	})
	nData := 0
	rg.fs.Namespace().WalkFiles("/agg.bp4", func(p string, n *pfs.Node) {
		if len(p) >= 6 && p[:6] == "/agg.b" && p[len(p)-6:len(p)-1] == "data." {
			nData++
		}
	})
	if nData != 4 {
		t.Fatalf("subfiles=%d, want 4", nData)
	}
}

// A declared schema and a component accumulated under a name it does not
// hold are written side by side: the declared ones resolved together, the
// other on its own, and again when another iteration is opened.
func TestDeclaredAndNamedComponentsTogether(t *testing.T) {
	schema, err := NewSchema([]string{"e/position/x", "meshes/density"})
	if err != nil {
		t.Fatal(err)
	}
	rg := newRig(2)
	rg.w.Run(func(r *mpisim.Rank) {
		ad, err := NewAdaptor(rg.host(r), "/both.bp4", "[adios2.engine.parameters]\nProfile = \"off\"")
		if err == nil {
			err = ad.Declare(schema)
		}
		if err != nil {
			t.Error(err)
			return
		}
		// For the schema: 3 numbers per component for openPMD and ADIOS2
		// and a volume accumulator each (one block: TestOpenAllocations
		// counts it); nothing else until a component is named.
		if len(ad.nums) != 2*3 || len(ad.vols) != 2 || ad.floats != nil || ad.named != nil {
			t.Errorf("a schema of 2 made %d numbers, %d volume accumulators, %d content accumulators and %d named handles",
				len(ad.nums), len(ad.vols), len(ad.floats), len(ad.named))
		}
		if err := ad.Declare(schema); err == nil {
			t.Error("second Declare accepted")
		}
		for _, id := range []uint64{0, 1, 0} {
			v := float64(10*id) + float64(r.ID)
			ad.AccumulateFloats("e/position/x", []float64{v})
			ad.AccumulateFloats("meshes/density", []float64{v + 0.25})
			ad.AccumulateFloats("e/momentum/x", []float64{v + 0.5})
			if err := ad.SaveIteration(id); err != nil {
				t.Error(err)
				return
			}
		}
		if len(ad.names) != 3 || len(ad.vols) != 3 || len(ad.floats) != 3 || len(ad.named) != 1 {
			t.Errorf("after the saves: %d names, %d volume and %d content accumulators, %d named handles, want 3, 3, 3 and 1", len(ad.names), len(ad.vols), len(ad.floats), len(ad.named))
		}
		ad.Close()
	})
	mpisim.NewWorld(rg.k, 1, nil).Run(func(r *mpisim.Rank) {
		s, err := openpmd.NewSeries(rg.host(r), "/both.bp4", openpmd.AccessReadOnly, "")
		if err != nil {
			t.Error(err)
			return
		}
		for _, id := range []uint64{0, 1} {
			it, _ := s.ReadIteration(id)
			for name, rc := range map[string]*openpmd.RecordComponent{
				"e/position/x":   it.Particles("e").Record("position").Component("x"),
				"meshes/density": it.Meshes("density").Component(openpmd.Scalar),
				"e/momentum/x":   it.Particles("e").Record("momentum").Component("x"),
			} {
				add := map[string]float64{"e/position/x": 0, "meshes/density": 0.25, "e/momentum/x": 0.5}[name]
				want := []float64{float64(10*id) + add, float64(10*id) + 1 + add}
				if got, _, err := rc.Load(); err != nil || len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
					t.Errorf("iteration %d, %s: %v (%v), want %v", id, name, got, err, want)
				}
			}
		}
		s.Close()
	})
	if _, err := NewSchema([]string{"e/position/x", "way/too/deep/name"}); err == nil {
		t.Error("a schema with a 4-part name accepted")
	}
}

// Values and a volume accumulated into one component between two saves is
// an error naming it, from every rank that did it and before anything
// collective: nobody is left parked, the world drains, and the adaptor
// still closes.
func TestMixedAccumulationIsAnError(t *testing.T) {
	schema, err := NewSchema([]string{"e/position/x"})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"e/position/x", "e/momentum/x"} {
		rg := newRig(4)
		failed := 0
		rg.w.Run(func(r *mpisim.Rank) {
			ad, err := NewAdaptor(rg.host(r), "/mixed.bp4", "[adios2.engine.parameters]\nProfile = \"off\"")
			if err == nil {
				err = ad.Declare(schema)
			}
			if err != nil {
				t.Error(err)
				return
			}
			ad.AccumulateFloats(name, []float64{1, 2})
			ad.AccumulateVolume(name, 7)
			err = ad.SaveIteration(0)
			if err == nil || !strings.HasPrefix(err.Error(), "core:") || !strings.Contains(err.Error(), name) {
				t.Errorf("rank %d: saving %s after values and a volume: %v, want a core: error naming it", r.ID, name, err)
				return
			}
			failed++
			if err := ad.Close(); err != nil {
				t.Error(err)
			}
		})
		if failed != 4 {
			t.Errorf("%s: %d of 4 ranks got the error", name, failed)
		}
	}
}
