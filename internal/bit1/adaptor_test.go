package bit1

import (
	"fmt"
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

// schemaOf is the adaptor's schema of the named components.
func schemaOf(tb testing.TB, names ...openpmd.ComponentName) *openpmd.Schema {
	tb.Helper()
	schema, err := openpmd.NewSchema(names, 1)
	if err != nil {
		tb.Fatal(err)
	}
	return schema
}

// particle names component comp of a species' record.
func particle(species, record, comp string) openpmd.ComponentName {
	return openpmd.ComponentName{Species: species, Record: record, Component: comp}
}

const profileOff = "[adios2.engine.parameters]\nProfile = \"off\""

func TestAdaptorAccumulateAndSave(t *testing.T) {
	schema := schemaOf(t, particle("e", "position", "x"))
	rg := newRig(4)
	rg.w.Run(func(r *mpisim.Rank) {
		ad, err := newAdaptor(rg.host(r), "/io/adapt.bp4", `
[adios2.engine.parameters]
NumAggregators = "1"
`, schema)
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
		ad.accumulateFloats(0, vals[:1])
		ad.accumulateFloats(0, vals[1:]) // appends, any_function_save style
		if !ad.pending(0) {
			t.Error("nothing pending after accumulating")
		}
		if err := ad.saveIteration(0); err != nil {
			t.Error(err)
			return
		}
		if ad.pending(0) {
			t.Error("vectors not cleared after save")
		}
		if err := ad.close(); err != nil {
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
	schema := schemaOf(t, particle("D+", "position", "x"), particle("D+", "momentum", "x"))
	rg := newRig(8)
	rg.w.Run(func(r *mpisim.Rank) {
		ad, err := newAdaptor(rg.host(r), "/v.bp4", `
[adios2.engine.parameters]
NumAggregators = "2"
Profile = "off"
`, schema)
		if err != nil {
			t.Error(err)
			return
		}
		ad.accumulateVolume(0, 1000)
		ad.accumulateVolume(1, 1000)
		if err := ad.saveIteration(0); err != nil {
			t.Error(err)
			return
		}
		if err := ad.close(); err != nil {
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
	schema := schemaOf(t, openpmd.ComponentName{Mesh: true, Record: "density", Component: openpmd.Scalar})
	rg := newRig(2)
	rg.w.Run(func(r *mpisim.Rank) {
		ad, err := newAdaptor(rg.host(r), "/m.bp4", "", schema)
		if err != nil {
			t.Error(err)
			return
		}
		ad.accumulateFloats(0, []float64{float64(r.ID), float64(r.ID) + 0.5})
		if err := ad.saveIteration(5); err != nil {
			t.Error(err)
			return
		}
		ad.close()
	})
	mpisim.NewWorld(rg.k, 1, nil).Run(func(r *mpisim.Rank) {
		s, err := openpmd.NewSeries(rg.host(r), "/m.bp4", openpmd.AccessReadOnly, "")
		if err != nil {
			t.Error(err)
			return
		}
		it, _ := s.ReadIteration(5)
		rc := it.Meshes("density").Component(openpmd.Scalar)
		if p := rc.Path(); p != "/data/5/meshes/density" {
			t.Errorf("density path %q", p)
		}
		data, shape, err := rc.Load()
		if err != nil {
			t.Error(err)
		} else if len(shape) != 1 || shape[0] != 4 || fmt.Sprint(data) != "[0 0.5 1 1.5]" {
			t.Errorf("density shape %v data %v, want [4] and [0 0.5 1 1.5]", shape, data)
		}
		s.Close()
	})
}

func TestAdaptorRepeatedIterationZero(t *testing.T) {
	// The checkpoint pattern: save iteration 0 many times; payload stays
	// bounded at one snapshot.
	schema := schemaOf(t, particle("e", "position", "x"))
	rg := newRig(2)
	rg.w.Run(func(r *mpisim.Rank) {
		ad, err := newAdaptor(rg.host(r), "/ck.bp4", `
[adios2.engine.parameters]
NumAggregators = "1"
Profile = "off"
`, schema)
		if err != nil {
			t.Error(err)
			return
		}
		for rep := 0; rep < 6; rep++ {
			ad.accumulateVolume(0, 500)
			if err := ad.saveIteration(0); err != nil {
				t.Error(err)
				return
			}
		}
		ad.close()
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

func TestAdaptorClosedRejectsSave(t *testing.T) {
	schema := schemaOf(t, particle("e", "position", "x"))
	rg := newRig(1)
	rg.w.Run(func(r *mpisim.Rank) {
		ad, _ := newAdaptor(rg.host(r), "/c.bp4", profileOff, schema)
		ad.close()
		if err := ad.saveIteration(0); err == nil {
			t.Error("save after close accepted")
		}
		if err := ad.close(); err != nil {
			t.Error("double close should be a no-op")
		}
	})
}

func TestTOMLAggregatorsReachEngine(t *testing.T) {
	schema := schemaOf(t, particle("e", "position", "x"))
	rg := newRig(8)
	rg.w.Run(func(r *mpisim.Rank) {
		ad, err := newAdaptor(rg.host(r), "/agg.bp4", `
[adios2.engine.parameters]
NumAggregators = "4"
Profile = "off"
`, schema)
		if err != nil {
			t.Error(err)
			return
		}
		ad.accumulateVolume(0, 10)
		ad.saveIteration(0)
		ad.close()
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

// A particle component and a mesh are written side by side through one
// block of numbers, resolved together and again when another iteration is
// opened; a component nothing was accumulated into is left out of a save.
func TestComponentsAcrossIterations(t *testing.T) {
	schema := schemaOf(t,
		particle("e", "position", "x"),
		openpmd.ComponentName{Mesh: true, Record: "density", Component: openpmd.Scalar},
		particle("e", "momentum", "x"))
	add := []float64{0, 0.25, 0.5}
	rg := newRig(2)
	rg.w.Run(func(r *mpisim.Rank) {
		ad, err := newAdaptor(rg.host(r), "/both.bp4", profileOff, schema)
		if err != nil {
			t.Error(err)
			return
		}
		// 3 numbers per component for openPMD and ADIOS2 and a volume
		// accumulator each (one block: TestOpenAllocations counts it);
		// no content accumulators until values arrive.
		if len(ad.nums) != 3*3 || len(ad.vols) != 3 || ad.floats != nil {
			t.Errorf("a schema of 3 made %d numbers, %d volume accumulators and %d content accumulators",
				len(ad.nums), len(ad.vols), len(ad.floats))
		}
		for _, id := range []uint64{0, 1, 0} {
			v := float64(10*id) + float64(r.ID)
			for i, a := range add {
				if i == 2 && id == 1 {
					continue // iteration 1 has no momentum
				}
				ad.accumulateFloats(i, []float64{v + a})
			}
			if err := ad.saveIteration(id); err != nil {
				t.Error(err)
				return
			}
		}
		ad.close()
	})
	mpisim.NewWorld(rg.k, 1, nil).Run(func(r *mpisim.Rank) {
		s, err := openpmd.NewSeries(rg.host(r), "/both.bp4", openpmd.AccessReadOnly, "")
		if err != nil {
			t.Error(err)
			return
		}
		for _, id := range []uint64{0, 1} {
			it, _ := s.ReadIteration(id)
			for i, rc := range []*openpmd.RecordComponent{
				it.Particles("e").Record("position").Component("x"),
				it.Meshes("density").Component(openpmd.Scalar),
				it.Particles("e").Record("momentum").Component("x"),
			} {
				got, _, err := rc.Load()
				if i == 2 && id == 1 {
					if err == nil {
						t.Errorf("iteration 1 holds %s: %v", rc.Path(), got)
					}
					continue
				}
				want := []float64{float64(10*id) + add[i], float64(10*id) + 1 + add[i]}
				if err != nil || len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
					t.Errorf("iteration %d, %s: %v (%v), want %v", id, rc.Path(), got, err, want)
				}
			}
		}
		s.Close()
	})
}

// Values and a volume accumulated into one component between two saves is
// an error naming it, from every rank that did it and before anything
// collective: nobody is left parked, the world drains, and the adaptor
// still closes.
func TestMixedAccumulationIsAnError(t *testing.T) {
	schema := schemaOf(t, particle("e", "position", "x"), particle("e", "momentum", "x"))
	for i := 0; i < schema.Len(); i++ {
		rg := newRig(4)
		failed := 0
		rg.w.Run(func(r *mpisim.Rank) {
			ad, err := newAdaptor(rg.host(r), "/mixed.bp4", profileOff, schema)
			if err != nil {
				t.Error(err)
				return
			}
			ad.accumulateFloats(i, []float64{1, 2})
			ad.accumulateVolume(i, 7)
			err = ad.saveIteration(0)
			if want := fmt.Sprintf("bit1: component %d ", i); err == nil || !strings.HasPrefix(err.Error(), want) {
				t.Errorf("rank %d: saving component %d after values and a volume: %v, want an error beginning %q", r.ID, i, err, want)
				return
			}
			failed++
			if err := ad.close(); err != nil {
				t.Error(err)
			}
		})
		if failed != 4 {
			t.Errorf("component %d: %d of 4 ranks got the error", i, failed)
		}
	}
}
