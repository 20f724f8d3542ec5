package openpmd

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"picmcio/internal/mpisim"
	"picmcio/internal/pfs"
)

func testSchema(t *testing.T, n int) (*Schema, []ComponentName) {
	t.Helper()
	names := make([]ComponentName, n)
	for i := range names {
		names[i] = ComponentName{Species: fmt.Sprint("s", i), Record: "momentum", Component: "x"}
	}
	names[n-1] = ComponentName{Mesh: true, Record: "density", Component: Scalar}
	s, err := NewSchema(names, 1)
	if err != nil {
		t.Fatal(err)
	}
	return s, names
}

// The settings every rank's IO reads are one per options document, not one
// per world: two series opened side by side with different options each
// get their own, and a rank that changes a parameter of its IO after the
// open changes nobody else's — not another rank's, and not the template a
// later series of the same options is forked from.
func TestSharedSettingsAreNotAliased(t *testing.T) {
	const ranks = 16
	rg := newRig(ranks)
	wide := "[adios2.engine.parameters]\nNumAggregators = \"16\"\nProfile = \"off\"\n\n[adios2.dataset.operators]\ntype = \"blosc\"\n"
	narrow := "[adios2.engine.parameters]\nNumAggregators = \"2\"\nProfile = \"off\"\n"
	rg.w.Run(func(r *mpisim.Rank) {
		a, errA := NewSeries(rg.host(r), "/wide.bp4", AccessCreate, wide)
		b, errB := NewSeries(rg.host(r), "/narrow.bp4", AccessCreate, narrow)
		if errA != nil || errB != nil {
			t.Error(errA, errB)
			return
		}
		// Ranks run one after another up to their next collective: what
		// each sets here, a shared setting would hand to the ranks after
		// it and to the series below, which would then write 1 to 3
		// subfiles, not 16. (adios2's TestForkSharesSettingsCopyOnWrite
		// holds the operator to travel with the parameters.)
		a.io.SetParameter("NumAggregators", fmt.Sprint(1+r.ID%3))
		r.Comm.Barrier()
		again, err := NewSeries(rg.host(r), "/again.bp4", AccessCreate, wide)
		if err != nil {
			t.Error(err)
			return
		}
		again.Close()
		a.Close()
		b.Close()
	})
	for path, want := range map[string]int{"/wide.bp4": 16, "/narrow.bp4": 2, "/again.bp4": 16} {
		subfiles := 0
		rg.fs.Namespace().WalkFiles(path, func(p string, _ *pfs.Node) {
			if strings.Contains(p, "/data.") {
				subfiles++
			}
		})
		if subfiles != want {
			t.Errorf("%s has %d subfiles, want %d", path, subfiles, want)
		}
	}
}

// A malformed engine parameter, or an engine other than BP4, in the
// options reaches every rank as the same error from NewSeries, before any
// of them is parked in a collective: the world drains.
func TestNewSeriesRejectsMalformedParameter(t *testing.T) {
	for _, c := range []struct{ options, prefix, value string }{
		{"[adios2.engine.parameters]\nNumAggregators = \"1O\"\n", "adios2: bad NumAggregators", `"1O"`},
		{"[adios2.engine]\ntype = \"bp5\"\n", "openpmd: unsupported adios2 engine", `"bp5"`},
	} {
		rg := newRig(4)
		failed := 0
		rg.w.Run(func(r *mpisim.Rank) {
			_, err := NewSeries(rg.host(r), "/typo.bp4", AccessCreate, c.options)
			if err == nil || !strings.HasPrefix(err.Error(), c.prefix) || !strings.Contains(err.Error(), c.value) {
				t.Errorf("rank %d: NewSeries with %s: %v, want %s %s", r.ID, c.value, err, c.prefix, c.value)
				return
			}
			failed++
		})
		if failed != 4 {
			t.Errorf("%s: %d of 4 ranks got the error", c.value, failed)
		}
	}
}

// Components resolves a schema to what the one-at-a-time calls resolve its
// names to, and the paths are built by one rank for all.
func TestComponentsMatchOneAtATime(t *testing.T) {
	schema, names := testSchema(t, 5)
	rg := newRig(4)
	builders := 0
	rg.w.Run(func(r *mpisim.Rank) {
		s, err := NewSeries(rg.host(r), "/schema.bp4", AccessCreate, "[adios2.engine.parameters]\nProfile = \"off\"")
		if err != nil {
			t.Error(err)
			return
		}
		it, _ := s.WriteIteration(3)
		before := rg.w.MemoBuilds()
		nums := make([]uint64, schema.RowWords())
		cs, err := it.Components(schema, nums)
		if err != nil || len(cs.paths) != len(names) {
			t.Errorf("Components: %d components, %v", len(cs.paths), err)
			return
		}
		if rg.w.MemoBuilds() != before {
			builders++
		}
		if _, err := it.Components(schema, nums[1:]); err == nil {
			t.Error("a block one number short accepted")
		}
		for i, n := range names {
			single := it.Particles(n.Species).Record(n.Record).Component(n.Component)
			if n.Mesh {
				single = it.Meshes(n.Record).Component(n.Component)
			}
			rc := cs.At(i)
			if rc.Path() != single.Path() {
				t.Errorf("component %d is %s, one at a time %s", i, rc.Path(), single.Path())
			}
			if err := rc.ResetDataset(Dataset{Extent: []uint64{4}}); err != nil {
				t.Error(err)
			}
			if err := rc.StoreChunk([]uint64{uint64(r.ID)}, []uint64{1}, []float64{1}); err != nil {
				t.Error(err)
			}
			// The block is the one place the numbers are, in the
			// order extent, offset, count.
			if got, want := [3]uint64(nums[3*i:3*i+3]), [3]uint64{4, uint64(r.ID), 1}; got != want {
				t.Errorf("component %d: the block holds %v, want %v", i, got, want)
			}
			if err := rc.ResetDataset(Dataset{Extent: []uint64{4, 4}}); err == nil {
				t.Error("a 2-D dataset in a schema of 1-D ones accepted")
			}
		}
		it.Close()
		if _, err := it.Components(schema, nums); err == nil {
			t.Error("Components on a closed iteration accepted")
		}
		s.Close()
	})
	if builders != 1 {
		t.Errorf("%d ranks built memo values resolving the schema, want one", builders)
	}
	if _, err := NewSchema(names, 0); err == nil {
		t.Error("a schema of 0-dimensional datasets accepted")
	}
}

// What a schema shares between ranks stops at names and paths: four ranks
// store different offsets and counts into one declared schema, and the
// metadata and the data read back are each rank's own block.
func TestSelectionsStayPerRank(t *testing.T) {
	const ranks, comps = 4, 3
	schema, _ := testSchema(t, comps)
	rg := newRig(ranks)
	// Rank r holds r+1 elements of every component.
	offset := func(r int) uint64 { return uint64(r * (r + 1) / 2) }
	const total = ranks * (ranks + 1) / 2
	rg.w.Run(func(r *mpisim.Rank) {
		s, err := NewSeries(rg.host(r), "/sel.bp4", AccessCreate, "[adios2.engine.parameters]\nNumAggregators = \"2\"\nProfile = \"off\"")
		if err != nil {
			t.Error(err)
			return
		}
		it, _ := s.WriteIteration(0)
		cs, err := it.Components(schema, make([]uint64, schema.RowWords()))
		if err != nil {
			t.Error(err)
			return
		}
		for c := 0; c < len(cs.paths); c++ {
			data := make([]float64, r.ID+1)
			for i := range data {
				data[i] = float64(100*c + 10*r.ID + i)
			}
			if err := cs.At(c).ResetDataset(Dataset{Extent: []uint64{total}}); err != nil {
				t.Error(err)
			}
			if err := cs.At(c).StoreChunk([]uint64{offset(r.ID)}, []uint64{uint64(r.ID + 1)}, data); err != nil {
				t.Error(err)
			}
		}
		it.Close()
		s.Close()
	})

	// What bpls reads: one chunk record per rank and component.
	md, err := rg.fs.Namespace().Lookup("/sel.bp4/md.0")
	if err != nil {
		t.Fatal(err)
	}
	var rec struct {
		Chunks []struct {
			Var          string
			Start, Count []uint64
		}
	}
	if err := json.Unmarshal(md.Content, &rec); err != nil {
		t.Fatal(err)
	}
	seen := map[string][]uint64{}
	for _, c := range rec.Chunks {
		seen[c.Var] = append(seen[c.Var], c.Start[0], c.Count[0])
	}
	var wantSel []uint64
	for r := 0; r < ranks; r++ {
		wantSel = append(wantSel, offset(r), uint64(r+1))
	}
	if len(seen) != comps {
		t.Errorf("md.0 names %d variables, want %d", len(seen), comps)
	}
	for name, sel := range seen {
		if !reflect.DeepEqual(sel, wantSel) {
			t.Errorf("%s: (start, count) per rank %v, want %v", name, sel, wantSel)
		}
	}

	mpisim.NewWorld(rg.k, 1, nil).Run(func(r *mpisim.Rank) {
		s, err := NewSeries(rg.host(r), "/sel.bp4", AccessReadOnly, "")
		if err != nil {
			t.Error(err)
			return
		}
		it, _ := s.ReadIteration(0)
		cs, err := it.Components(schema, nil)
		if err != nil {
			t.Error(err)
			return
		}
		for c := 0; c < len(cs.paths); c++ {
			var want []float64
			for rk := 0; rk < ranks; rk++ {
				for i := 0; i <= rk; i++ {
					want = append(want, float64(100*c+10*rk+i))
				}
			}
			if got, _, err := cs.At(c).Load(); err != nil || !reflect.DeepEqual(got, want) {
				t.Errorf("%s holds %v (%v), want %v", cs.At(c).Path(), got, err, want)
			}
		}
		s.Close()
	})
}

// A component taken by name on a path a schema also resolves to writes
// through the schema's ADIOS2 variable — found by name, handed a copy of
// the handle's own numbers at every store — and the two handles' chunks
// land side by side, across a re-opened iteration too. A named handle
// whose dataset changes dimensionality fails where it did before: at the
// variable, which keeps its own.
func TestNamedHandleOnDeclaredPath(t *testing.T) {
	const ranks = 2
	schema, names := testSchema(t, 2)
	rg := newRig(ranks)
	rg.w.Run(func(r *mpisim.Rank) {
		s, err := NewSeries(rg.host(r), "/shared.bp4", AccessCreate, "[adios2.engine.parameters]\nNumAggregators = \"1\"\nProfile = \"off\"")
		if err != nil {
			t.Error(err)
			return
		}
		it, _ := s.WriteIteration(0)
		cs, err := it.Components(schema, make([]uint64, schema.RowWords()))
		if err != nil {
			t.Error(err)
			return
		}
		named := it.Particles(names[0].Species).Record(names[0].Record).Component(names[0].Component)
		if named.Path() != cs.At(0).Path() {
			t.Errorf("the named handle is on %s, the schema's on %s", named.Path(), cs.At(0).Path())
		}
		// Rank r holds elements 2r and 2r+1 of component 0: the first
		// through the schema's handle, the second through the named one.
		for epoch := 0; epoch < 2; epoch++ {
			if epoch > 0 {
				if again, err := s.WriteIteration(0); err != nil || again != it {
					t.Errorf("re-opening iteration 0: %v, %v", again, err)
				}
			}
			base := float64(100 * epoch)
			for c := 0; c < len(cs.paths); c++ {
				if err := cs.At(c).ResetDataset(Dataset{Extent: []uint64{2 * ranks}}); err != nil {
					t.Error(err)
				}
			}
			errs := []error{
				cs.At(0).StoreChunk([]uint64{uint64(2 * r.ID)}, []uint64{1}, []float64{base + float64(2*r.ID)}),
				named.ResetDataset(Dataset{Extent: []uint64{2 * ranks}}),
				named.StoreChunk([]uint64{uint64(2*r.ID + 1)}, []uint64{1}, []float64{base + float64(2*r.ID+1)}),
				cs.At(1).StoreChunk([]uint64{uint64(2 * r.ID)}, []uint64{2}, []float64{base, base}),
				it.Close(),
			}
			for i, err := range errs {
				if err != nil {
					t.Errorf("epoch %d, call %d: %v", epoch, i, err)
				}
			}
		}
		next, _ := s.WriteIteration(1)
		alone := next.Meshes("rho").Component(Scalar)
		errs := []error{
			alone.ResetDataset(Dataset{Extent: []uint64{ranks}}),
			alone.StoreChunk([]uint64{uint64(r.ID)}, []uint64{1}, []float64{1}),
			alone.ResetDataset(Dataset{Extent: []uint64{ranks, 2}}),
		}
		for i, err := range errs {
			if err != nil {
				t.Errorf("iteration 1, call %d: %v", i, err)
			}
		}
		if err := alone.StoreChunk([]uint64{uint64(r.ID), 0}, []uint64{1, 1}, []float64{1}); err == nil || !strings.HasPrefix(err.Error(), "adios2:") {
			t.Errorf("storing a 2-D chunk into a 1-D variable: %v, want an adios2: error", err)
		}
		s.Close()
	})
	mpisim.NewWorld(rg.k, 1, nil).Run(func(r *mpisim.Rank) {
		s, err := NewSeries(rg.host(r), "/shared.bp4", AccessReadOnly, "")
		if err != nil {
			t.Error(err)
			return
		}
		it, _ := s.ReadIteration(0)
		got, _, err := it.Particles(names[0].Species).Record(names[0].Record).Component(names[0].Component).Load()
		if want := []float64{100, 101, 102, 103}; err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("component 0 holds %v (%v), want %v", got, err, want)
		}
		s.Close()
	})
}
