package openpmd

import (
	"reflect"
	"strings"
	"testing"

	"picmcio/internal/mpisim"
)

// wantStale fails unless err is the one openpmd-prefixed error a store
// through a handle on a closed iteration returns.
func wantStale(t *testing.T, what string, err error) {
	t.Helper()
	if err == nil {
		t.Errorf("%s: accepted", what)
	} else if !strings.HasPrefix(err.Error(), "openpmd:") || !strings.Contains(err.Error(), "closed iteration") {
		t.Errorf("%s: error %q, want an openpmd: closed-iteration error", what, err)
	}
}

// A component handle follows its iteration: dead once the iteration is
// closed, valid again — dataset and all — when WriteIteration re-opens
// the same id, dead for good once another id has been opened in between.
func TestHandleLifetime(t *testing.T) {
	const path = "/life.bp4"
	t.Run(path, func(t *testing.T) {
		rg := newRig(1)
		rg.w.Run(func(r *mpisim.Rank) {
			s, err := NewSeries(rg.host(r), path, AccessCreate, "[adios2.engine.parameters]\nProfile = \"off\"")
			if err != nil {
				t.Error(err)
				return
			}
			must := func(what string, err error) {
				t.Helper()
				if err != nil {
					t.Errorf("%s: %v", what, err)
				}
			}
			component := func(it *Iteration) *RecordComponent {
				return it.Particles("e").Record("position").Component("x")
			}
			open := func(id uint64) *Iteration {
				t.Helper()
				it, err := s.WriteIteration(id)
				must("WriteIteration", err)
				return it
			}
			off, ext := []uint64{0}, []uint64{2}

			it0 := open(0)
			rc := component(it0)
			must("ResetDataset", rc.ResetDataset(Dataset{Extent: ext}))
			must("StoreChunk", rc.StoreChunk(off, ext, []float64{1, 2}))
			must("Close", it0.Close())

			// Closed: one error, from both entry points.
			wantStale(t, "StoreChunk after Close", rc.StoreChunk(off, ext, []float64{3, 4}))
			wantStale(t, "ResetDataset after Close", rc.ResetDataset(Dataset{Extent: ext}))
			if err := it0.Close(); err == nil {
				t.Error("double Close accepted")
			}

			// Same id: the same iteration, and the handle works without
			// a new ResetDataset.
			again := open(0)
			if again != it0 {
				t.Error("WriteIteration(0) after closing 0 returned a new Iteration")
			}
			must("StoreChunk through the re-opened handle", rc.StoreChunk(off, ext, []float64{5, 6}))
			must("Close", again.Close())
			if err := again.Close(); err == nil {
				t.Error("double Close of a re-opened iteration accepted")
			}

			// Another id: a fresh tree, the old handle stays dead.
			it1 := open(1)
			wantStale(t, "StoreChunk through iteration 0's handle while 1 is open", rc.StoreChunk(off, ext, []float64{7, 8}))
			fresh := component(it1)
			if err := fresh.StoreChunk(off, ext, []float64{7, 8}); err == nil {
				t.Error("iteration 1's component inherited a dataset")
			}
			must("ResetDataset", fresh.ResetDataset(Dataset{Extent: ext}))
			must("StoreChunk", fresh.StoreChunk(off, ext, []float64{7, 8}))
			must("Close", it1.Close())

			// Only the last closed iteration is kept: 0 is new again.
			third := open(0)
			if third == it0 {
				t.Error("iteration 0 survived iteration 1")
			}
			wantStale(t, "StoreChunk through the first iteration 0's handle", rc.StoreChunk(off, ext, []float64{9, 9}))
			rc = component(third)
			must("ResetDataset", rc.ResetDataset(Dataset{Extent: ext}))
			must("StoreChunk", rc.StoreChunk(off, ext, []float64{9, 10}))
			must("Series.Close with an open iteration", s.Close())
			wantStale(t, "StoreChunk after Series.Close", rc.StoreChunk(off, ext, []float64{0, 0}))
		})
		readBack(t, rg, path, map[uint64][]float64{0: {9, 10}, 1: {7, 8}})
	})
}

// readBack checks e/position/x of every listed iteration of the series.
func readBack(t *testing.T, rg *rig, path string, want map[uint64][]float64) {
	t.Helper()
	mpisim.NewWorld(rg.k, 1, nil).Run(func(r *mpisim.Rank) {
		s, err := NewSeries(rg.host(r), path, AccessReadOnly, "")
		if err != nil {
			t.Error(err)
			return
		}
		for id, vals := range want {
			it, _ := s.ReadIteration(id)
			got, _, err := it.Particles("e").Record("position").Component("x").Load()
			if err != nil {
				t.Errorf("iteration %d: %v", id, err)
			} else if !reflect.DeepEqual(got, vals) {
				t.Errorf("iteration %d holds %v, want %v", id, got, vals)
			}
		}
		s.Close()
	})
}

// ResetDataset and StoreChunk copy their dimension slices: a caller that
// reuses them for the next component must not move the chunk already
// staged.
func TestStoreChunkCopiesDimensions(t *testing.T) {
	const path = "/alias.bp4"
	t.Run(path, func(t *testing.T) {
		rg := newRig(1)
		rg.w.Run(func(r *mpisim.Rank) {
			s, err := NewSeries(rg.host(r), path, AccessCreate, "[adios2.engine.parameters]\nProfile = \"off\"")
			if err != nil {
				t.Error(err)
				return
			}
			it, _ := s.WriteIteration(0)
			rc := it.Particles("e").Record("position").Component("x")
			global, off, ext := []uint64{4}, []uint64{0}, []uint64{2}
			errs := []error{
				rc.ResetDataset(Dataset{Extent: global}),
				rc.StoreChunk(off, ext, []float64{1, 2}),
			}
			off[0] = 2 // the second chunk, through the same slices
			errs = append(errs, rc.StoreChunk(off, ext, []float64{3, 4}))
			global[0], off[0], ext[0] = 1, 1, 1
			errs = append(errs, it.Close(), s.Close())
			for i, err := range errs {
				if err != nil {
					t.Errorf("call %d: %v", i, err)
				}
			}
		})
		readBack(t, rg, path, map[uint64][]float64{0: {1, 2, 3, 4}})
	})
}

// A closed series takes no more iterations: WriteIteration of a new id
// or of the one closed last is the engine's error naming the series, the
// handles taken before the close stay dead, and a second Close does
// nothing.
func TestClosedSeriesRefusesWrites(t *testing.T) {
	const path = "/closed.bp4"
	rg := newRig(2)
	rg.w.Run(func(r *mpisim.Rank) {
		s, err := NewSeries(rg.host(r), path, AccessCreate, "")
		if err != nil {
			t.Error(err)
			return
		}
		it, err := s.WriteIteration(0)
		if err != nil {
			t.Error(err)
			return
		}
		rc := it.Particles("e").Record("position").Component("x")
		off, ext := []uint64{uint64(r.ID)}, []uint64{1}
		for _, err := range []error{
			rc.ResetDataset(Dataset{Extent: []uint64{2}}),
			rc.StoreChunk(off, ext, []float64{1}),
			s.Close(),
		} {
			if err != nil {
				t.Error(err)
				return
			}
		}
		for _, id := range []uint64{1, 0} {
			if _, err := s.WriteIteration(id); err == nil || !strings.Contains(err.Error(), path) {
				t.Errorf("rank %d: WriteIteration(%d) after Close: %v, want an error naming %s", r.ID, id, err, path)
			}
		}
		wantStale(t, "StoreChunk after the series closed", rc.StoreChunk(off, ext, []float64{2}))
		if err := it.Close(); err == nil {
			t.Errorf("rank %d: closing an iteration of a closed series accepted", r.ID)
		}
		if err := s.Close(); err != nil {
			t.Errorf("rank %d: second Close: %v", r.ID, err)
		}
	})
}

// A rank's series and engine are its slots of its communicator's blocks
// for their path; a second open of the path for writing, while the first
// is live, gets a series and an engine of its own, and the first still
// writes and closes as if it were alone.
func TestReopenGetsItsOwnSeries(t *testing.T) {
	const ranks, perRank = 4, 8
	const path, toml = "/re.bp4", "[adios2.engine.parameters]\nNumAggregators = \"2\"\nProfile = \"off\""
	rg := newRig(ranks)
	firsts := make([]*Series, ranks)
	rg.w.Run(func(r *mpisim.Rank) {
		first, err := NewSeries(rg.host(r), path, AccessCreate, toml)
		if err != nil {
			t.Error(err)
			return
		}
		second, err := NewSeries(rg.host(r), path, AccessCreate, toml)
		if err != nil {
			t.Error(err)
			return
		}
		firsts[r.ID] = first
		if first == second || first.eng == second.eng {
			t.Errorf("rank %d: the second open shares the first's series %t or engine %t", r.ID, first == second, first.eng == second.eng)
		}
		it, err := first.WriteIteration(0)
		if err != nil {
			t.Error(err)
			return
		}
		rc := it.Particles("e").Record("position").Component("x")
		data := make([]float64, perRank)
		for i := range data {
			data[i] = float64(r.ID*perRank + i)
		}
		for _, err := range []error{
			rc.ResetDataset(Dataset{Extent: []uint64{ranks * perRank}}),
			rc.StoreChunk([]uint64{uint64(r.ID * perRank)}, []uint64{perRank}, data),
			it.Close(),
			first.Close(),
			second.Close(),
		} {
			if err != nil {
				t.Errorf("rank %d: %v", r.ID, err)
			}
		}
	})
	for i := range firsts {
		for j := range i {
			if firsts[i] == firsts[j] {
				t.Errorf("ranks %d and %d share a series", j, i)
			}
		}
	}
	mpisim.NewWorld(rg.k, 1, nil).Run(func(r *mpisim.Rank) {
		s, err := NewSeries(rg.host(r), path, AccessReadOnly, "")
		if err != nil {
			t.Error(err)
			return
		}
		it, _ := s.ReadIteration(0)
		got, _, err := it.Particles("e").Record("position").Component("x").Load()
		if err != nil {
			t.Error(err)
			return
		}
		for i, v := range got {
			if v != float64(i) {
				t.Errorf("element %d reads %v, want %d", i, v, i)
				break
			}
		}
		if len(got) != ranks*perRank {
			t.Errorf("read %d elements, want %d", len(got), ranks*perRank)
		}
		s.Close()
	})
}
