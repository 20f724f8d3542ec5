package bit1

import (
	"fmt"

	"picmcio/internal/mpisim"
	"picmcio/internal/openpmd"
)

// adaptor is the paper's primary contribution: the openPMD I/O adaptor for
// BIT1 (the writeparallel integration of §III-A/B). It follows the
// published recipe exactly:
//
//  1. a single Series object, rooted over all iterations, opened with the
//     global communicator and a TOML-based dynamic configuration;
//  2. per-rank local vectors that accumulate diagnostic and state data
//     between outputs (any_function_save pattern);
//  3. at save time, each rank's local extent and its offset in the global
//     extent are obtained with MPI (allreduce + exscan);
//  4. all accumulated data is flushed in a single action per iteration for
//     optimal I/O efficiency, then the iteration is closed;
//  5. iteration 0 is periodically overwritten with the latest system
//     state for checkpoint/restart.
//
// Aggregation (NumAggregators), compression (Blosc/bzip2) and Lustre
// striping are controlled through the TOML options and the file system,
// giving the tuning surface the paper's §IV explores.
//
// The components it writes are those of the schema it is made with —
// what BIT1 knows from its input deck — addressed by their index there,
// in the order they are written in.
type adaptor struct {
	comm   *mpisim.Comm
	series *openpmd.Series
	schema *openpmd.Schema

	// nums is this rank's block of numbers for the schema's components —
	// extent, offset and count each, which openPMD and ADIOS2 read where
	// they lie — and vols, the tail of the same block, their volume
	// accumulators (elements), idle if untouched.
	nums []uint64
	vols []uint64
	// floats holds the content-mode accumulators, by component as far as
	// it goes: nil until accumulateFloats is called.
	floats [][]float64

	// comps is the schema resolved over nums in iter, the iteration
	// written last. The handles outlive the save, so that those resolved
	// for one epoch serve the next.
	comps  openpmd.ComponentSet
	iter   *openpmd.Iteration
	locals []int64 // saveIteration's exscan contribution, one per component
}

// idle is a volume accumulator nothing was added to since the last save.
const idle = ^uint64(0)

// adaptorKey is the key of the blocks an adaptor's ranks take their
// adaptors and rows from: the series path.
type adaptorKey string

// newAdaptor opens the BP4 series at path (a .bp4 path, the paper's
// configuration) with the given TOML options, to write the components of
// schema: one block of numbers for all of them, which the first save
// resolves, defining their ADIOS2 variables, together. The adaptor, its
// numbers and its exscan contribution are the rank's slots of three blocks
// of the communicator (mpisim.Block).
func newAdaptor(h openpmd.Host, path, tomlOptions string, schema *openpmd.Schema) (*adaptor, error) {
	s, err := openpmd.NewSeries(h, path, openpmd.AccessCreate, tomlOptions)
	if err != nil {
		return nil, err
	}
	return takeAdaptor(h.Comm, path, s, schema), nil
}

// takeAdaptor returns a new adaptor of series s at path, with its numbers
// and its exscan contribution, filled field by field: every rank parks
// under newAdaptor, and neither this frame nor a composite literal's
// temporary may fatten its.
//
//go:noinline
func takeAdaptor(comm *mpisim.Comm, path string, s *openpmd.Series, schema *openpmd.Schema) *adaptor {
	key, words := adaptorKey(path), schema.RowWords()
	a := mpisim.Block[adaptorKey, adaptor](comm, key)
	a.comm, a.series, a.schema = comm, s, schema
	block := mpisim.Rows[adaptorKey, uint64](comm, key, words+schema.Len())
	a.nums, a.vols = block[:words:words], block[words:]
	a.locals = mpisim.Rows[adaptorKey, int64](comm, key, schema.Len())[:0]
	for i := range a.vols {
		a.vols[i] = idle
	}
	return a
}

// accumulateFloats appends values to component i's local vector (content
// mode) — the any_function_save pattern: each rank builds a local vector,
// appended to the global vector kept until flush.
func (a *adaptor) accumulateFloats(i int, vals []float64) {
	if a.floats == nil {
		a.floats = make([][]float64, len(a.vols))
	}
	if a.floats[i] == nil {
		a.floats[i] = []float64{} // accumulated into, even if by no values
	}
	a.floats[i] = append(a.floats[i], vals...)
}

// accumulateVolume adds elems float64 elements to component i in volume
// mode (sizes only) — used for at-scale runs where payload bytes are
// modelled, not materialized.
func (a *adaptor) accumulateVolume(i int, elems int64) {
	v := &a.vols[i]
	if *v == idle {
		*v = 0
	}
	*v += uint64(elems)
}

// content returns component i's content accumulator, nil if it has none.
func (a *adaptor) content(i int) []float64 {
	if a.floats == nil {
		return nil
	}
	return a.floats[i]
}

// pending reports whether component i was accumulated into since the last
// save.
func (a *adaptor) pending(i int) bool { return a.vols[i] != idle || a.content(i) != nil }

// saveIteration writes all accumulated vectors as iteration id and clears
// them. Offsets in each component's global extent are computed with MPI
// exscan, the store is staged per component, and closing the iteration
// flushes it once. It is collective: every rank parks under it twice,
// so it keeps to the calls and leaves the loops to its helpers' frames.
func (a *adaptor) saveIteration(id uint64) error {
	// Checked before anything collective, so that a rank with an error in
	// its contribution leaves nobody parked on its account.
	if err := a.contribute(); err != nil {
		return err
	}
	it, err := a.series.WriteIteration(id)
	if err != nil {
		return err
	}
	if it != a.iter {
		if err := a.resolve(it); err != nil {
			return err
		}
	}
	// One collective computes every component's offset and global extent
	// (the MPI step of §III-B), instead of two per component.
	offsets, totals := a.comm.ExscanVecI64(a.locals)
	if err := a.stage(offsets, totals); err != nil {
		return err
	}
	if err := it.Close(); err != nil {
		return err
	}
	// Clear global vectors after the flush, as the paper prescribes.
	for i := range a.vols {
		a.vols[i] = idle
	}
	clear(a.floats)
	return nil
}

// contribute fills locals with this rank's element count of every pending
// component, in component order: its contribution to the save's exscan.
func (a *adaptor) contribute() error {
	a.locals = a.locals[:0]
	for i, local := range a.vols {
		if !a.pending(i) {
			continue
		}
		if f := a.content(i); f != nil {
			if local != idle {
				return fmt.Errorf("bit1: component %d accumulated both values and a volume of %d elements since the last save", i, local)
			}
			local = uint64(len(f))
		}
		a.locals = append(a.locals, int64(local))
	}
	return nil
}

// resolve moves the adaptor to it, which is not the iteration written
// last: the handles taken from that one died with it. It is small enough
// to inline, and must not be: the ComponentSet it builds would then lie in
// saveIteration's frame, 200 bytes under every rank's two parks.
//
//go:noinline
func (a *adaptor) resolve(it *openpmd.Iteration) error {
	a.iter = it
	var err error
	a.comps, err = it.Components(a.schema, a.nums)
	return err
}

// stage stores every pending component's chunk, placed by the exscan's
// results, in the open iteration.
func (a *adaptor) stage(offsets, totals []int64) error {
	j := 0
	for i := range a.vols {
		if !a.pending(i) {
			continue
		}
		local, offset, global := a.locals[j], offsets[j], totals[j]
		j++
		if global == 0 {
			continue
		}
		rc := a.comps.At(i)
		if err := rc.ResetDataset(openpmd.Dataset{Extent: []uint64{uint64(global)}}); err != nil {
			return err
		}
		// Zero-extent ranks still participate in the collective close;
		// they have nothing to store.
		if local > 0 {
			if err := rc.StoreChunk([]uint64{uint64(offset)}, []uint64{uint64(local)}, a.content(i)); err != nil {
				return err
			}
		}
	}
	return nil
}

// close closes the series; a second call does nothing. It is collective.
func (a *adaptor) close() error { return a.series.Close() }
