// Package core implements the paper's primary contribution: the openPMD
// I/O adaptor for BIT1 (the writeparallel integration of §III-A/B).
//
// The adaptor follows the published recipe exactly:
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
package core

import (
	"fmt"
	"strings"

	"picmcio/internal/mpisim"
	"picmcio/internal/openpmd"
)

// Adaptor buffers per-rank data and writes it through openPMD.
type Adaptor struct {
	comm   *mpisim.Comm
	series *openpmd.Series

	// One entry per component declared or ever accumulated, the declared
	// ones first, in first-use order — the order they are written in.
	// names starts as the schema's own list and vols as the tail of the
	// block Declare makes; a component accumulated under another name
	// appends to both, which moves them to storage of the adaptor's own.
	names []string
	vols  []uint64 // volume accumulators (elements), idle if untouched
	// floats holds the content-mode accumulators, by component as far as
	// it goes: nil until AccumulateFloats is called.
	floats [][]float64

	// nums is this rank's block of numbers for the schema's components —
	// extent, offset and count each, which openPMD and ADIOS2 read where
	// they lie — and comps the schema resolved over it in iter.
	schema *Schema
	nums   []uint64
	comps  openpmd.ComponentSet
	// named holds the openPMD handles of the components after the
	// schema's, nil until a save resolves them in iter. They outlive the
	// save, so that the handle resolved for one epoch serves the next.
	named []*openpmd.RecordComponent
	// iter is the iteration comps and named were taken from.
	iter   *openpmd.Iteration
	locals []int64 // SaveIteration's exscan contribution, reused
	closed bool
}

// idle is a volume accumulator nothing was added to since the last save.
const idle = ^uint64(0)

// NewAdaptor opens the series at path (extension selects the backend;
// .bp4 for the paper's configuration) with the given TOML options.
func NewAdaptor(h openpmd.Host, path, tomlOptions string) (*Adaptor, error) {
	s, err := openpmd.NewSeries(h, path, openpmd.AccessCreate, tomlOptions)
	if err != nil {
		return nil, err
	}
	s.SetAttribute("software", "BIT1")
	s.SetAttribute("iterationEncoding", "groupBased")
	return &Adaptor{comm: h.Comm, series: s}, nil
}

// Schema is a list of component names parsed once, for Declare. It is
// immutable: make one and hand the same pointer to every rank.
type Schema struct {
	names []string
	comps *openpmd.Schema
}

// NewSchema parses names ("species/record[/component]" or, for a mesh,
// "meshes/record").
func NewSchema(names []string) (*Schema, error) {
	comps := make([]openpmd.ComponentName, len(names))
	for i, name := range names {
		var err error
		if comps[i], err = parseName(name); err != nil {
			return nil, err
		}
	}
	pmd, err := openpmd.NewSchema(comps, openpmd.Float64, 1)
	if err != nil {
		return nil, err
	}
	return &Schema{names: append([]string(nil), names...), comps: pmd}, nil
}

// Declare names, in one call and before anything is accumulated, the
// components this adaptor will write — what BIT1 knows from its input
// deck. The adaptor then holds one block of numbers for all of them, and
// the first save resolves them, and defines their ADIOS2 variables,
// together. Components accumulated under other names still join one by
// one.
func (a *Adaptor) Declare(s *Schema) error {
	if len(a.names) != 0 {
		return fmt.Errorf("core: Declare on an adaptor that already holds %d components", len(a.names))
	}
	n, words := len(s.names), s.comps.RowWords()
	block := make([]uint64, words+n)
	a.schema, a.names, a.nums, a.vols = s, s.names[:n:n], block[:words:words], block[words:]
	for k := range a.vols {
		a.vols[k] = idle
	}
	return nil
}

// Series exposes the underlying openPMD series.
func (a *Adaptor) Series() *openpmd.Series { return a.series }

// index returns the place of the component of that name, which joins the
// others if it is new.
func (a *Adaptor) index(name string) int {
	for k, n := range a.names {
		if n == name {
			return k
		}
	}
	a.names, a.vols, a.named = append(a.names, name), append(a.vols, idle), append(a.named, nil)
	return len(a.names) - 1
}

// AccumulateFloats appends values to the named record component's local
// vector (content mode) — the any_function_save pattern: each rank builds
// a local vector, appended to the global vector kept until flush.
func (a *Adaptor) AccumulateFloats(name string, vals []float64) {
	k := a.index(name)
	for len(a.floats) <= k {
		a.floats = append(a.floats, nil)
	}
	if a.floats[k] == nil {
		a.floats[k] = []float64{} // accumulated into, even if by no values
	}
	a.floats[k] = append(a.floats[k], vals...)
}

// AccumulateVolume adds elems float64 elements to the named component in
// volume mode (sizes only) — used for at-scale runs where payload bytes
// are modelled, not materialized.
func (a *Adaptor) AccumulateVolume(name string, elems int64) {
	v := &a.vols[a.index(name)]
	if *v == idle {
		*v = 0
	}
	*v += uint64(elems)
}

// content returns component k's content accumulator, nil if it has none.
func (a *Adaptor) content(k int) []float64 {
	if k < len(a.floats) {
		return a.floats[k]
	}
	return nil
}

// pending reports whether component k was accumulated into since the last
// save.
func (a *Adaptor) pending(k int) bool { return a.vols[k] != idle || a.content(k) != nil }

// PendingVars reports how many record components have accumulated data.
func (a *Adaptor) PendingVars() int {
	n := 0
	for k := range a.names {
		if a.pending(k) {
			n++
		}
	}
	return n
}

// handle returns component k's openPMD handle in iter, resolving on first
// use that of a component the schema does not hold.
func (a *Adaptor) handle(k int) (openpmd.RecordComponent, error) {
	d := len(a.names) - len(a.named)
	if k < d {
		return a.comps.At(k), nil
	}
	if a.named[k-d] == nil {
		rc, err := a.component(a.iter, a.names[k])
		if err != nil {
			return openpmd.RecordComponent{}, err
		}
		a.named[k-d] = rc
	}
	return *a.named[k-d], nil
}

// SaveIteration writes all accumulated vectors as iteration id and clears
// them. Offsets in each component's global extent are computed with MPI
// exscan, the store is staged per component, flushed once, and the
// iteration is closed. It is collective: every rank parks under it twice,
// so it keeps to the calls and leaves the loops to its helpers' frames.
func (a *Adaptor) SaveIteration(id uint64) error {
	if a.closed {
		return fmt.Errorf("core: adaptor is closed")
	}
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
	if err := a.series.Flush(); err != nil {
		return err
	}
	if err := it.Close(); err != nil {
		return err
	}
	// Clear global vectors after the flush, as the paper prescribes.
	for k := range a.vols {
		a.vols[k] = idle
	}
	clear(a.floats)
	return nil
}

// contribute fills locals with this rank's element count of every pending
// component, in component order: its contribution to the save's exscan.
func (a *Adaptor) contribute() error {
	if cap(a.locals) < len(a.names) {
		a.locals = make([]int64, 0, len(a.names))
	}
	a.locals = a.locals[:0]
	for k, name := range a.names {
		if !a.pending(k) {
			continue
		}
		local := a.vols[k]
		if f := a.content(k); f != nil {
			if local != idle {
				return fmt.Errorf("core: component %q accumulated both values and a volume of %d elements since the last save", name, local)
			}
			local = uint64(len(f))
		}
		a.locals = append(a.locals, int64(local))
	}
	return nil
}

// resolve moves the adaptor to it, which is not the iteration written
// last: the handles taken from that one died with it.
func (a *Adaptor) resolve(it *openpmd.Iteration) error {
	clear(a.named)
	a.iter = it
	if a.schema == nil {
		return nil
	}
	var err error
	a.comps, err = it.Components(a.schema.comps, a.nums)
	return err
}

// stage stores every pending component's chunk, placed by the exscan's
// results, in the open iteration.
func (a *Adaptor) stage(offsets, totals []int64) error {
	j := 0
	for k := range a.names {
		if !a.pending(k) {
			continue
		}
		local, offset, global := a.locals[j], offsets[j], totals[j]
		j++
		if global == 0 {
			continue
		}
		rc, err := a.handle(k)
		if err != nil {
			return err
		}
		if err := rc.ResetDataset(openpmd.Dataset{Type: openpmd.Float64, Extent: []uint64{uint64(global)}}); err != nil {
			return err
		}
		// Zero-extent ranks still participate in the collective close;
		// they have nothing to store.
		if local > 0 {
			if err := rc.StoreChunk([]uint64{uint64(offset)}, []uint64{uint64(local)}, a.content(k)); err != nil {
				return err
			}
		}
	}
	return nil
}

// parsedName is the world-memo value of a component name.
type parsedName struct {
	openpmd.ComponentName
	err error
}

// nameKey is the world-memo key of a parsed component name.
type nameKey string

// component resolves a component name in it. Every rank uses the same
// names, so each is parsed once per world.
func (a *Adaptor) component(it *openpmd.Iteration, name string) (*openpmd.RecordComponent, error) {
	cn := mpisim.Memo(a.comm, nameKey(name), func() parsedName {
		cn, err := parseName(name)
		return parsedName{cn, err}
	})
	if cn.err != nil {
		return nil, cn.err
	}
	if cn.Mesh {
		return it.Meshes(cn.Record).Component(cn.Component), nil
	}
	return it.Particles(cn.Species).Record(cn.Record).Component(cn.Component), nil
}

func parseName(name string) (openpmd.ComponentName, error) {
	parts := strings.Split(name, "/")
	switch {
	case len(parts) == 2 && parts[0] == "meshes":
		return openpmd.ComponentName{Mesh: true, Record: parts[1], Component: openpmd.Scalar}, nil
	case len(parts) == 2:
		return openpmd.ComponentName{Species: parts[0], Record: parts[1], Component: openpmd.Scalar}, nil
	case len(parts) == 3:
		return openpmd.ComponentName{Species: parts[0], Record: parts[1], Component: parts[2]}, nil
	default:
		return openpmd.ComponentName{}, fmt.Errorf("core: bad component name %q (want species/record[/component] or meshes/name)", name)
	}
}

// Close closes the series. It is collective.
func (a *Adaptor) Close() error {
	if a.closed {
		return nil
	}
	a.closed = true
	return a.series.Close()
}
