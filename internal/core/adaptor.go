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
	host   openpmd.Host
	series *openpmd.Series

	// slots holds one entry per component declared or ever accumulated,
	// in first-use order, which is also the order they are written in. They
	// outlive a save so that the openPMD handle resolved for one epoch
	// serves the next.
	slots []slot
	// schema is what Declare was given: its components are the first
	// slots, and get their handles in one call.
	schema *Schema
	// iter is the iteration the slots' handles were taken from.
	iter   *openpmd.Iteration
	locals []int64 // SaveIteration's exscan contribution, reused
	closed bool
}

// slot is one record component's accumulator and its openPMD handle.
type slot struct {
	name    string
	rc      *openpmd.RecordComponent // nil until a save resolves it in iter
	floats  []float64                // content-mode accumulator
	elems   int64                    // volume-mode accumulator (elements)
	pending bool                     // accumulated into since the last save
}

// local is the slot's element count on this rank: the floats if any were
// accumulated, the volume otherwise.
func (s *slot) local() int64 {
	if s.floats != nil {
		return int64(len(s.floats))
	}
	return s.elems
}

// NewAdaptor opens the series at path (extension selects the backend;
// .bp4 for the paper's configuration) with the given TOML options.
func NewAdaptor(h openpmd.Host, path, tomlOptions string) (*Adaptor, error) {
	s, err := openpmd.NewSeries(h, path, openpmd.AccessCreate, tomlOptions)
	if err != nil {
		return nil, err
	}
	s.SetAttribute("software", "BIT1")
	s.SetAttribute("iterationEncoding", "groupBased")
	return &Adaptor{host: h, series: s}, nil
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
// deck. The adaptor then holds exactly that many accumulators, and the
// first save resolves them, and defines their ADIOS2 variables, together.
// Components accumulated under other names still join one by one.
func (a *Adaptor) Declare(s *Schema) error {
	if len(a.slots) != 0 {
		return fmt.Errorf("core: Declare on an adaptor that already holds %d components", len(a.slots))
	}
	a.schema = s
	a.slots = make([]slot, len(s.names))
	for i, name := range s.names {
		a.slots[i].name = name
	}
	return nil
}

// Series exposes the underlying openPMD series.
func (a *Adaptor) Series() *openpmd.Series { return a.series }

// pend returns name's slot, marked as holding data for the next save.
func (a *Adaptor) pend(name string) *slot {
	for i := range a.slots {
		if a.slots[i].name == name {
			a.slots[i].pending = true
			return &a.slots[i]
		}
	}
	a.slots = append(a.slots, slot{name: name, pending: true})
	return &a.slots[len(a.slots)-1]
}

// AccumulateFloats appends values to the named record component's local
// vector (content mode) — the any_function_save pattern: each rank builds
// a local vector, appended to the global vector kept until flush.
func (a *Adaptor) AccumulateFloats(name string, vals []float64) {
	s := a.pend(name)
	s.floats = append(s.floats, vals...)
}

// AccumulateVolume adds elems float64 elements to the named component in
// volume mode (sizes only) — used for at-scale runs where payload bytes
// are modelled, not materialized.
func (a *Adaptor) AccumulateVolume(name string, elems int64) {
	a.pend(name).elems += elems
}

// PendingVars reports how many record components have accumulated data.
func (a *Adaptor) PendingVars() int {
	n := 0
	for i := range a.slots {
		if a.slots[i].pending {
			n++
		}
	}
	return n
}

// SaveIteration writes all accumulated vectors as iteration id and clears
// them. Offsets in each component's global extent are computed with MPI
// exscan, the store is staged per component, flushed once, and the
// iteration is closed. It is collective.
func (a *Adaptor) SaveIteration(id uint64) error {
	if a.closed {
		return fmt.Errorf("core: adaptor is closed")
	}
	it, err := a.series.WriteIteration(id)
	if err != nil {
		return err
	}
	if it != a.iter {
		// Not the iteration written last: its handles died with it.
		for i := range a.slots {
			a.slots[i].rc = nil
		}
		a.iter = it
		if a.schema != nil {
			rcs, err := it.Components(a.schema.comps)
			if err != nil {
				return err
			}
			for i := range rcs {
				a.slots[i].rc = &rcs[i]
			}
		}
	}
	// One collective computes every component's offset and global extent
	// (the MPI step of §III-B), instead of two per component.
	if cap(a.locals) < len(a.slots) {
		a.locals = make([]int64, 0, len(a.slots))
	}
	a.locals = a.locals[:0]
	for i := range a.slots {
		if s := &a.slots[i]; s.pending {
			a.locals = append(a.locals, s.local())
		}
	}
	offsets, totals := a.host.Comm.ExscanVecI64(a.locals)
	j := 0
	for i := range a.slots {
		s := &a.slots[i]
		if !s.pending {
			continue
		}
		local, offset, global := a.locals[j], offsets[j], totals[j]
		j++
		if global == 0 {
			continue
		}
		if s.rc == nil {
			if s.rc, err = a.component(it, s.name); err != nil {
				return err
			}
		}
		if err := s.rc.ResetDataset(openpmd.Dataset{Type: openpmd.Float64, Extent: []uint64{uint64(global)}}); err != nil {
			return err
		}
		// Zero-extent ranks still participate in the collective close
		// below; they have nothing to store.
		if local > 0 {
			if err := s.rc.StoreChunk([]uint64{uint64(offset)}, []uint64{uint64(local)}, s.floats); err != nil {
				return err
			}
		}
	}
	if err := a.series.Flush(); err != nil {
		return err
	}
	if err := it.Close(); err != nil {
		return err
	}
	// Clear global vectors after the flush, as the paper prescribes.
	for i := range a.slots {
		s := &a.slots[i]
		s.floats, s.elems, s.pending = nil, 0, false
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
	cn := mpisim.Memo(a.host.Comm, nameKey(name), func() parsedName {
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
