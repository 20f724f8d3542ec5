// Package openpmd reimplements the slice of the openPMD standard and the
// openPMD-api library that BIT1's I/O integration uses: a Series of
// Iterations holding Meshes and ParticleSpecies whose Records store
// chunked, offset-addressed data through the simulated ADIOS2 BP4 engine
// (the paper's configuration).
//
// The standard's naming schema — /data/<iteration>/particles/<species>/
// <record>/<component> and /data/<iteration>/meshes/<mesh>/<component> —
// is preserved verbatim, which is the portability argument the paper's
// contribution #2 makes.
package openpmd

import (
	"fmt"
	"strings"

	"picmcio/internal/adios2"
	"picmcio/internal/mpisim"
	"picmcio/internal/posix"
	"picmcio/internal/sim"
)

// Access selects how a series is opened.
type Access int

// Access modes.
const (
	AccessCreate Access = iota
	AccessReadOnly
)

// Scalar is the component name of scalar records.
const Scalar = "\x00scalar"

// Host ties a series to the simulation context of the calling rank.
type Host struct {
	Proc *sim.Proc
	Env  *posix.Env
	Comm *mpisim.Comm
}

// Dataset declares a record component's global shape. Its elements are
// float64s.
type Dataset struct {
	Extent []uint64
}

// Series is the root object of an openPMD hierarchy.
type Series struct {
	host    Host
	path    string
	access  Access
	curIter *Iteration
	// lastIter is the most recently closed write iteration — the only
	// closed one a series keeps — so that WriteIteration with the same id
	// re-opens it and the component handles taken from it work again.
	lastIter *Iteration
	// first is the first iteration written: most series write one, over
	// and over, and it need not be an object of its own.
	first Iteration
	// io and eng are the series' storage: its ADIOS2 IO, forked from the
	// options' template, and the BP4 engine it opened. Iterations map to
	// engine steps ("group-based iteration encoding with steps", §III-B),
	// so one engine/directory holds the whole series.
	io  adios2.IO
	eng *adios2.Engine
}

// tomlKey is the world-memo key of an options document.
type tomlKey string

// NewSeries opens (or creates) the BP4 series at path, which must end in
// .bp4. options is a TOML document ("" for defaults). Creating is
// collective. A series is the rank's slot of the communicator's block of
// series of that path (mpisim.Block).
func NewSeries(h Host, path string, access Access, options string) (*Series, error) {
	if h.Proc == nil || h.Env == nil || h.Comm == nil {
		return nil, fmt.Errorf("openpmd: incomplete host")
	}
	if !strings.HasSuffix(path, ".bp4") {
		return nil, fmt.Errorf("openpmd: %q is not a BP4 series path (use .bp4)", path)
	}
	// The options are the same document on every rank: what they say
	// about the engine is resolved once per world, and a rank's IO reads
	// the template's settings in place and has only its variables to
	// itself.
	tmpl := mpisim.Memo(h.Comm, tomlKey(options), func() ioTemplate { return newIOTemplate(options) })
	if tmpl.err != nil {
		return nil, tmpl.err
	}
	s := newSeries(h, path, access)
	s.fork(tmpl.io)
	mode := adios2.ModeWrite
	if access == AccessReadOnly {
		mode = adios2.ModeRead
	}
	eng, err := s.io.Open(adios2.Host{Proc: h.Proc, Env: h.Env, Comm: h.Comm}, path, mode)
	if err != nil {
		return nil, err
	}
	s.eng = eng
	return s, nil
}

// newSeries returns a new series of path, filled field by field: every
// rank parks under NewSeries, and neither this frame nor a composite
// literal's temporary may fatten its.
//
//go:noinline
func newSeries(h Host, path string, access Access) *Series {
	s := mpisim.Block[string, Series](h.Comm, path)
	s.host, s.path, s.access = h, path, access
	return s
}

// fork takes s's IO from the template: every rank parks under NewSeries,
// and the forked IO's temporary may not fatten its frame.
//
//go:noinline
func (s *Series) fork(tmpl *adios2.IO) { s.io = tmpl.Fork() }

// WriteIteration opens iteration id for writing. Only one iteration may be
// open at a time; openPMD semantics allow re-opening a previously written
// id (BIT1 re-writes iteration 0 for checkpoints). When id is the one
// closed last, the same Iteration is returned, open again, and the
// components taken from it keep their dataset; any other id gets a new
// Iteration and the closed one's components stay unusable.
func (s *Series) WriteIteration(id uint64) (*Iteration, error) {
	if s.access != AccessCreate {
		return nil, fmt.Errorf("openpmd: series is read-only")
	}
	if s.curIter != nil {
		return nil, fmt.Errorf("openpmd: iteration %d still open", s.curIter.ID)
	}
	if err := s.eng.BeginStep(int64(id)); err != nil {
		return nil, err
	}
	if it := s.lastIter; it != nil && it.ID == id {
		it.closed = false
		s.curIter = it
	} else {
		it := &s.first
		if it.series != nil { // taken: a handle on it may still be held
			it = new(Iteration)
		}
		*it = Iteration{series: s, ID: id}
		s.curIter = it
	}
	s.lastIter = nil
	return s.curIter, nil
}

// Iterations lists the iteration ids available for reading.
func (s *Series) Iterations() ([]uint64, error) {
	steps, err := s.eng.Steps()
	if err != nil {
		return nil, err
	}
	out := make([]uint64, len(steps))
	for i, st := range steps {
		out[i] = uint64(st)
	}
	return out, nil
}

// ReadIteration returns a read handle for iteration id.
func (s *Series) ReadIteration(id uint64) (*Iteration, error) {
	if s.access != AccessReadOnly {
		return nil, fmt.Errorf("openpmd: series is write-only")
	}
	return &Iteration{series: s, ID: id, read: true}, nil
}

// Close finalizes the series; any open iteration is closed first. A
// second Close does nothing.
func (s *Series) Close() error {
	if s.curIter != nil {
		if err := s.curIter.Close(); err != nil {
			return err
		}
	}
	return s.eng.Close()
}

// Iteration is one time point of a series.
type Iteration struct {
	series *Series
	ID     uint64
	read   bool
	closed bool
}

// recordPath is the standard's path of a record of iteration id.
func recordPath(id uint64, mesh bool, species, name string) string {
	if mesh {
		return fmt.Sprintf("/data/%d/meshes/%s", id, name)
	}
	return fmt.Sprintf("/data/%d/particles/%s/%s", id, species, name)
}

// Meshes returns the mesh record with the given name.
func (it *Iteration) Meshes(name string) *Record {
	return &Record{it: it, path: recordPath(it.ID, true, "", name)}
}

// Particles returns the particle species container with the given name.
func (it *Iteration) Particles(species string) *Species {
	return &Species{it: it, name: species}
}

// ComponentName addresses one record component the way the standard's
// hierarchy does.
type ComponentName struct {
	Mesh      bool   // a mesh record; Species is unused
	Species   string // particle species
	Record    string
	Component string // Scalar for a scalar record
}

// Schema is a list of record components of one dimensionality, for a
// writer that knows them all before its first store
// (Iteration.Components). It is immutable: make one and hand the same
// pointer to every rank, so that what it resolves to in an iteration is
// worked out once per world.
type Schema struct {
	names []ComponentName
	dims  int
}

// NewSchema returns the schema of the named components, each holding
// datasets of dims dimensions. names is copied.
func NewSchema(names []ComponentName, dims int) (*Schema, error) {
	if dims < 1 {
		return nil, fmt.Errorf("openpmd: schema of %d-dimensional datasets", dims)
	}
	return &Schema{names: append([]ComponentName(nil), names...), dims: dims}, nil
}

// Len reports the number of components in the schema.
func (s *Schema) Len() int { return len(s.names) }

// RowWords reports the length of the block of numbers a rank keeps for the
// schema's components in an iteration: per component its extent and the
// offset and count of the chunk last stored, each of the schema's
// dimensionality.
func (s *Schema) RowWords() int { return 3 * s.dims * len(s.names) }

// schemaKey is the world-memo key of what a schema resolves to in one
// iteration.
type schemaKey struct {
	id uint64
	s  *Schema
}

// resolved is what a schema comes to in one iteration, the same on every
// rank: the components' paths, and the ADIOS2 variables of those names.
type resolved struct {
	paths []string
	vars  *adios2.VarSet
}

// ComponentSet is the components a Schema — or one name — resolves to in
// one iteration: their paths, shared by every rank that resolves the same
// schema, and this rank's block of numbers for them, overwritten in place.
// Its components are addressed by index (At).
type ComponentSet struct {
	it    *Iteration
	paths []string
	dims  int // 0 until a named component's ResetDataset
	// nums holds, per component, the dataset extent and the offset and count
	// of the chunk last stored, each of dims words. A schema's is the block
	// Components was given; a named component's is made by ResetDataset.
	nums []uint64
	// vars is a schema's ADIOS2 variables; nil for a named component.
	vars *adios2.VarSet
	// Once a component has been stored: component i is variable bpAt+i of
	// bpRow, which reads nums in place if bpInPlace and is handed a copy at
	// every store otherwise.
	bpRow     *adios2.VarRow
	bpAt      int
	bpInPlace bool
}

// Components resolves the schema in the iteration: what
// Meshes/Particles(..).Record(..).Component(..) return one at a time, in
// the schema's order, as one set over one block of numbers. nums is that
// block, s.RowWords() long; the set keeps it, the layers below
// read it where it lies, and nothing copies it. (A read iteration takes no
// block.) The components' variables are defined together at the first
// store, so the engine knows how many before the first Put.
func (it *Iteration) Components(s *Schema, nums []uint64) (ComponentSet, error) {
	if it.read {
		nums = nil
	} else if it.closed {
		return ComponentSet{}, fmt.Errorf("openpmd: Components on closed iteration %d", it.ID)
	} else if len(nums) != s.RowWords() {
		return ComponentSet{}, fmt.Errorf("openpmd: a block of %d numbers for %d components of %d dimensions", len(nums), len(s.names), s.dims)
	}
	res := mpisim.Memo(it.series.host.Comm, schemaKey{it.ID, s}, func() resolved {
		paths := make([]string, len(s.names))
		for i, n := range s.names {
			paths[i] = componentPath(recordPath(it.ID, n.Mesh, n.Species, n.Record), n.Component)
		}
		// dims was checked by NewSchema.
		vars, _ := adios2.NewVarSet(paths, adios2.TypeFloat64, s.dims)
		return resolved{paths, vars}
	})
	return ComponentSet{it: it, paths: res.paths, dims: s.dims, nums: nums, vars: res.vars}, nil
}

// At returns the handle of component i: a value, good for as long as the
// set stays where it is.
func (cs *ComponentSet) At(i int) RecordComponent { return RecordComponent{set: cs, i: i} }

// Close finalizes the iteration: it triggers the ADIOS2 EndStep that
// aggregates and writes the data. A closed iteration and the components
// taken from it reject further stores until Series.WriteIteration opens
// the same id again; closing twice is an error.
func (it *Iteration) Close() error {
	if it.read {
		return nil
	}
	if it.closed {
		return fmt.Errorf("openpmd: iteration %d already closed", it.ID)
	}
	it.closed = true
	it.series.curIter = nil
	it.series.lastIter = it
	return it.series.eng.EndStep()
}

// Species is a particle species container.
type Species struct {
	it   *Iteration
	name string
}

// Record returns a named record of the species ("position", "momentum",
// "weighting", …).
func (sp *Species) Record(name string) *Record {
	return &Record{it: sp.it, path: recordPath(sp.it.ID, false, sp.name, name)}
}

// Record is a physical quantity; it may have several components.
type Record struct {
	it   *Iteration
	path string
}

// componentPath is the path of a record's component.
func componentPath(record, name string) string {
	if name == Scalar {
		return record
	}
	return record + "/" + name
}

// Component returns a record component; use Scalar for scalar records.
func (r *Record) Component(name string) *RecordComponent {
	set := &ComponentSet{it: r.it, paths: []string{componentPath(r.path, name)}}
	return &RecordComponent{set: set}
}

// RecordComponent is the leaf object data is stored into: a handle on one
// component of a ComponentSet. A writer may keep one for as long as its
// iteration is open or can be re-opened: the set remembers the component's
// dataset and its ADIOS2 variable.
type RecordComponent struct {
	set *ComponentSet
	i   int
}

// Path reports the full openPMD variable path of the component.
func (rc RecordComponent) Path() string { return rc.set.paths[rc.i] }

// dim returns part k of the component's numbers: 0 extent, 1 offset, 2
// count.
func (rc RecordComponent) dim(k int) []uint64 {
	d := rc.set.dims
	lo := (3*rc.i + k) * d
	return rc.set.nums[lo : lo+d : lo+d]
}

func (rc RecordComponent) extent() []uint64 { return rc.dim(0) }
func (rc RecordComponent) offset() []uint64 { return rc.dim(1) }
func (rc RecordComponent) count() []uint64  { return rc.dim(2) }

// writable reports why the component cannot be written, if it cannot.
func (rc RecordComponent) writable(op string) error {
	if it := rc.set.it; it.read {
		return fmt.Errorf("openpmd: %s on read iteration", op)
	} else if it.closed {
		return fmt.Errorf("openpmd: %s: %s on closed iteration %d", rc.Path(), op, it.ID)
	}
	return nil
}

// ResetDataset declares the component's global extent. The extent is
// copied. A component of a schema keeps the schema's dimensionality.
func (rc RecordComponent) ResetDataset(d Dataset) error {
	if err := rc.writable("ResetDataset"); err != nil {
		return err
	}
	set, n := rc.set, len(d.Extent)
	if n == 0 {
		return fmt.Errorf("openpmd: empty extent for %s", rc.Path())
	}
	if set.vars != nil {
		if n != set.dims {
			return fmt.Errorf("openpmd: %s: a %d-dimensional dataset for a schema of %d", rc.Path(), n, set.dims)
		}
	} else if n != set.dims {
		// The variable bound to the old block, if any, is found again by
		// name at the next store.
		set.nums, set.dims, set.bpRow = make([]uint64, 3*n), n, nil
	}
	copy(rc.extent(), d.Extent)
	return nil
}

// StoreChunk stages this rank's chunk. data may be nil (volume mode) or
// must have exactly the extent's element count. Per openPMD rules the
// buffer must stay untouched until the iteration closes; offset and extent
// are copied.
func (rc RecordComponent) StoreChunk(offset, extent []uint64, data []float64) error {
	if err := rc.writable("StoreChunk"); err != nil {
		return err
	}
	if rc.set.nums == nil {
		return fmt.Errorf("openpmd: %s: StoreChunk before ResetDataset", rc.Path())
	}
	if len(offset) != rc.set.dims || len(extent) != rc.set.dims {
		return fmt.Errorf("openpmd: %s: chunk rank mismatch", rc.Path())
	}
	if data != nil {
		n := uint64(1)
		for _, e := range extent {
			n *= e
		}
		if uint64(len(data)) != n {
			return fmt.Errorf("openpmd: %s: chunk has %d elements, extent wants %d", rc.Path(), len(data), n)
		}
	}
	copy(rc.offset(), offset)
	copy(rc.count(), extent)
	return rc.store(data)
}

// store puts the chunk just recorded in the component's numbers.
func (rc RecordComponent) store(data []float64) error {
	set, s := rc.set, rc.set.it.series
	if set.bpRow == nil {
		if err := s.bind(set); err != nil {
			return err
		}
	}
	v := set.bpRow.At(set.bpAt + rc.i)
	if !set.bpInPlace {
		if err := v.SetShape(rc.extent()); err != nil {
			return err
		}
		if err := v.SetSelection(rc.offset(), rc.count()); err != nil {
			return err
		}
	}
	if data == nil {
		return s.eng.Put(&v, nil)
	}
	return s.eng.PutFloat64s(&v, data)
}

// bind finds or defines the variables of a set's components, at its first
// store: a schema's all together over the set's own block of numbers, and
// so a named component's — unless another handle on the same path defined
// the variable already, which is then handed a copy at every store.
func (s *Series) bind(set *ComponentSet) error {
	vars := set.vars
	if vars == nil {
		if v, ok := s.io.InquireVariable(set.paths[0]); ok {
			set.bpRow, set.bpAt, set.bpInPlace = v.Row(), v.Index(), false
			return nil
		}
		var err error
		if vars, err = adios2.NewVarSet(set.paths, adios2.TypeFloat64, set.dims); err != nil {
			return err
		}
	}
	row, err := s.io.DefineRow(vars, set.nums)
	if err != nil {
		return err
	}
	set.bpRow, set.bpAt, set.bpInPlace = row, 0, true
	return nil
}

// Load reads the whole component (read mode).
func (rc RecordComponent) Load() ([]float64, []uint64, error) {
	it := rc.set.it
	if !it.read {
		return nil, nil, fmt.Errorf("openpmd: Load on write iteration")
	}
	raw, shape, err := it.series.eng.Get(int64(it.ID), rc.Path())
	if err != nil {
		return nil, nil, err
	}
	return adios2.Float64sFromBytes(raw), shape, nil
}
