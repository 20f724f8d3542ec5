// Package openpmd reimplements the slice of the openPMD standard and the
// openPMD-api library that BIT1's I/O integration uses: a Series of
// Iterations holding Meshes and ParticleSpecies whose Records store
// chunked, offset-addressed data through a pluggable backend. The BP4
// backend drives the simulated ADIOS2 engine (the paper's configuration);
// the JSON backend writes real, human-readable files for small runs.
//
// The standard's naming schema — /data/<iteration>/particles/<species>/
// <record>/<component> and /data/<iteration>/meshes/<mesh>/<component> —
// is preserved verbatim, which is the portability argument the paper's
// contribution #2 makes.
package openpmd

import (
	"fmt"
	"sort"
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

// Datatype identifies record component element types.
type Datatype int

// Datatypes.
const (
	Float64 Datatype = iota
	UInt64
)

func (d Datatype) adios() adios2.DType {
	if d == UInt64 {
		return adios2.TypeUInt64
	}
	return adios2.TypeFloat64
}

// Size reports the element size in bytes.
func (d Datatype) Size() int64 { return 8 }

// Scalar is the component name of scalar records.
const Scalar = "\x00scalar"

// Host ties a series to the simulation context of the calling rank.
type Host struct {
	Proc *sim.Proc
	Env  *posix.Env
	Comm *mpisim.Comm
}

// Dataset declares a record component's global shape.
type Dataset struct {
	Type   Datatype
	Extent []uint64
}

// backend is the storage engine behind a series.
type backend interface {
	// beginIteration opens iteration id for writing.
	beginIteration(id uint64) error
	// declare is told of the components a schema resolved to in the open
	// write iteration — rcs[i] at paths[i], all of type t and dims
	// dimensions — before any of them is stored.
	declare(rcs []RecordComponent, paths []string, t Datatype, dims int)
	// store stages the chunk rc.offset()/rc.count() of a record
	// component. Those slices are overwritten by rc's next StoreChunk, so
	// a backend that keeps them past the call copies them.
	store(rc *RecordComponent, data []float64) error
	// closeIteration finalizes the open iteration.
	closeIteration() error
	// close finalizes the series.
	close() error
	// iterations lists available iterations (read mode).
	iterations() ([]uint64, error)
	// load reads a whole record component (read mode).
	load(it uint64, varPath string) ([]float64, []uint64, error)
	// listVars lists record component paths of one iteration (read mode).
	listVars(it uint64) ([]string, error)
}

// Series is the root object of an openPMD hierarchy.
type Series struct {
	host   Host
	path   string
	access Access
	cfg    *Config
	be     backend
	// attrs holds what SetAttribute stored, over standardAttrs.
	attrs   []attribute
	curIter *Iteration
	// lastIter is the most recently closed write iteration — the only
	// closed one a series keeps — so that WriteIteration with the same id
	// re-opens it and the component handles taken from it work again.
	lastIter *Iteration
	closed   bool
}

// attribute is one root attribute.
type attribute struct{ key, value string }

// standardAttrs is what the standard requires at the root of every series
// and SetAttribute may override: read-only, shared by all of them.
var standardAttrs = [...]attribute{
	{"openPMD", "1.1.0"},
	{"openPMDextension", "0"},
	{"basePath", "/data/%T/"},
	{"meshesPath", "meshes/"},
	{"particlesPath", "particles/"},
	{"iterationEncoding", "groupBased"},
	{"software", "picmcio"},
}

// tomlKey is the world-memo key of a parsed options document.
type tomlKey string

type parsedTOML struct {
	cfg *Config
	err error
}

// NewSeries opens (or creates) a series at path. The backend is chosen by
// extension: .bp/.bp4/.bp5 → ADIOS2 BP engine, .json → JSON files.
// options is a TOML document ("" for defaults).
func NewSeries(h Host, path string, access Access, options string) (*Series, error) {
	if h.Proc == nil || h.Env == nil || h.Comm == nil {
		return nil, fmt.Errorf("openpmd: incomplete host")
	}
	// The options are the same document on every rank: parse it once per
	// world. The shared Config is never written after ParseTOML returns.
	parsed := mpisim.Memo(h.Comm, tomlKey(options), func() parsedTOML {
		cfg, err := ParseTOML(options)
		return parsedTOML{cfg, err}
	})
	cfg, err := parsed.cfg, parsed.err
	if err != nil {
		return nil, err
	}
	s := &Series{host: h, path: path, access: access, cfg: cfg}
	switch {
	case strings.HasSuffix(path, ".bp"), strings.HasSuffix(path, ".bp4"), strings.HasSuffix(path, ".bp5"):
		s.be, err = newBP4Backend(s)
	case strings.HasSuffix(path, ".json"):
		s.be, err = newJSONBackend(s)
	default:
		return nil, fmt.Errorf("openpmd: no backend for %q (use .bp4 or .json)", path)
	}
	if err != nil {
		return nil, err
	}
	return s, nil
}

// SetAttribute stores a root attribute.
func (s *Series) SetAttribute(key, value string) {
	for i := range s.attrs {
		if s.attrs[i].key == key {
			s.attrs[i].value = value
			return
		}
	}
	s.attrs = append(s.attrs, attribute{key, value})
}

// Attribute reads a root attribute.
func (s *Series) Attribute(key string) (string, bool) {
	for _, list := range [][]attribute{s.attrs, standardAttrs[:]} {
		for _, a := range list {
			if a.key == key {
				return a.value, true
			}
		}
	}
	return "", false
}

// attributes returns every root attribute: the standard's, then what
// SetAttribute stored over and beside them.
func (s *Series) attributes() map[string]string {
	m := make(map[string]string, len(standardAttrs)+len(s.attrs))
	for _, list := range [][]attribute{standardAttrs[:], s.attrs} {
		for _, a := range list {
			m[a.key] = a.value
		}
	}
	return m
}

// Path reports the series path.
func (s *Series) Path() string { return s.path }

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
	if err := s.be.beginIteration(id); err != nil {
		return nil, err
	}
	if it := s.lastIter; it != nil && it.ID == id {
		it.closed = false
		s.curIter = it
	} else {
		s.curIter = &Iteration{series: s, ID: id}
	}
	s.lastIter = nil
	return s.curIter, nil
}

// Flush is where the paper's integration commits its accumulated vectors,
// once per iteration. Here it does nothing and cannot fail: StoreChunk has
// already handed every chunk to the backend, and both backends write when
// the iteration closes (ADIOS2 EndStep; the JSON gather).
func (s *Series) Flush() error { return nil }

// Iterations lists the iteration ids available for reading.
func (s *Series) Iterations() ([]uint64, error) { return s.be.iterations() }

// ReadIteration returns a read handle for iteration id.
func (s *Series) ReadIteration(id uint64) (*Iteration, error) {
	if s.access != AccessReadOnly {
		return nil, fmt.Errorf("openpmd: series is write-only")
	}
	return &Iteration{series: s, ID: id, read: true}, nil
}

// Close finalizes the series; any open iteration is closed first.
func (s *Series) Close() error {
	if s.closed {
		return nil
	}
	if s.curIter != nil {
		if err := s.curIter.Close(); err != nil {
			return err
		}
	}
	s.closed = true
	return s.be.close()
}

// Iteration is one time point of a series.
type Iteration struct {
	series *Series
	ID     uint64
	read   bool
	closed bool
}

// recordKey is the world-memo key of a record's path: a species' record,
// or a mesh (species unused).
type recordKey struct {
	id            uint64
	mesh          bool
	species, name string
}

// componentKey is the world-memo key of a non-scalar component's path.
type componentKey struct{ record, name string }

// recordPath builds the standard's path of a record once per world: every
// rank names the same records, and the string ends up in each rank's
// component handle and ADIOS2 variable.
func (it *Iteration) recordPath(mesh bool, species, name string) string {
	return mpisim.Memo(it.series.host.Comm, recordKey{it.ID, mesh, species, name}, func() string {
		if mesh {
			return fmt.Sprintf("/data/%d/meshes/%s", it.ID, name)
		}
		return fmt.Sprintf("/data/%d/particles/%s/%s", it.ID, species, name)
	})
}

// Meshes returns the mesh record with the given name.
func (it *Iteration) Meshes(name string) *Record {
	return &Record{it: it, path: it.recordPath(true, "", name)}
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

// Schema is a list of record components of one datatype and
// dimensionality, for a writer that knows them all before its first store
// (Iteration.Components). It is immutable: make one and hand the same
// pointer to every rank, so that what it resolves to in an iteration is
// worked out once per world.
type Schema struct {
	names []ComponentName
	dtype Datatype
	dims  int
}

// NewSchema returns the schema of the named components, each holding
// datasets of type t and dims dimensions. names is copied.
func NewSchema(names []ComponentName, t Datatype, dims int) (*Schema, error) {
	if dims < 1 {
		return nil, fmt.Errorf("openpmd: schema of %d-dimensional datasets", dims)
	}
	return &Schema{names: append([]ComponentName(nil), names...), dtype: t, dims: dims}, nil
}

// schemaKey is the world-memo key of a schema's paths in one iteration.
type schemaKey struct {
	id uint64
	s  *Schema
}

// Components returns one component per name of the schema, in its order —
// what Meshes/Particles(..).Record(..).Component(..) return one at a time
// — out of one block, each with a zero extent of the schema's
// dimensionality for ResetDataset to set. On the BP backend their
// variables are defined here, together, so the engine knows how many
// before the first is stored.
func (it *Iteration) Components(s *Schema) ([]RecordComponent, error) {
	if !it.read && it.closed {
		return nil, fmt.Errorf("openpmd: Components on closed iteration %d", it.ID)
	}
	paths := mpisim.Memo(it.series.host.Comm, schemaKey{it.ID, s}, func() []string {
		paths := make([]string, len(s.names))
		for i, n := range s.names {
			paths[i] = it.componentPath(it.recordPath(n.Mesh, n.Species, n.Record), n.Component)
		}
		return paths
	})
	rcs, dims := make([]RecordComponent, len(paths)), make([]uint64, 3*s.dims*len(paths))
	for i, path := range paths {
		lo, hi := 3*s.dims*i, 3*s.dims*(i+1)
		rcs[i] = RecordComponent{it: it, path: path, dtype: s.dtype, dims: dims[lo:hi:hi]}
	}
	if !it.read {
		it.series.be.declare(rcs, paths, s.dtype, s.dims)
	}
	return rcs, nil
}

// Close finalizes the iteration: with the BP backend this triggers the
// EndStep that aggregates and writes the data. A closed iteration and the
// components taken from it reject further stores until
// Series.WriteIteration opens the same id again; closing twice is an
// error.
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
	return it.series.be.closeIteration()
}

// Species is a particle species container.
type Species struct {
	it   *Iteration
	name string
}

// Record returns a named record of the species ("position", "momentum",
// "weighting", …).
func (sp *Species) Record(name string) *Record {
	return &Record{it: sp.it, path: sp.it.recordPath(false, sp.name, name)}
}

// Record is a physical quantity; it may have several components.
type Record struct {
	it   *Iteration
	path string
}

// componentPath builds a component's path once per world, as recordPath
// does its record's.
func (it *Iteration) componentPath(record, name string) string {
	if name == Scalar {
		return record
	}
	return mpisim.Memo(it.series.host.Comm, componentKey{record, name}, func() string {
		return record + "/" + name
	})
}

// Component returns a record component; use Scalar for scalar records.
func (r *Record) Component(name string) *RecordComponent {
	return &RecordComponent{it: r.it, path: r.it.componentPath(r.path, name)}
}

// RecordComponent is the leaf object data is stored into. A writer may
// keep one for as long as its iteration is open or can be re-opened: the
// component remembers its dataset and, on the BP backend, its ADIOS2
// variable.
type RecordComponent struct {
	it    *Iteration
	path  string
	dtype Datatype
	// dims is the component's own storage for the dataset extent and the
	// chunk last stored — extent, offset, count, each of the dataset's
	// rank — overwritten in place. nil until ResetDataset.
	dims []uint64
	// bpVar is the BP backend's variable for path, once defined.
	bpVar *adios2.Variable
}

// Path reports the full openPMD variable path of the component.
func (rc *RecordComponent) Path() string { return rc.path }

func (rc *RecordComponent) rank() int        { return len(rc.dims) / 3 }
func (rc *RecordComponent) extent() []uint64 { return rc.dims[:rc.rank()] }
func (rc *RecordComponent) offset() []uint64 { return rc.dims[rc.rank() : 2*rc.rank()] }
func (rc *RecordComponent) count() []uint64  { return rc.dims[2*rc.rank():] }

// writable reports why the component cannot be written, if it cannot.
func (rc *RecordComponent) writable(op string) error {
	if rc.it.read {
		return fmt.Errorf("openpmd: %s on read iteration", op)
	}
	if rc.it.closed {
		return fmt.Errorf("openpmd: %s: %s on closed iteration %d", rc.path, op, rc.it.ID)
	}
	return nil
}

// ResetDataset declares the component's global datatype and extent. The
// extent is copied.
func (rc *RecordComponent) ResetDataset(d Dataset) error {
	if err := rc.writable("ResetDataset"); err != nil {
		return err
	}
	n := len(d.Extent)
	if n == 0 {
		return fmt.Errorf("openpmd: empty extent for %s", rc.path)
	}
	if len(rc.dims) != 3*n {
		rc.dims = make([]uint64, 3*n)
	}
	rc.dtype = d.Type
	copy(rc.extent(), d.Extent)
	return nil
}

// StoreChunk stages this rank's chunk. data may be nil (volume mode) or
// must have exactly the extent's element count. Per openPMD rules the
// buffer must stay untouched until the iteration closes; offset and extent
// are copied.
func (rc *RecordComponent) StoreChunk(offset, extent []uint64, data []float64) error {
	if err := rc.writable("StoreChunk"); err != nil {
		return err
	}
	if rc.dims == nil {
		return fmt.Errorf("openpmd: %s: StoreChunk before ResetDataset", rc.path)
	}
	if len(offset) != rc.rank() || len(extent) != rc.rank() {
		return fmt.Errorf("openpmd: %s: chunk rank mismatch", rc.path)
	}
	if data != nil {
		n := uint64(1)
		for _, e := range extent {
			n *= e
		}
		if uint64(len(data)) != n {
			return fmt.Errorf("openpmd: %s: chunk has %d elements, extent wants %d", rc.path, len(data), n)
		}
	}
	copy(rc.offset(), offset)
	copy(rc.count(), extent)
	return rc.it.series.be.store(rc, data)
}

// Load reads the whole component (read mode).
func (rc *RecordComponent) Load() ([]float64, []uint64, error) {
	if !rc.it.read {
		return nil, nil, fmt.Errorf("openpmd: Load on write iteration")
	}
	return rc.it.series.be.load(rc.it.ID, rc.path)
}

// ListRecordComponents lists the component paths stored in an iteration,
// sorted (read mode).
func (it *Iteration) ListRecordComponents() ([]string, error) {
	vars, err := it.series.be.listVars(it.ID)
	if err != nil {
		return nil, err
	}
	sort.Strings(vars)
	return vars, nil
}
