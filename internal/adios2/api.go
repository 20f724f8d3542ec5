// Package adios2 reimplements the slice of the ADIOS2 I/O framework that
// the paper's openPMD integration exercises: the IO/Engine/Variable API,
// the BP4 engine's on-disk layout (aggregator subfiles data.0…data.N, a
// global metadata log md.0, a step index md.idx and profiling.json),
// two-level aggregation with a configurable number of aggregators
// (the "OPENPMD_ADIOS2_BP5_NumAgg" knob of §IV-C), compression operators,
// and a metadata reader enabling the "rapid metadata extraction" the paper
// highlights.
//
// Engines run inside the simulation: every rank participates through its
// sim process, POSIX environment and MPI communicator, so data movement,
// marshalling (memcpy), compression and file writes all cost virtual time
// in the right places.
package adios2

import (
	"fmt"
	"strconv"
	"strings"

	"picmcio/internal/compress"
	"picmcio/internal/mpisim"
	"picmcio/internal/pfs"
	"picmcio/internal/posix"
	"picmcio/internal/sim"
)

// Mode selects how an engine opens a dataset.
type Mode uint8

// Engine open modes.
const (
	ModeWrite Mode = iota
	ModeRead
)

// DType identifies an element type.
type DType int

// Element types.
const (
	TypeFloat64 DType = iota
	TypeUInt64
	TypeInt64
	TypeByte
)

// Size reports the element size in bytes.
func (t DType) Size() int64 {
	switch t {
	case TypeByte:
		return 1
	default:
		return 8
	}
}

// String implements fmt.Stringer.
func (t DType) String() string {
	switch t {
	case TypeFloat64:
		return "double"
	case TypeUInt64:
		return "uint64_t"
	case TypeInt64:
		return "int64_t"
	case TypeByte:
		return "uint8_t"
	}
	return fmt.Sprintf("DType(%d)", int(t))
}

// ADIOS is the factory object, mirroring adios2::ADIOS.
type ADIOS struct {
	ios map[string]*IO
}

// New returns an empty ADIOS factory.
func New() *ADIOS { return &ADIOS{ios: map[string]*IO{}} }

// DeclareIO creates (or returns) a named IO configuration object.
func (a *ADIOS) DeclareIO(name string) *IO {
	if io, ok := a.ios[name]; ok {
		return io
	}
	io := &IO{name: name, set: &settings{}}
	a.ios[name] = io
	return io
}

// IO holds engine parameters, operators and variable definitions.
type IO struct {
	name string
	set  *settings

	// rows chains the defined rows of variables, newest first; nvars counts
	// their variables and dims sums their dimensions. A step that puts each
	// of them once stages nvars puts and 2·dims selection entries.
	rows        *VarRow
	nvars, dims int
	// first is the first row defined: most IOs define one, and it need not
	// be an object of its own. An IO is not copied once it has rows.
	first VarRow
}

// settings is what Fork shares between IOs: parameters and operator, and
// the parameters as Open parsed them.
type settings struct {
	params   map[string]string
	operator string // compression codec name; "" for none
	// shared is set once a second IO reads these settings; from then on
	// whoever changes one does it on a copy (IO.own).
	shared bool
	// parsed is the parameters an engine reads, as the first Open since
	// they last changed parsed them; parseErr is why it could not.
	parsed   *engineParams
	parseErr error
}

// Fork returns a new IO with io's name, parameters and operator, and no
// variables, by value, for its caller to keep where it likes. The settings
// are not copied: both IOs read the same ones — parsed once, by whichever
// opens first — until one of them changes a setting, which it then does on
// its own copy. It is how every rank of a world gets the configuration one
// rank resolved.
func (io *IO) Fork() IO {
	io.set.shared = true
	return IO{name: io.name, set: io.set}
}

// own returns io's settings for writing: a private copy if they are
// shared, and in either case no longer parsed.
func (io *IO) own() *settings {
	if io.set.shared {
		set := &settings{operator: io.set.operator, params: make(map[string]string, len(io.set.params)+1)}
		for k, v := range io.set.params {
			set.params[k] = v
		}
		io.set = set
	}
	io.set.parsed, io.set.parseErr = nil, nil
	return io.set
}

// SetParameter sets a parameter of the BP4 engine, the one engine there
// is. Recognized keys:
//
//	NumAggregators       number of subfiles (the paper's NumAgg knob),
//	                     clamped to [1, ranks]
//	Profile              on/off — write profiling.json (default on)
//	SimCompressionRatio  ratio to assume for volume-mode payloads (> 0)
//	BurstBuffer          on/off — stage I/O through the host
//	                     environment's burst-buffer tier, if attached
//	BurstDurability      "buffered" (default) or "pfs" — whether EndStep
//	                     returns at buffered or PFS durability
//
// An on/off value is also true/false, yes/no or 1/0, and no value's case
// matters. A value outside its key's set, or a malformed number, is an
// error from Open, not a silent default.
func (io *IO) SetParameter(k, v string) {
	set := io.own()
	if set.params == nil {
		set.params = map[string]string{}
	}
	set.params[k] = v
}

// memRate is the marshalling memcpy bandwidth, bytes/second.
const memRate = 8e9

// onOff and durability read the closed-value parameters, in lower case.
var (
	onOff      = map[string]bool{"on": true, "true": true, "yes": true, "1": true, "off": false, "false": false, "no": false, "0": false}
	durability = map[string]bool{"pfs": true, "buffered": false}
)

// engineParams is the parameters an engine reads, parsed.
type engineParams struct {
	numAgg     int // 0: NumAggregators absent, one subfile per rank
	volRatio   float64
	profile    bool
	staged     bool
	pfsDurable bool
}

// engine returns the parameters an engine reads, parsed once per
// settings: every IO forked from one template gets the same answer, error
// included, without parsing again.
func (set *settings) engine() (*engineParams, error) {
	if set.parsed == nil && set.parseErr == nil {
		set.parsed, set.parseErr = set.parseEngine()
	}
	return set.parsed, set.parseErr
}

func (set *settings) parseEngine() (*engineParams, error) {
	wp := &engineParams{volRatio: 0.8, profile: true}
	if v, ok := set.params["NumAggregators"]; ok {
		n, err := strconv.Atoi(v)
		if err != nil {
			return nil, fmt.Errorf("adios2: bad NumAggregators %q (want an integer)", v)
		}
		wp.numAgg = max(n, 1)
	}
	if v, ok := set.params["SimCompressionRatio"]; ok {
		x, err := strconv.ParseFloat(v, 64)
		if err != nil || !(x > 0) {
			return nil, fmt.Errorf("adios2: bad SimCompressionRatio %q (want a positive number)", v)
		}
		wp.volRatio = x
	}
	for _, f := range []struct {
		key, want string
		values    map[string]bool
		dst       *bool
	}{
		{"Profile", "on or off", onOff, &wp.profile},
		{"BurstBuffer", "on or off", onOff, &wp.staged},
		{"BurstDurability", "buffered or pfs", durability, &wp.pfsDurable},
	} {
		v, ok := set.params[f.key]
		if !ok {
			continue
		}
		b, ok := f.values[strings.ToLower(v)]
		if !ok {
			return nil, fmt.Errorf("adios2: bad %s %q (want %s)", f.key, v, f.want)
		}
		*f.dst = b
	}
	return wp, nil
}

// AddOperation attaches a compression operator ("blosc" or "bzip2") to
// every variable of this IO, as openPMD's TOML config does.
func (io *IO) AddOperation(codec string) error {
	if codec != "" && codec != "none" {
		if _, err := compress.New(codec, 8); err != nil {
			return err
		}
	}
	io.own().operator = codec
	return nil
}

// VarSet is the half of a set of variables that is the same on every rank:
// their names, in definition order, and their common type and
// dimensionality. It is immutable: make one and hand the same pointer to
// every rank (the world memo is the place to keep it).
type VarSet struct {
	names []string
	dtype DType
	dims  int
}

// NewVarSet returns the set of the named variables, each of type t and of
// dims dimensions. names is copied.
func NewVarSet(names []string, t DType, dims int) (*VarSet, error) {
	if dims < 0 {
		return nil, fmt.Errorf("adios2: variable set of %d dimensions", dims)
	}
	return &VarSet{names: append([]string(nil), names...), dtype: t, dims: dims}, nil
}

// RowWords reports the length of the block of numbers a rank keeps for the
// set: per variable its shape, start and count, each of the set's
// dimensionality.
func (s *VarSet) RowWords() int { return 3 * s.dims * len(s.names) }

// VarRow is the other half: one rank's shape and selection of every
// variable of a VarSet, as defined in one IO. The numbers are one block,
// overwritten in place.
type VarRow struct {
	io   *IO
	set  *VarSet
	nums []uint64 // per variable shape, start, count
	base int      // variables the IO held before this row; put records count from it
	next *VarRow  // the IO's row defined before this one
}

// DefineRow defines the variables of set in io, all at once: the form for
// a writer that knows its whole schema before its first Put. nums is this
// rank's block of set.RowWords() numbers. It is kept, not copied: the
// caller may go on writing shapes and selections into it where they lie
// (variable i's shape, start and count follow each other from word
// 3·dims·i) as well as through SetShape and SetSelection, and the engine
// reads them there at Put. Names defined before now mean the new variables.
func (io *IO) DefineRow(set *VarSet, nums []uint64) (*VarRow, error) {
	if len(nums) != set.RowWords() {
		return nil, fmt.Errorf("adios2: a row of %d numbers for %d variables of %d dimensions", len(nums), len(set.names), set.dims)
	}
	r := &io.first
	if r.io != nil { // taken
		r = new(VarRow)
	}
	*r = VarRow{io: io, set: set, nums: nums, base: io.nvars, next: io.rows}
	io.rows = r
	io.nvars += len(set.names)
	io.dims += set.dims * len(set.names)
	return r, nil
}

// At returns the handle of variable i of the row.
func (r *VarRow) At(i int) Variable { return Variable{row: r, i: i} }

// Variable is a handle on one n-dimensional distributed array of an IO: a
// row and an index into it. The row owns the storage behind the shape and
// the selection; DefineVariable, SetShape and SetSelection copy the
// caller's slices in, so callers may reuse theirs.
type Variable struct {
	row *VarRow
	i   int
}

// Row reports the row the variable belongs to, and Index its place in it.
func (v Variable) Row() *VarRow { return v.row }
func (v Variable) Index() int   { return v.i }

// Name reports the variable's name.
func (v Variable) Name() string { return v.row.set.names[v.i] }

// Type reports the variable's element type.
func (v Variable) Type() DType { return v.row.set.dtype }

// dim returns part k of the variable's numbers: 0 shape, 1 start, 2 count.
func (v Variable) dim(k int) []uint64 {
	d := v.row.set.dims
	lo := (3*v.i + k) * d
	return v.row.nums[lo : lo+d : lo+d]
}

// Shape reports the global extent; read-only for callers, SetShape writes
// it.
func (v Variable) Shape() []uint64 { return v.dim(0) }

func (v Variable) start() []uint64 { return v.dim(1) }
func (v Variable) count() []uint64 { return v.dim(2) }

// DefineVariable declares a variable with a global shape and this rank's
// initial selection: a row of one. A name defined before now means the new
// variable.
func (io *IO) DefineVariable(name string, t DType, shape, start, count []uint64) (*Variable, error) {
	if len(shape) != len(start) || len(shape) != len(count) {
		return nil, fmt.Errorf("adios2: dimension mismatch for %q", name)
	}
	d := len(shape)
	nums := make([]uint64, 3*d)
	copy(nums, shape)
	copy(nums[d:], start)
	copy(nums[2*d:], count)
	row, err := io.DefineRow(&VarSet{names: []string{name}, dtype: t, dims: d}, nums)
	return &Variable{row: row}, err
}

// InquireVariable looks up a defined variable.
func (io *IO) InquireVariable(name string) (Variable, bool) {
	for r := io.rows; r != nil; r = r.next {
		for i := len(r.set.names) - 1; i >= 0; i-- {
			if r.set.names[i] == name {
				return r.At(i), true
			}
		}
	}
	return Variable{}, false
}

// variable returns the handle of the IO's idx-th variable, in definition
// order — what a put record holds.
func (io *IO) variable(idx int) Variable {
	r := io.rows
	for idx < r.base {
		r = r.next
	}
	return r.At(idx - r.base)
}

// SetShape updates the variable's global extent — needed when a re-used
// variable (e.g. a checkpoint re-written each epoch) grows or shrinks.
func (v Variable) SetShape(shape []uint64) error {
	if len(shape) != v.row.set.dims {
		return fmt.Errorf("adios2: shape rank change for %q", v.Name())
	}
	copy(v.Shape(), shape)
	return nil
}

// SetSelection sets this rank's hyperslab (start, count).
func (v Variable) SetSelection(start, count []uint64) error {
	if len(start) != v.row.set.dims || len(count) != v.row.set.dims {
		return fmt.Errorf("adios2: selection rank mismatch for %q", v.Name())
	}
	copy(v.start(), start)
	copy(v.count(), count)
	return nil
}

// SelectionBytes reports the byte size of the current selection.
func (v Variable) SelectionBytes() int64 {
	n := int64(1)
	for _, c := range v.count() {
		n *= int64(c)
	}
	return n * v.Type().Size()
}

// Host ties an engine to the simulation: the calling rank's process, its
// POSIX environment, and its communicator.
type Host struct {
	Proc *sim.Proc
	Env  *posix.Env
	Comm *mpisim.Comm
}

// Open creates an engine for path in the given mode: the rank's slot of
// the communicator's block of engines of that path (mpisim.Block). Every
// rank of the communicator must call Open collectively for write mode.
// With the BurstBuffer parameter on and a staging tier attached to the
// host environment, all engine I/O (write and read) goes through the
// tier, from an environment the engine holds by value.
func (io *IO) Open(h Host, path string, mode Mode) (*Engine, error) {
	if h.Proc == nil || h.Env == nil || h.Comm == nil {
		return nil, fmt.Errorf("adios2: incomplete host")
	}
	// Before anything collective: a bad parameter is the same error on
	// every rank, and nobody is left parked.
	wp, err := io.set.engine()
	if err != nil {
		return nil, err
	}
	e := io.newEngine(h, path, mode, wp)
	switch mode {
	case ModeWrite:
		err = e.openWriter()
	case ModeRead:
		err = e.openReader(path)
	default:
		err = fmt.Errorf("adios2: bad mode %d", mode)
	}
	if err != nil {
		return nil, err
	}
	return e, nil
}

// newEngine returns a new engine of io for path, filled field by field:
// every rank parks under Open, and neither this frame nor a composite
// literal's temporary may fatten Open's.
//
//go:noinline
func (io *IO) newEngine(h Host, path string, mode Mode, wp *engineParams) *Engine {
	path = pfs.Clean(path)
	e := mpisim.Block[string, Engine](h.Comm, path)
	e.io, e.h, e.path, e.mode, e.wp, e.curStep = io, h, path, mode, wp, -1
	if wp.staged && h.Env.Stage != nil {
		e.staged = *h.Env
		e.staged.FS = h.Env.Stage
		e.h.Env = &e.staged
	}
	return e
}
