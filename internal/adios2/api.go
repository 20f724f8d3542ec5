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

	"picmcio/internal/burst"
	"picmcio/internal/compress"
	"picmcio/internal/mpisim"
	"picmcio/internal/pfs"
	"picmcio/internal/posix"
	"picmcio/internal/sim"
)

// Mode selects how an engine opens a dataset.
type Mode int

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
	io := &IO{name: name, engine: "BP4", params: map[string]string{}, vars: map[string]*Variable{}}
	a.ios[name] = io
	return io
}

// IO holds engine choice, parameters, operators and variable definitions.
type IO struct {
	name     string
	engine   string
	params   map[string]string
	operator string // compression codec name; "" for none
	vars     map[string]*Variable
}

// Name reports the IO object's name.
func (io *IO) Name() string { return io.name }

// SetEngine selects the engine type ("BP4" is the engine of the paper;
// "BP5" is accepted and mapped onto the same writer with BP5's extra
// metadata file).
func (io *IO) SetEngine(e string) error {
	switch e {
	case "BP4", "BP5":
		io.engine = e
		return nil
	default:
		return fmt.Errorf("adios2: unsupported engine %q", e)
	}
}

// Engine reports the configured engine type.
func (io *IO) Engine() string { return io.engine }

// SetParameter sets an engine parameter. Recognized keys:
//
//	NumAggregators       number of subfiles (the paper's NumAgg knob)
//	Profile              "on"/"off" — write profiling.json
//	SimCompressionRatio  ratio to assume for volume-mode payloads
//	MemRate              marshalling memcpy bandwidth (bytes/s)
//	BurstBuffer          "on"/"true" — stage I/O through the host
//	                     environment's burst-buffer tier, if attached
//	BurstDurability      "buffered" (default) or "pfs" — whether EndStep
//	                     returns at buffered or PFS durability
//	BurstQoSPriority     "on"/"true" — drain checkpoint-class segments
//	                     before diagnostics (tier QoS priority lane)
//	BurstDrainLimit      per-node write-back bandwidth cap, bytes/second
//	BurstDrainDeadline   pace each epoch's write-back across this many
//	                     seconds instead of bursting ("drain by next epoch")
func (io *IO) SetParameter(k, v string) { io.params[k] = v }

// Parameter reads back a parameter with a default.
func (io *IO) Parameter(k, def string) string {
	if v, ok := io.params[k]; ok {
		return v
	}
	return def
}

func (io *IO) intParam(k string, def int) int {
	v, ok := io.params[k]
	if !ok {
		return def
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return def
	}
	return n
}

func (io *IO) floatParam(k string, def float64) float64 {
	v, ok := io.params[k]
	if !ok {
		return def
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return def
	}
	return f
}

// AddOperation attaches a compression operator ("blosc" or "bzip2") to
// every variable of this IO, as openPMD's TOML config does.
func (io *IO) AddOperation(codec string) error {
	if codec != "" && codec != "none" {
		if _, err := compress.New(codec, 8); err != nil {
			return err
		}
	}
	io.operator = codec
	return nil
}

// Operator reports the attached compression operator name ("" if none).
func (io *IO) Operator() string { return io.operator }

// Variable describes an n-dimensional distributed array. It owns the
// storage behind Shape and its selection: DefineVariable, SetShape and
// SetSelection copy the caller's slices in, so callers may reuse theirs.
type Variable struct {
	Name  string
	Type  DType
	Shape []uint64 // global extent; read-only for callers, SetShape writes it
	start []uint64
	count []uint64
}

// DefineVariable declares a variable with a global shape and this rank's
// initial selection.
func (io *IO) DefineVariable(name string, t DType, shape, start, count []uint64) (*Variable, error) {
	if len(shape) != len(start) || len(shape) != len(count) {
		return nil, fmt.Errorf("adios2: dimension mismatch for %q", name)
	}
	// One block for all three, overwritten in place from here on.
	n := len(shape)
	dims := make([]uint64, 3*n)
	v := &Variable{Name: name, Type: t, Shape: dims[:n:n], start: dims[n : 2*n : 2*n], count: dims[2*n:]}
	copy(v.Shape, shape)
	copy(v.start, start)
	copy(v.count, count)
	io.vars[name] = v
	return v, nil
}

// InquireVariable looks up a defined variable.
func (io *IO) InquireVariable(name string) (*Variable, bool) {
	v, ok := io.vars[name]
	return v, ok
}

// SetShape updates the variable's global extent — needed when a re-used
// variable (e.g. a checkpoint re-written each epoch) grows or shrinks.
func (v *Variable) SetShape(shape []uint64) error {
	if len(shape) != len(v.Shape) {
		return fmt.Errorf("adios2: shape rank change for %q", v.Name)
	}
	copy(v.Shape, shape)
	return nil
}

// SetSelection sets this rank's hyperslab (start, count).
func (v *Variable) SetSelection(start, count []uint64) error {
	if len(start) != len(v.Shape) || len(count) != len(v.Shape) {
		return fmt.Errorf("adios2: selection rank mismatch for %q", v.Name)
	}
	copy(v.start, start)
	copy(v.count, count)
	return nil
}

// SelectionBytes reports the byte size of the current selection.
func (v *Variable) SelectionBytes() int64 {
	n := int64(1)
	for _, c := range v.count {
		n *= int64(c)
	}
	return n * v.Type.Size()
}

// Host ties an engine to the simulation: the calling rank's process, its
// POSIX environment, and its communicator.
type Host struct {
	Proc *sim.Proc
	Env  *posix.Env
	Comm *mpisim.Comm
}

// paramOn reports whether a parameter holds an affirmative value.
func paramOn(v string) bool {
	switch v {
	case "on", "true", "1", "yes":
		return true
	}
	return false
}

// applyBurstQoS forwards the BurstQoS* engine parameters to the staging
// tier's drain scheduler when the staged file system is a burst tier.
// Every rank applies the same values at open time, so the call is
// idempotent across the communicator. Malformed knob values are errors —
// a typo'd rate limit silently running uncapped would defeat the knob's
// purpose.
func (io *IO) applyBurstQoS(fs pfs.FileSystem) error {
	bfs, ok := fs.(*burst.FS)
	if !ok {
		return nil
	}
	tier := bfs.Tier()
	q := tier.QoS()
	changed := false
	if v, ok := io.params["BurstQoSPriority"]; ok {
		q.PriorityLanes = paramOn(v)
		changed = true
	}
	if v, ok := io.params["BurstDrainLimit"]; ok {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || f < 0 {
			return fmt.Errorf("adios2: bad BurstDrainLimit %q (want non-negative bytes/second)", v)
		}
		q.DrainLimit = f
		changed = true
	}
	if v, ok := io.params["BurstDrainDeadline"]; ok {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || f < 0 {
			return fmt.Errorf("adios2: bad BurstDrainDeadline %q (want non-negative seconds)", v)
		}
		q.Deadline = sim.Duration(f)
		changed = true
	}
	if changed {
		tier.SetQoS(q)
	}
	return nil
}

// Open creates an engine for path in the given mode. Every rank of the
// communicator must call Open collectively for write mode. With the
// BurstBuffer parameter on and a staging tier attached to the host
// environment, all engine I/O (write and read) goes through the tier.
func (io *IO) Open(h Host, path string, mode Mode) (*Engine, error) {
	if h.Proc == nil || h.Env == nil || h.Comm == nil {
		return nil, fmt.Errorf("adios2: incomplete host")
	}
	if paramOn(io.Parameter("BurstBuffer", "off")) {
		if st := h.Env.Staged(); st != nil {
			h.Env = st
			if err := io.applyBurstQoS(st.FS); err != nil {
				return nil, err
			}
		}
	}
	switch mode {
	case ModeWrite:
		return openWriter(io, h, path)
	case ModeRead:
		return openReader(io, h, path)
	default:
		return nil, fmt.Errorf("adios2: bad mode %d", mode)
	}
}
