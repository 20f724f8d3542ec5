package openpmd

import (
	"fmt"
	"strings"

	"picmcio/internal/adios2"
)

// bp4Backend drives the simulated ADIOS2 BP engine. Iterations map to
// ADIOS2 steps ("group-based iteration encoding with steps", §III-B), so
// one engine/directory holds the whole series. It lies in its Series, and
// its IO in it.
type bp4Backend struct {
	io     adios2.IO
	eng    *adios2.Engine
	inIter bool
}

// ioTemplate is the world-memo value of an options document's ADIOS2
// settings: an IO every rank's is forked from, or why there is none.
type ioTemplate struct {
	io  *adios2.IO
	err error
}

// newIOTemplate parses the options document and resolves it into ADIOS2
// settings.
func newIOTemplate(options string) ioTemplate {
	cfg, err := ParseTOML(options)
	if err != nil {
		return ioTemplate{err: err}
	}
	io := adios2.New().DeclareIO("openpmd")
	// BP4 is the one engine; the TOML may name it, and nothing else.
	if engine := cfg.GetDefault("adios2.engine.type", "bp4"); engine != "bp4" && engine != "BP4" {
		return ioTemplate{err: fmt.Errorf("openpmd: unsupported adios2 engine %q (use bp4)", engine)}
	}
	// Engine parameters pass through from the TOML config; the aggregator
	// count is the paper's OPENPMD_ADIOS2_BP5_NumAgg knob. A tier's drain
	// policy and QoS are its burst.Spec's, so a burst_* key other than the
	// two top-level ones below — under [adios2.engine] too — is a typo or
	// a removed knob, and an error.
	for _, key := range cfg.Keys() {
		if param, ok := strings.CutPrefix(key, "adios2.engine.parameters."); ok && param != "" {
			v, _ := cfg.Get(key)
			io.SetParameter(param, v)
		}
		if name := strings.TrimPrefix(key, "adios2.engine."); strings.HasPrefix(name, "burst_") && key != "burst_buffer" && key != "burst_durability" {
			return ioTemplate{err: fmt.Errorf("openpmd: unknown key %q (the burst keys are burst_buffer and burst_durability)", key)}
		}
	}
	if op, ok := cfg.Get("adios2.dataset.operators.type"); ok {
		if err := io.AddOperation(op); err != nil {
			return ioTemplate{err: err}
		}
	}
	// Burst-buffer staging: a top-level `burst_buffer = true` routes
	// engine I/O through the host environment's staging tier;
	// `burst_durability = "pfs"` makes iteration close wait for write-back
	// instead of returning at buffered durability.
	for _, bk := range []struct{ toml, param string }{
		{"burst_buffer", "BurstBuffer"},
		{"burst_durability", "BurstDurability"},
	} {
		if v, ok := cfg.Get(bk.toml); ok {
			io.SetParameter(bk.param, v)
		}
	}
	return ioTemplate{io: io}
}

// open opens s's engine with an IO forked from tmpl.
func (b *bp4Backend) open(s *Series, tmpl *adios2.IO) error {
	b.fork(tmpl)
	h := adios2.Host{Proc: s.host.Proc, Env: s.host.Env, Comm: s.host.Comm}
	mode := adios2.ModeWrite
	if s.access == AccessReadOnly {
		mode = adios2.ModeRead
	}
	eng, err := b.io.Open(h, s.path, mode)
	if err != nil {
		return err
	}
	b.eng = eng
	return nil
}

// fork takes b's IO from the template: every rank parks under open, and
// the forked IO's temporary may not fatten its frame.
//
//go:noinline
func (b *bp4Backend) fork(tmpl *adios2.IO) { b.io = tmpl.Fork() }

func (b *bp4Backend) beginIteration(id uint64) error {
	if b.inIter {
		return fmt.Errorf("openpmd: bp4 backend already in iteration")
	}
	if err := b.eng.BeginStep(int64(id)); err != nil {
		return err
	}
	b.inIter = true
	return nil
}

// bind finds or defines the variables of a set's components, at its first
// store: a schema's all together over the set's own block of numbers, and
// so a named component's — unless another handle on the same path defined
// the variable already, which is then handed a copy at every store.
func (b *bp4Backend) bind(set *ComponentSet) error {
	vars := set.vars
	if vars == nil {
		if v, ok := b.io.InquireVariable(set.paths[0]); ok {
			set.bpRow, set.bpAt, set.bpInPlace = v.Row(), v.Index(), false
			return nil
		}
		var err error
		if vars, err = adios2.NewVarSet(set.paths, set.dtype.adios(), set.dims); err != nil {
			return err
		}
	}
	row, err := b.io.DefineRow(vars, set.nums)
	if err != nil {
		return err
	}
	set.bpRow, set.bpAt, set.bpInPlace = row, 0, true
	return nil
}

func (b *bp4Backend) store(rc RecordComponent, data []float64) error {
	set := rc.set
	if set.bpRow == nil {
		if err := b.bind(set); err != nil {
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
		return b.eng.Put(&v, nil)
	}
	return b.eng.PutFloat64s(&v, data)
}

func (b *bp4Backend) closeIteration() error {
	if !b.inIter {
		return fmt.Errorf("openpmd: no open iteration")
	}
	b.inIter = false
	return b.eng.EndStep()
}

func (b *bp4Backend) close() error { return b.eng.Close() }

func (b *bp4Backend) iterations() ([]uint64, error) {
	steps, err := b.eng.Steps()
	if err != nil {
		return nil, err
	}
	out := make([]uint64, len(steps))
	for i, s := range steps {
		out[i] = uint64(s)
	}
	return out, nil
}

func (b *bp4Backend) load(it uint64, varPath string) ([]float64, []uint64, error) {
	raw, shape, err := b.eng.Get(int64(it), varPath)
	if err != nil {
		return nil, nil, err
	}
	return adios2.Float64sFromBytes(raw), shape, nil
}
