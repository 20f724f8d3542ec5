package adios2

import (
	"encoding/json"
	"fmt"

	"picmcio/internal/compress"
	"picmcio/internal/mpisim"
	"picmcio/internal/pfs"
	"picmcio/internal/posix"
	"picmcio/internal/sim"
)

// perPutHeaderBytes models the BP serialization header in front of every
// variable block inside the data payload.
const perPutHeaderBytes = 64

// mdEntryBytes is the binary metadata footprint per (rank, variable, step)
// charged in volume mode; it makes the global metadata log grow linearly
// with rank count, the effect that dominates Table II's 1-AGGR file sizes
// at 200 nodes.
const mdEntryBytes = 24

// idxRecordBytes is the fixed size of one md.idx step record.
const idxRecordBytes = 64

// Timers accumulates one rank's engine-internal time, reported via
// profiling.json (Fig. 8 reads the memcpy bucket).
type Timers struct {
	Memcpy   sim.Duration `json:"memcpy_seconds"`
	Compress sim.Duration `json:"compress_seconds"`
	Gather   sim.Duration `json:"gather_seconds"`
	Write    sim.Duration `json:"write_seconds"`
	Meta     sim.Duration `json:"meta_seconds"`
}

// chunkDesc describes one rank's contribution to one variable in one step;
// it is the unit of BP4 metadata.
type chunkDesc struct {
	Var     string   `json:"var"`
	Type    DType    `json:"type"`
	Shape   []uint64 `json:"shape"`
	Start   []uint64 `json:"start"`
	Count   []uint64 `json:"count"`
	RawLen  int64    `json:"raw"`
	Codec   string   `json:"codec,omitempty"`
	Subfile int      `json:"subfile"`
	Offset  int64    `json:"offset"` // absolute offset of the rank's block in the subfile
	Len     int64    `json:"len"`    // stored (possibly compressed) block length
}

// putRec is one staged Put. Its selection is a snapshot, taken at Put
// time because the variable's own is overwritten by the next
// SetSelection: start then count, at sel in the engine's selection buffer.
type putRec struct {
	v    *Variable
	sel  int
	n    int64
	data []byte
}

type stepLoc struct {
	off int64
	n   int64
}

// Engine is an open BP4 (or BP5) dataset.
type Engine struct {
	io   *IO
	h    Host
	path string
	mode Mode

	nAgg    int
	aggComm *mpisim.Comm
	ldrComm *mpisim.Comm
	isAgg   bool
	subfile int

	dataFD *posix.FD // aggregators only
	mdFD   *posix.FD // world rank 0 only
	idxFD  *posix.FD // world rank 0 only

	codec      compress.Codec
	cost       compress.CostModel
	volRatio   float64
	memRate    float64
	profile    bool
	pfsDurable bool // EndStep blocks until staged writes are PFS-durable

	// puts and sels are sized at the engine's first Put for one Put of each
	// variable the IO then holds, and grow past that.
	puts      []putRec
	sels      []uint64 // the step's selection snapshots, reset at BeginStep
	inStep    bool
	curStep   int64
	stepSeq   int
	steps     map[int64]stepLoc // aggregator-local step placement
	contentOK bool              // all puts so far carried real bytes

	Timers Timers

	rd *readerState // read mode only
}

// openWriter opens path for collective writing.
func openWriter(io *IO, h Host, path string) (*Engine, error) {
	// Before anything collective: a bad parameter is the same error on
	// every rank, and nobody is left parked.
	wp, err := io.set.writer()
	if err != nil {
		return nil, err
	}
	size := h.Comm.Size()
	e := &Engine{
		io:         io,
		h:          h,
		path:       pfs.Clean(path),
		mode:       ModeWrite,
		nAgg:       size,
		volRatio:   1,
		memRate:    wp.memRate,
		profile:    wp.profile,
		pfsDurable: wp.pfsDurable,
		curStep:    -1,
	}
	if wp.numAgg != 0 {
		e.nAgg = min(wp.numAgg, size)
	}
	if op := io.set.operator; op != "" && op != "none" {
		c, err := compress.New(op, 8)
		if err != nil {
			return nil, err
		}
		e.codec = c
		e.cost = compress.CostOf(op)
		e.volRatio = wp.volRatio
	}

	rank := h.Comm.Rank()
	if rank == 0 {
		if err := h.Env.MkdirAll(h.Proc, e.path); err != nil {
			return nil, err
		}
		if e.mdFD, err = h.Env.Create(h.Proc, pfs.Join(e.path, "md.0")); err != nil {
			return nil, err
		}
		if e.idxFD, err = h.Env.Create(h.Proc, pfs.Join(e.path, "md.idx")); err != nil {
			return nil, err
		}
		if io.set.engine == "BP5" {
			fd, err := h.Env.Create(h.Proc, pfs.Join(e.path, "mmd.0"))
			if err != nil {
				return nil, err
			}
			fd.Close(h.Proc)
		}
	}
	color := rank * e.nAgg / size
	e.subfile = color
	e.aggComm = h.Comm.Split(color, rank)
	e.isAgg = e.aggComm.Rank() == 0
	if e.isAgg {
		e.ldrComm = h.Comm.Split(0, rank)
		e.steps = map[int64]stepLoc{}
		if e.dataFD, err = h.Env.Create(h.Proc, pfs.Join(e.path, fmt.Sprintf("data.%d", color))); err != nil {
			return nil, err
		}
	} else {
		e.ldrComm = h.Comm.Split(1, rank)
	}
	h.Comm.Barrier()
	return e, nil
}

// NumAggregators reports the effective aggregator (subfile) count.
func (e *Engine) NumAggregators() int { return e.nAgg }

// Path reports the dataset directory.
func (e *Engine) Path() string { return e.path }

// BeginStep starts writing step id. Re-using a previous id replaces that
// step's payload in place when it fits — the mechanism behind openPMD's
// "iteration 0 is periodically overwritten" checkpointing strategy.
func (e *Engine) BeginStep(id int64) error {
	if e.mode != ModeWrite {
		return fmt.Errorf("adios2: BeginStep on read engine")
	}
	if e.inStep {
		return fmt.Errorf("adios2: nested BeginStep")
	}
	e.inStep = true
	e.curStep = id
	e.puts = e.puts[:0]
	e.sels = e.sels[:0]
	e.contentOK = true
	return nil
}

// Put stages variable data for the current step. data may carry the real
// bytes (content mode) or be nil with only the selection's size counted
// (volume mode). Without a compression operator the engine copies the
// payload into its serialization buffer, costing memcpy time; with an
// operator the payload is consumed directly by the compressor at EndStep
// — which is why Fig. 8 shows memcpy vanishing under Blosc.
func (e *Engine) Put(v *Variable, data []byte) error {
	if !e.inStep {
		return fmt.Errorf("adios2: Put outside step")
	}
	n := v.SelectionBytes()
	if data != nil && int64(len(data)) != n {
		return fmt.Errorf("adios2: %q payload %d bytes, selection %d", v.Name, len(data), n)
	}
	if data == nil {
		e.contentOK = false
	}
	if e.puts == nil {
		e.puts = make([]putRec, 0, e.io.nvars)
		e.sels = make([]uint64, 0, 2*e.io.dims)
	}
	e.puts = append(e.puts, putRec{v: v, sel: len(e.sels), n: n, data: data})
	e.sels = append(append(e.sels, v.start...), v.count...)
	if e.codec == nil && n > 0 {
		d := sim.Duration(float64(n) / e.memRate)
		e.Timers.Memcpy += d
		e.h.Proc.Sleep(d)
	}
	return nil
}

// PutFloat64s is a convenience for content-mode float64 payloads.
func (e *Engine) PutFloat64s(v *Variable, vals []float64) error {
	buf := make([]byte, 8*len(vals))
	for i, f := range vals {
		putF64(buf[8*i:], f)
	}
	return e.Put(v, buf)
}

// EndStep serializes, compresses, aggregates and writes the staged puts,
// then publishes the step's metadata. It is collective.
func (e *Engine) EndStep() error {
	if !e.inStep {
		return fmt.Errorf("adios2: EndStep outside step")
	}
	p, comm := e.h.Proc, e.h.Comm

	// Serialize this rank's payload: per put, a 64-byte block header
	// followed by the (individually compressed) body — compression
	// operators apply per variable block, as in real ADIOS2 — and build
	// this rank's chunk table beside it (offsets filled by the aggregator).
	// In volume mode neither is materialized; only the table's analytic
	// binary footprint travels, so 25k-rank runs stay cheap.
	var stored int64
	var storedContent []byte
	var table []chunkDesc
	if e.contentOK {
		table = make([]chunkDesc, len(e.puts))
	}
	if e.codec != nil {
		var rawTotal int64
		for _, pr := range e.puts {
			rawTotal += pr.n
		}
		d := e.cost.CompressTime(rawTotal)
		e.Timers.Compress += d
		p.Sleep(d)
	}
	for i, pr := range e.puts {
		blockLen := perPutHeaderBytes + pr.n
		var body []byte
		if e.codec != nil && pr.n > 0 {
			if pr.data != nil {
				body = e.codec.Compress(pr.data)
				blockLen = perPutHeaderBytes + int64(len(body))
			} else {
				blockLen = perPutHeaderBytes + int64(float64(pr.n)*e.volRatio)
			}
		} else {
			body = pr.data
		}
		stored += blockLen
		if e.contentOK {
			if storedContent == nil {
				storedContent = make([]byte, 0, stored)
			}
			storedContent = append(storedContent, make([]byte, perPutHeaderBytes)...)
			storedContent = append(storedContent, body...)
			d := len(pr.v.Shape)
			table[i] = chunkDesc{
				Var: pr.v.Name, Type: pr.v.Type, Shape: pr.v.Shape,
				Start: e.sels[pr.sel : pr.sel+d], Count: e.sels[pr.sel+d : pr.sel+2*d], RawLen: pr.n,
				Codec: e.io.set.operator, Subfile: e.subfile, Len: blockLen,
			}
		}
	}
	var tableJSON []byte
	tableBytes := int64(len(e.puts)) * mdEntryBytes
	if e.contentOK {
		var err error
		if tableJSON, err = json.Marshal(table); err != nil {
			return err
		}
		tableBytes = int64(len(tableJSON))
	}

	// Gather payloads and chunk tables to the group aggregator.
	t0 := p.Now()
	chunks := e.aggComm.GathervBytes(stored, storedContent, 0)
	tchunks := e.aggComm.GathervBytes(tableBytes, tableJSON, 0)
	e.Timers.Gather += p.Now() - t0

	// Aggregator writes its subfile and completes the chunk tables.
	var myMD []chunkDesc
	var myMDBytes int64 // analytic size when tables are not materialized
	if e.isAgg {
		var total int64
		for _, c := range chunks {
			total += c.N
		}
		var off int64
		if loc, replacing := e.steps[e.curStep]; replacing && total <= loc.n {
			off = loc.off // overwrite the previous payload in place
		} else {
			off = e.dataFD.Size()
			e.steps[e.curStep] = stepLoc{off: off, n: total}
		}
		var payload []byte
		allContent := true
		for _, c := range chunks {
			if c.Data == nil && c.N > 0 {
				allContent = false
				break
			}
		}
		if allContent {
			payload = make([]byte, 0, total)
			for _, c := range chunks {
				payload = append(payload, c.Data...)
			}
		}
		tw0 := p.Now()
		if total > 0 {
			e.dataFD.Pwrite(p, off, total, payload)
		}
		e.Timers.Write += p.Now() - tw0

		// Complete chunk descriptors with subfile offsets: each rank's
		// blocks land back to back in gather order, and every table
		// entry already carries its exact stored length.
		cur := off
		for ri, c := range tchunks {
			if c.Data == nil {
				myMDBytes += c.N
				cur += chunks[ri].N
				continue
			}
			var tbl []chunkDesc
			if err := json.Unmarshal(c.Data, &tbl); err != nil {
				return fmt.Errorf("adios2: chunk table: %w", err)
			}
			for i := range tbl {
				tbl[i].Offset = cur
				cur += tbl[i].Len
			}
			myMD = append(myMD, tbl...)
		}
	}

	// Leaders forward their step metadata to world rank 0, which appends
	// the global metadata log and the step index.
	if e.isAgg {
		var mdJSON []byte
		mdBytes := myMDBytes
		if myMDBytes == 0 { // fully materialized tables
			var err error
			if mdJSON, err = json.Marshal(myMD); err != nil {
				return err
			}
			mdBytes = int64(len(mdJSON))
		}
		gathered := e.ldrComm.GathervBytes(mdBytes, mdJSON, 0)
		if comm.Rank() == 0 {
			tm0 := p.Now()
			var all []chunkDesc
			var analyticBytes int64
			content := true
			for _, g := range gathered {
				if g.Data == nil {
					analyticBytes += g.N
					content = false
					continue
				}
				var tbl []chunkDesc
				if err := json.Unmarshal(g.Data, &tbl); err != nil {
					return fmt.Errorf("adios2: md gather: %w", err)
				}
				all = append(all, tbl...)
			}
			mdOff := e.mdFD.Size()
			if content {
				rec := mdStepRecord{Step: e.curStep, Seq: e.stepSeq, Chunks: all}
				line, err := json.Marshal(rec)
				if err != nil {
					return err
				}
				line = append(line, '\n')
				e.mdFD.Write(p, int64(len(line)), line)
			} else {
				// Volume mode: charge the analytic metadata footprint,
				// which grows linearly with total rank count.
				e.mdFD.Write(p, analyticBytes, nil)
			}
			var idx [idxRecordBytes]byte
			putU64(idx[0:], uint64(e.curStep))
			putU64(idx[8:], uint64(mdOff))
			putU64(idx[16:], uint64(e.mdFD.Size()-mdOff))
			putU64(idx[24:], uint64(e.stepSeq))
			e.idxFD.Write(p, idxRecordBytes, idx[:])
			e.Timers.Meta += p.Now() - tm0
		}
	}

	// Burst staging: at step close, nudge the tier's drain scheduler so
	// buffered epoch data starts flowing to the PFS in the background. If
	// PFS durability was requested, the writers fsync first — on a staged
	// file that forces the drain and blocks until write-back completes,
	// so the step is PFS-durable before EndStep returns.
	if st, ok := e.h.Env.FS.(pfs.Stager); ok {
		if e.pfsDurable {
			if e.isAgg && e.dataFD != nil {
				e.dataFD.Fsync(p)
			}
			if comm.Rank() == 0 {
				e.mdFD.Fsync(p)
				e.idxFD.Fsync(p)
			}
		}
		st.DrainEpoch(p)
	}

	comm.Barrier()
	e.inStep = false
	e.curStep = -1
	e.stepSeq++
	e.puts = e.puts[:0]
	return nil
}

// mdStepRecord is one line of md.0.
type mdStepRecord struct {
	Step   int64       `json:"step"`
	Seq    int         `json:"seq"`
	Chunks []chunkDesc `json:"chunks"`
}

// Close flushes profiling output and closes all files. It is collective.
func (e *Engine) Close() error {
	if e.mode == ModeRead {
		return e.closeReader()
	}
	p, comm := e.h.Proc, e.h.Comm
	if e.profile {
		sum := profileSummary{
			Ranks:       comm.Size(),
			Aggregators: e.nAgg,
			Engine:      e.io.set.engine,
			Operator:    e.io.set.operator,
		}
		sum.Total.Memcpy = sim.Duration(comm.AllreduceF64(float64(e.Timers.Memcpy), "sum"))
		sum.Total.Compress = sim.Duration(comm.AllreduceF64(float64(e.Timers.Compress), "sum"))
		sum.Total.Gather = sim.Duration(comm.AllreduceF64(float64(e.Timers.Gather), "sum"))
		sum.Total.Write = sim.Duration(comm.AllreduceF64(float64(e.Timers.Write), "sum"))
		sum.Total.Meta = sim.Duration(comm.AllreduceF64(float64(e.Timers.Meta), "sum"))
		sum.Max.Memcpy = sim.Duration(comm.AllreduceF64(float64(e.Timers.Memcpy), "max"))
		sum.Max.Compress = sim.Duration(comm.AllreduceF64(float64(e.Timers.Compress), "max"))
		sum.Max.Gather = sim.Duration(comm.AllreduceF64(float64(e.Timers.Gather), "max"))
		sum.Max.Write = sim.Duration(comm.AllreduceF64(float64(e.Timers.Write), "max"))
		sum.Max.Meta = sim.Duration(comm.AllreduceF64(float64(e.Timers.Meta), "max"))
		if comm.Rank() == 0 {
			body, err := json.MarshalIndent(sum, "", "  ")
			if err != nil {
				return err
			}
			fd, err := e.h.Env.Create(p, pfs.Join(e.path, "profiling.json"))
			if err != nil {
				return err
			}
			fd.Write(p, int64(len(body)), body)
			fd.Close(p)
		}
	}
	if e.dataFD != nil {
		e.dataFD.Close(p)
	}
	if e.mdFD != nil {
		e.mdFD.Close(p)
		e.idxFD.Close(p)
	}
	comm.Barrier()
	return nil
}

// profileSummary is the schema of profiling.json.
type profileSummary struct {
	Ranks       int    `json:"ranks"`
	Aggregators int    `json:"aggregators"`
	Engine      string `json:"engine"`
	Operator    string `json:"operator,omitempty"`
	Total       Timers `json:"total"`
	Max         Timers `json:"max_rank"`
}

// ParseProfile decodes a profiling.json body.
func ParseProfile(body []byte) (ranks, aggregators int, total, max Timers, err error) {
	var s profileSummary
	if err = json.Unmarshal(body, &s); err != nil {
		return
	}
	return s.Ranks, s.Aggregators, s.Total, s.Max, nil
}

func putU64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

func getU64(b []byte) uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(b[i]) << (8 * i)
	}
	return v
}
