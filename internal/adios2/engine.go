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

// putRec is one staged Put: which of the IO's variables, in definition
// order, where in the engine's selection buffer its selection was
// snapshotted — start then count, taken at Put time because the variable's
// own is overwritten by the next SetSelection — and the selection's size in
// bytes.
type putRec struct {
	idx int32
	sel int32
	n   int64
}

// volTotals is what a step's volume-mode puts add up to: how many there
// were, their selections' bytes and their stored blocks' bytes.
type volTotals struct{ puts, raw, stored int64 }

type stepLoc struct {
	off int64
	n   int64
}

// writerFiles is what only the ranks that write files hold: every
// aggregator its subfile and where its steps lie in it, world rank 0 — an
// aggregator too — the global metadata log and the step index as well.
type writerFiles struct {
	data  *posix.FD
	md    *posix.FD         // world rank 0 only
	idx   *posix.FD         // world rank 0 only
	steps map[int64]stepLoc // aggregator-local step placement
}

// Engine is an open BP4 dataset.
type Engine struct {
	io   *IO
	h    Host
	path string

	aggComm *mpisim.Comm
	ldrComm *mpisim.Comm
	subfile int
	files   *writerFiles  // aggregators only
	wp      *engineParams // the world's, read-only

	codec compress.Codec // nil without an operator

	// puts, sels and data record the step's content-mode puts and are
	// sized at the engine's first one for one Put of each variable the IO
	// then holds, and grow past that.
	puts []putRec
	sels []uint64 // the step's selection snapshots, reset at BeginStep
	data [][]byte // the payloads, by put
	// vol folds the step's volume-mode puts into totals: they record
	// nothing else.
	vol     volTotals
	curStep int64
	stepSeq int
	// copyEnd is when the step's deferred copies end, if copying: they run
	// back to back from the step's first Put (see Put).
	copyEnd sim.Time

	mode      Mode
	isAgg     bool
	inStep    bool
	closed    bool
	contentOK bool // all puts so far carried real bytes
	copying   bool

	Timers Timers

	rd *readerState // read mode only

	// staged is the host's environment with the staging tier as its file
	// system, which h.Env points at when the engine's I/O is staged.
	staged posix.Env
}

// openWriter opens path for collective writing. Every rank parks in its
// split and its barrier, so what only world rank 0 and the aggregators do
// — creating files — has its own frames. A rank whose create fails stays
// in the split and hands its error to the closing BarrierErr, which makes
// it every rank's.
func (e *Engine) openWriter() error {
	io, h := e.io, e.h
	if op := io.set.operator; op != "" && op != "none" {
		// A codec is immutable, so the world builds one per operator
		// for all its ranks; AddOperation has checked the name.
		e.codec = mpisim.Memo(h.Comm, operatorKey(op), func() compress.Codec {
			c, _ := compress.New(op, 8)
			return c
		})
	}
	var err error

	// A subfile's group is a run of ranks and its lowest is the group's
	// aggregator, so both colours are known before the one split.
	rank, size, aggs := h.Comm.Rank(), h.Comm.Size(), e.aggregators()
	e.subfile = rank * aggs / size
	e.isAgg = rank == 0 || (rank-1)*aggs/size != e.subfile
	if rank == 0 {
		err = e.createMetadata()
	}
	// The leaders' split: the aggregators are colour 0, the rest 1. The
	// keys read Rank() again: rank kept live across createMetadata would
	// take a slot in this frame, which every rank parks under.
	ldrColor := 1
	if e.isAgg {
		ldrColor = 0
	}
	e.aggComm, e.ldrComm = h.Comm.SplitPair(e.subfile, h.Comm.Rank(), ldrColor, h.Comm.Rank())
	if e.isAgg && err == nil {
		err = e.createSubfile()
	}
	return h.Comm.BarrierErr(err)
}

// operatorKey is an operator's name as the key of its codec in the
// world memo.
type operatorKey string

// aggregators reports the number of subfiles: NumAggregators, clamped to
// the number of ranks, which it is without the parameter.
func (e *Engine) aggregators() int {
	size := e.h.Comm.Size()
	if e.wp.numAgg == 0 {
		return size
	}
	return min(e.wp.numAgg, size)
}

// createMetadata is world rank 0's part of openWriter: the dataset
// directory, the global metadata log and the step index.
func (e *Engine) createMetadata() error {
	p, env := e.h.Proc, e.h.Env
	if err := env.MkdirAll(p, e.path); err != nil {
		return err
	}
	e.files = &writerFiles{}
	var err error
	if e.files.md, err = env.Create(p, pfs.Join(e.path, "md.0")); err != nil {
		return err
	}
	if e.files.idx, err = env.Create(p, pfs.Join(e.path, "md.idx")); err != nil {
		return err
	}
	return nil
}

// createSubfile is an aggregator's part of openWriter.
func (e *Engine) createSubfile() (err error) {
	if e.files == nil {
		e.files = &writerFiles{}
	}
	e.files.steps = map[int64]stepLoc{}
	e.files.data, err = e.h.Env.Create(e.h.Proc, pfs.Join(e.path, fmt.Sprintf("data.%d", e.subfile)))
	return err
}

// BeginStep starts writing step id. Re-using a previous id replaces that
// step's payload in place when it fits — the mechanism behind openPMD's
// "iteration 0 is periodically overwritten" checkpointing strategy.
func (e *Engine) BeginStep(id int64) error {
	if e.mode != ModeWrite {
		return fmt.Errorf("adios2: BeginStep on read engine")
	}
	if e.closed {
		return fmt.Errorf("adios2: %s: BeginStep on closed engine", e.path)
	}
	if e.inStep {
		return fmt.Errorf("adios2: nested BeginStep")
	}
	e.inStep = true
	e.curStep = id
	e.puts = e.puts[:0]
	e.sels = e.sels[:0]
	e.data = e.data[:0]
	e.vol = volTotals{}
	e.contentOK = true
	return nil
}

// Put stages variable data for the current step. data may carry the real
// bytes (content mode), which must stay untouched until EndStep, or be nil
// with only the selection's size counted (volume mode), which the step's
// totals fold in at once. Put is deferred, as in ADIOS2: without a
// compression operator the engine copies the payload into its
// serialization buffer at EndStep, costing memcpy time — the step's copies
// run back to back from its first Put, so EndStep returns when they would
// had each Put copied at once; with an operator the payload is consumed
// directly by the compressor at EndStep — which is why Fig. 8 shows memcpy
// vanishing under Blosc.
func (e *Engine) Put(v *Variable, data []byte) error {
	if !e.inStep {
		return fmt.Errorf("adios2: Put outside step")
	}
	if v == nil || v.row == nil || v.row.io != e.io {
		return fmt.Errorf("adios2: Put of a variable that IO %q did not define", e.io.name)
	}
	if v.i < 0 || v.i >= len(v.row.set.names) {
		return fmt.Errorf("adios2: Put of variable %d of a row of %d", v.i, len(v.row.set.names))
	}
	n := v.SelectionBytes()
	if data != nil && int64(len(data)) != n {
		return fmt.Errorf("adios2: %q payload %d bytes, selection %d", v.Name(), len(data), n)
	}
	if data == nil {
		e.contentOK = false
		body := n
		if e.codec != nil && n > 0 {
			body = int64(float64(n) * e.wp.volRatio)
		}
		e.vol.puts++
		e.vol.raw += n
		e.vol.stored += perPutHeaderBytes + body
	} else {
		if e.puts == nil {
			e.puts = make([]putRec, 0, e.io.nvars)
			e.sels = make([]uint64, 0, 2*e.io.dims)
			e.data = make([][]byte, 0, e.io.nvars)
		}
		e.puts = append(e.puts, putRec{idx: int32(v.row.base + v.i), sel: int32(len(e.sels)), n: n})
		e.sels = append(append(e.sels, v.start()...), v.count()...)
		e.data = append(e.data, data)
	}
	if e.codec == nil && n > 0 {
		d := sim.Duration(float64(n) / memRate)
		e.Timers.Memcpy += d
		if !e.copying {
			e.copyEnd, e.copying = e.h.Proc.Now(), true
		}
		e.copyEnd += d
	}
	return nil
}

// copyPuts waits out the step's deferred copies.
func (e *Engine) copyPuts() {
	if e.copying {
		e.copying = false
		e.h.Proc.SleepUntil(e.copyEnd)
	}
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
// then publishes the step's metadata. It is collective, and every rank of
// the world parks in it — in a gather or in the barrier — so it holds only
// what every rank runs: what an aggregator or world rank 0 alone does has
// its own method, and its locals a frame only that rank pushes.
func (e *Engine) EndStep() error {
	if !e.inStep {
		return fmt.Errorf("adios2: EndStep outside step")
	}
	e.copyPuts()
	stored, content, tableBytes, table, err := e.serializeStep()
	if err != nil {
		return err
	}

	// Gather payloads and chunk tables to the group aggregator in one
	// rendezvous.
	p := e.h.Proc
	t0 := p.Now()
	chunks := e.aggComm.GathervPair(stored, content, tableBytes, table, 0)
	e.Timers.Gather += p.Now() - t0

	if e.isAgg {
		n := e.aggComm.Size()
		if err := e.aggregateStep(chunks[:n], chunks[n:]); err != nil {
			return err
		}
	}
	e.drainStep()

	e.h.Comm.Barrier()
	e.inStep = false
	e.curStep = -1
	e.stepSeq++
	e.puts = e.puts[:0]
	return nil
}

// serializeStep builds this rank's payload: per put, a 64-byte block
// header followed by the (individually compressed) body — compression
// operators apply per variable block, as in real ADIOS2 — and this rank's
// chunk table beside it as JSON (offsets filled by the aggregator). In
// volume mode neither is materialized; only their sizes are returned, the
// table's as its analytic binary footprint, so 25k-rank runs stay cheap.
func (e *Engine) serializeStep() (stored int64, content []byte, tableBytes int64, tableJSON []byte, err error) {
	var table []chunkDesc
	if e.contentOK {
		table = make([]chunkDesc, len(e.puts))
	}
	if e.codec != nil {
		rawTotal := e.vol.raw
		for _, pr := range e.puts {
			rawTotal += pr.n
		}
		d := compress.CostOf(e.io.set.operator).CompressTime(rawTotal)
		e.Timers.Compress += d
		e.h.Proc.Sleep(d)
	}
	stored = e.vol.stored
	for i, pr := range e.puts {
		body := e.data[i]
		if e.codec != nil && pr.n > 0 {
			body = e.codec.Compress(body)
		}
		blockLen := perPutHeaderBytes + int64(len(body))
		stored += blockLen
		if e.contentOK {
			if content == nil {
				content = make([]byte, 0, stored)
			}
			content = append(content, make([]byte, perPutHeaderBytes)...)
			content = append(content, body...)
			v := e.io.variable(int(pr.idx))
			d := int32(len(v.Shape()))
			table[i] = chunkDesc{
				Var: v.Name(), Type: v.Type(), Shape: v.Shape(),
				Start: e.sels[pr.sel : pr.sel+d], Count: e.sels[pr.sel+d : pr.sel+2*d], RawLen: pr.n,
				Codec: e.io.set.operator, Subfile: e.subfile, Len: blockLen,
			}
		}
	}
	tableBytes = (int64(len(e.puts)) + e.vol.puts) * mdEntryBytes
	if e.contentOK {
		if tableJSON, err = json.Marshal(table); err != nil {
			return 0, nil, 0, nil, err
		}
		tableBytes = int64(len(tableJSON))
	}
	return stored, content, tableBytes, tableJSON, nil
}

// aggregateStep is the aggregator's part of EndStep: it writes the
// gathered payloads to its subfile, completes the gathered chunk tables
// with their subfile offsets, and forwards them to world rank 0, which
// publishes the step.
func (e *Engine) aggregateStep(chunks, tchunks []mpisim.GatherChunk) error {
	p := e.h.Proc
	var total int64
	for _, c := range chunks {
		total += c.N
	}
	var off int64
	if loc, replacing := e.files.steps[e.curStep]; replacing && total <= loc.n {
		off = loc.off // overwrite the previous payload in place
	} else {
		off = e.files.data.Size()
		e.files.steps[e.curStep] = stepLoc{off: off, n: total}
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
		e.files.data.Pwrite(p, off, total, payload)
	}
	e.Timers.Write += p.Now() - tw0

	// Complete chunk descriptors with subfile offsets: each rank's
	// blocks land back to back in gather order, and every table
	// entry already carries its exact stored length.
	var myMD []chunkDesc
	var myMDBytes int64 // analytic size when tables are not materialized
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

	// Leaders forward their step metadata to world rank 0, which appends
	// the global metadata log and the step index.
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
	if e.h.Comm.Rank() == 0 {
		return e.publishStep(gathered)
	}
	return nil
}

// publishStep is world rank 0's part of EndStep: one md.0 record holding
// every leader's chunk tables, and the md.idx record that locates it.
func (e *Engine) publishStep(gathered []mpisim.GatherChunk) error {
	p, md := e.h.Proc, e.files.md
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
	mdOff := md.Size()
	if content {
		rec := mdStepRecord{Step: e.curStep, Seq: e.stepSeq, Chunks: all}
		line, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		line = append(line, '\n')
		md.Write(p, int64(len(line)), line)
	} else {
		// Volume mode: charge the analytic metadata footprint,
		// which grows linearly with total rank count.
		md.Write(p, analyticBytes, nil)
	}
	var idx [idxRecordBytes]byte
	putU64(idx[0:], uint64(e.curStep))
	putU64(idx[8:], uint64(mdOff))
	putU64(idx[16:], uint64(md.Size()-mdOff))
	putU64(idx[24:], uint64(e.stepSeq))
	e.files.idx.Write(p, idxRecordBytes, idx[:])
	e.Timers.Meta += p.Now() - tm0
	return nil
}

// drainStep nudges the burst tier's drain scheduler at step close, so
// buffered epoch data starts flowing to the PFS in the background. If PFS
// durability was requested, the writers fsync first — on a staged file
// that forces the drain and blocks until write-back completes, so the step
// is PFS-durable before EndStep returns.
func (e *Engine) drainStep() {
	st, ok := e.h.Env.FS.(pfs.Stager)
	if !ok {
		return
	}
	p := e.h.Proc
	if f := e.files; f != nil && e.wp.pfsDurable {
		f.data.Fsync(p)
		if f.md != nil {
			f.md.Fsync(p)
			f.idx.Fsync(p)
		}
	}
	st.DrainEpoch(p)
}

// mdStepRecord is one line of md.0.
type mdStepRecord struct {
	Step   int64       `json:"step"`
	Seq    int         `json:"seq"`
	Chunks []chunkDesc `json:"chunks"`
}

// Close flushes profiling output and closes all files. It is collective;
// a second Close does nothing. A step left open is not written.
func (e *Engine) Close() error {
	if e.closed {
		return nil
	}
	e.closed = true
	if e.mode == ModeRead {
		return e.closeReader()
	}
	p, comm := e.h.Proc, e.h.Comm
	e.copyPuts() // a step left open
	e.inStep = false
	if e.wp.profile {
		if err := e.writeProfile(); err != nil {
			return err
		}
	}
	if f := e.files; f != nil {
		f.data.Close(p)
		if f.md != nil {
			f.md.Close(p)
			f.idx.Close(p)
		}
	}
	comm.Barrier()
	return nil
}

// writeProfile reduces every rank's timers in one rendezvous — summed
// over the ranks, then their maximum, charged as the ten scalar allreduces
// it stands for — and world rank 0 writes them to profiling.json. Every
// rank parks in it: rank 0's part has its own frame.
func (e *Engine) writeProfile() error {
	t := &e.Timers
	v := [...]float64{float64(t.Memcpy), float64(t.Compress), float64(t.Gather), float64(t.Write), float64(t.Meta)}
	r := e.h.Comm.AllreduceVecF64(v[:], "sum", "max")
	if e.h.Comm.Rank() != 0 {
		return nil
	}
	return e.publishProfile(r)
}

// publishProfile is world rank 0's part of writeProfile: the reduced
// timers, sums then maxima, as profiling.json.
func (e *Engine) publishProfile(r []float64) error {
	p, comm := e.h.Proc, e.h.Comm
	sum := profileSummary{
		Ranks:       comm.Size(),
		Aggregators: e.aggregators(),
		Engine:      "BP4",
		Operator:    e.io.set.operator,
		Total:       Timers{Memcpy: sim.Duration(r[0]), Compress: sim.Duration(r[1]), Gather: sim.Duration(r[2]), Write: sim.Duration(r[3]), Meta: sim.Duration(r[4])},
		Max:         Timers{Memcpy: sim.Duration(r[5]), Compress: sim.Duration(r[6]), Gather: sim.Duration(r[7]), Write: sim.Duration(r[8]), Meta: sim.Duration(r[9])},
	}
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
