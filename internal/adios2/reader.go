package adios2

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"

	"picmcio/internal/compress"
	"picmcio/internal/pfs"
)

func putF64(b []byte, f float64) { putU64(b, math.Float64bits(f)) }

// getF64 decodes a little-endian float64.
func getF64(b []byte) float64 { return math.Float64frombits(getU64(b)) }

// Float64sFromBytes decodes a packed little-endian float64 payload.
func Float64sFromBytes(b []byte) []float64 {
	out := make([]float64, len(b)/8)
	for i := range out {
		out[i] = getF64(b[8*i:])
	}
	return out
}

// VarInfo summarizes a variable visible in one step.
type VarInfo struct {
	Name   string
	Type   DType
	Shape  []uint64
	Chunks int
	Bytes  int64 // raw (uncompressed) bytes across chunks
}

// readerState holds the parsed metadata of an opened dataset.
type readerState struct {
	steps    []int64                 // unique step ids, in first-seen order
	bySteps  map[int64]*mdStepRecord // latest record per step id
	idxCount int
}

// openReader opens path for reading. Only the two metadata files are
// touched — the "rapid metadata extraction in BP4 format" the paper's
// abstract credits: listing steps and variables never reads data.N.
func (e *Engine) openReader(path string) error {
	h, p := e.h, e.h.Proc

	idxFD, err := h.Env.Open(p, pfs.Join(e.path, "md.idx"))
	if err != nil {
		return fmt.Errorf("adios2: %s: %w", path, err)
	}
	idxRaw := idxFD.Pread(p, 0, idxFD.Size())
	idxFD.Close(p)
	if idxRaw == nil && idxFD.Size() > 0 {
		return fmt.Errorf("adios2: %s: metadata was written in volume mode and cannot be read back", path)
	}

	mdFD, err := h.Env.Open(p, pfs.Join(e.path, "md.0"))
	if err != nil {
		return fmt.Errorf("adios2: %s: %w", path, err)
	}
	rd := &readerState{bySteps: map[int64]*mdStepRecord{}}
	// A trailing partial record is ignored, as a step whose index record
	// was cut short by a crash would be.
	for ; (rd.idxCount+1)*idxRecordBytes <= len(idxRaw); rd.idxCount++ {
		rec := idxRaw[rd.idxCount*idxRecordBytes:][:idxRecordBytes]
		step := int64(getU64(rec[0:]))
		// The index is input from outside: a region is taken on trust only
		// once it lies inside md.0.
		mdOff, mdLen := getU64(rec[8:]), getU64(rec[16:])
		if size := uint64(mdFD.Size()); mdOff > size || mdLen > size-mdOff {
			mdFD.Close(p)
			return fmt.Errorf("adios2: %s: md.idx record %d places step %d at [%d,+%d) of an md.0 of %d bytes", path, rd.idxCount, step, mdOff, mdLen, size)
		}
		line := mdFD.Pread(p, int64(mdOff), int64(mdLen))
		if line == nil {
			mdFD.Close(p)
			return fmt.Errorf("adios2: %s: md.0 region [%d,%d) unavailable", path, mdOff, mdOff+mdLen)
		}
		var sr mdStepRecord
		if err := json.Unmarshal([]byte(strings.TrimSpace(string(line))), &sr); err != nil {
			mdFD.Close(p)
			return fmt.Errorf("adios2: %s: bad md.0 record: %w", path, err)
		}
		if _, seen := rd.bySteps[step]; !seen {
			rd.steps = append(rd.steps, step)
		}
		rd.bySteps[step] = &sr // later records replace earlier (checkpoint overwrite)
	}
	mdFD.Close(p)
	e.rd = rd
	return nil
}

func (e *Engine) closeReader() error { return nil }

// Steps lists the step ids present in the dataset.
func (e *Engine) Steps() ([]int64, error) {
	if e.mode != ModeRead {
		return nil, fmt.Errorf("adios2: Steps on write engine")
	}
	return append([]int64(nil), e.rd.steps...), nil
}

// VariablesAt lists the variables recorded in a step, sorted by name.
func (e *Engine) VariablesAt(step int64) ([]VarInfo, error) {
	if e.mode != ModeRead {
		return nil, fmt.Errorf("adios2: VariablesAt on write engine")
	}
	sr, ok := e.rd.bySteps[step]
	if !ok {
		return nil, fmt.Errorf("adios2: no step %d", step)
	}
	agg := map[string]*VarInfo{}
	for _, c := range sr.Chunks {
		vi := agg[c.Var]
		if vi == nil {
			vi = &VarInfo{Name: c.Var, Type: c.Type, Shape: append([]uint64(nil), c.Shape...)}
			agg[c.Var] = vi
		}
		vi.Chunks++
		vi.Bytes += c.RawLen
	}
	out := make([]VarInfo, 0, len(agg))
	for _, vi := range agg {
		out = append(out, *vi)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// Get reads and reassembles a 1-D variable's global array for a step,
// reading only the subfile regions that hold its chunks and decompressing
// them as needed. It returns the packed little-endian payload.
func (e *Engine) Get(step int64, name string) ([]byte, []uint64, error) {
	if e.mode != ModeRead {
		return nil, nil, fmt.Errorf("adios2: Get on write engine")
	}
	sr, ok := e.rd.bySteps[step]
	if !ok {
		return nil, nil, fmt.Errorf("adios2: no step %d", step)
	}
	var chunks []chunkDesc
	var shape []uint64
	var dtype DType
	for _, c := range sr.Chunks {
		if c.Var == name {
			chunks = append(chunks, c)
			shape = c.Shape
			dtype = c.Type
		}
	}
	if len(chunks) == 0 {
		return nil, nil, fmt.Errorf("adios2: no variable %q in step %d", name, step)
	}
	if len(shape) != 1 {
		return nil, nil, fmt.Errorf("adios2: Get supports 1-D variables, %q is %d-D", name, len(shape))
	}
	// The metadata is input from outside. Before anything is sized by it,
	// every chunk must lie inside the shape, and the shape must be no larger
	// than what the chunks say they hold — which each is held to below,
	// against the bytes actually read.
	esz := uint64(dtype.Size())
	if shape[0] > math.MaxInt64/esz {
		return nil, nil, fmt.Errorf("adios2: %q has an impossible shape %v", name, shape)
	}
	size := shape[0] * esz
	var held uint64
	for _, c := range chunks {
		if len(c.Start) != 1 || c.RawLen < 0 || uint64(c.RawLen) > size || c.Start[0] > (size-uint64(c.RawLen))/esz {
			return nil, nil, fmt.Errorf("adios2: %q: a chunk of %d bytes at %v lies outside the shape %v", name, c.RawLen, c.Start, shape)
		}
		if c.Offset < 0 || c.Len < perPutHeaderBytes {
			return nil, nil, fmt.Errorf("adios2: %q: a chunk stored at [%d,+%d) of data.%d", name, c.Offset, c.Len, c.Subfile)
		}
		held += uint64(c.RawLen) // each at most size: no overflow short of 2^64/size chunks
	}
	if size > held {
		return nil, nil, fmt.Errorf("adios2: %q: shape %v is %d bytes, its chunks hold %d", name, shape, size, held)
	}
	p := e.h.Proc

	// Group chunk reads by subfile to open each data.N once. The global
	// array is made once every chunk has been read back whole: by then its
	// size is backed by bytes that exist.
	type piece struct {
		at   uint64
		body []byte
	}
	pieces := make([]piece, 0, len(chunks))
	bySub := map[int][]chunkDesc{}
	for _, c := range chunks {
		bySub[c.Subfile] = append(bySub[c.Subfile], c)
	}
	subs := make([]int, 0, len(bySub))
	for s := range bySub {
		subs = append(subs, s)
	}
	sort.Ints(subs)
	for _, s := range subs {
		fd, err := e.h.Env.Open(p, pfs.Join(e.path, fmt.Sprintf("data.%d", s)))
		if err != nil {
			return nil, nil, err
		}
		for _, c := range bySub[s] {
			raw := fd.Pread(p, c.Offset, c.Len)
			if raw == nil {
				fd.Close(p)
				return nil, nil, fmt.Errorf("adios2: data.%d region for %q unavailable (volume mode)", s, name)
			}
			if int64(len(raw)) < perPutHeaderBytes {
				fd.Close(p)
				return nil, nil, fmt.Errorf("adios2: chunk for %q too short", name)
			}
			body := raw[perPutHeaderBytes:]
			if c.Codec != "" && c.Codec != "none" {
				// The 64-byte header is stored raw; only the body is
				// compressed, one operator application per block.
				codec, err := compress.New(c.Codec, int(dtype.Size()))
				if err != nil {
					fd.Close(p)
					return nil, nil, err
				}
				dec, err := codec.Decompress(body)
				if err != nil {
					fd.Close(p)
					return nil, nil, fmt.Errorf("adios2: decompress %q: %w", name, err)
				}
				body = dec
			}
			if int64(len(body)) < c.RawLen {
				fd.Close(p)
				return nil, nil, fmt.Errorf("adios2: chunk for %q too short: %d < %d", name, len(body), c.RawLen)
			}
			pieces = append(pieces, piece{c.Start[0] * esz, body[:c.RawLen]})
		}
		fd.Close(p)
	}
	out := make([]byte, size)
	for _, pc := range pieces {
		copy(out[pc.at:], pc.body)
	}
	return out, shape, nil
}
