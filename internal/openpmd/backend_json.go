package openpmd

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"picmcio/internal/pfs"
)

// jsonBackend writes real, human-readable JSON files — one per iteration
// under <series>/data/ plus a root attributes.json. Chunks from all ranks
// are gathered to rank 0 and assembled into whole arrays, so the on-disk
// form is directly inspectable. It is meant for small runs (examples,
// validation); the BP backend is the performance path.
type jsonBackend struct {
	s      *Series
	iterID uint64
	inIter bool
	staged []jsonChunkMsg // this rank's staged chunks
}

type jsonVar struct {
	Extent []uint64  `json:"extent"`
	Data   []float64 `json:"data"`
}

type jsonChunkMsg struct {
	Var    string    `json:"var"`
	Extent []uint64  `json:"global_extent"`
	Offset []uint64  `json:"offset"`
	Count  []uint64  `json:"count"`
	Data   []float64 `json:"data"`
}

func newJSONBackend(s *Series) (*jsonBackend, error) {
	b := &jsonBackend{s: s}
	if s.access == AccessCreate && s.host.Comm.Rank() == 0 {
		if err := s.host.Env.MkdirAll(s.host.Proc, pfs.Join(s.path, "data")); err != nil {
			return nil, err
		}
	}
	return b, nil
}

func (b *jsonBackend) beginIteration(id uint64) error {
	if b.inIter {
		return fmt.Errorf("openpmd: json backend already in iteration")
	}
	b.inIter = true
	b.iterID = id
	b.staged = nil
	return nil
}

func (b *jsonBackend) store(rc RecordComponent, data []float64) error {
	if data == nil {
		return fmt.Errorf("openpmd: json backend requires real data (content mode)")
	}
	if rc.set.dims != 1 {
		return fmt.Errorf("openpmd: json backend supports 1-D datasets")
	}
	// rc's numbers are overwritten in place; the staged message keeps copies.
	dims := []uint64{rc.extent()[0], rc.offset()[0], rc.count()[0]}
	b.staged = append(b.staged, jsonChunkMsg{
		Var: rc.Path(), Extent: dims[:1], Offset: dims[1:2], Count: dims[2:], Data: data,
	})
	return nil
}

func (b *jsonBackend) closeIteration() error {
	if !b.inIter {
		return fmt.Errorf("openpmd: no open iteration")
	}
	b.inIter = false
	comm, p, env := b.s.host.Comm, b.s.host.Proc, b.s.host.Env

	mine, err := json.Marshal(b.staged)
	if err != nil {
		return err
	}
	gathered := comm.GathervBytes(int64(len(mine)), mine, 0)
	b.staged = nil
	if comm.Rank() != 0 {
		return nil
	}
	vars := map[string]*jsonVar{}
	for _, g := range gathered {
		var msgs []jsonChunkMsg
		if err := json.Unmarshal(g.Data, &msgs); err != nil {
			return err
		}
		for _, m := range msgs {
			v := vars[m.Var]
			if v == nil {
				v = &jsonVar{Extent: m.Extent, Data: make([]float64, m.Extent[0])}
				vars[m.Var] = v
			}
			copy(v.Data[m.Offset[0]:], m.Data)
		}
	}
	doc := map[string]any{
		"iteration":  b.iterID,
		"attributes": b.s.attributes(),
		"records":    vars,
	}
	body, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	fd, err := env.Create(p, b.iterPath(b.iterID))
	if err != nil {
		return err
	}
	fd.Write(p, int64(len(body)), body)
	fd.Close(p)
	return nil
}

func (b *jsonBackend) iterPath(id uint64) string {
	return pfs.Join(b.s.path, "data", fmt.Sprintf("%d.json", id))
}

func (b *jsonBackend) close() error {
	comm, p, env := b.s.host.Comm, b.s.host.Proc, b.s.host.Env
	if b.s.access == AccessCreate && comm.Rank() == 0 {
		body, err := json.MarshalIndent(b.s.attributes(), "", " ")
		if err != nil {
			return err
		}
		fd, err := env.Create(p, pfs.Join(b.s.path, "attributes.json"))
		if err != nil {
			return err
		}
		fd.Write(p, int64(len(body)), body)
		fd.Close(p)
	}
	return nil
}

func (b *jsonBackend) iterations() ([]uint64, error) {
	ents, err := b.s.host.Env.FS.ReadDir(b.s.host.Proc, b.s.host.Env.Client, pfs.Join(b.s.path, "data"))
	if err != nil {
		return nil, err
	}
	var out []uint64
	for _, e := range ents {
		base := e.Path[strings.LastIndexByte(e.Path, '/')+1:]
		if !strings.HasSuffix(base, ".json") {
			continue
		}
		id, err := strconv.ParseUint(strings.TrimSuffix(base, ".json"), 10, 64)
		if err != nil {
			continue
		}
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

func (b *jsonBackend) readIterDoc(it uint64) (map[string]*jsonVar, error) {
	p, env := b.s.host.Proc, b.s.host.Env
	fd, err := env.Open(p, b.iterPath(it))
	if err != nil {
		return nil, err
	}
	body := fd.Pread(p, 0, fd.Size())
	fd.Close(p)
	var doc struct {
		Records map[string]*jsonVar `json:"records"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return nil, fmt.Errorf("openpmd: bad iteration file: %w", err)
	}
	return doc.Records, nil
}

func (b *jsonBackend) load(it uint64, varPath string) ([]float64, []uint64, error) {
	recs, err := b.readIterDoc(it)
	if err != nil {
		return nil, nil, err
	}
	v, ok := recs[varPath]
	if !ok {
		return nil, nil, fmt.Errorf("openpmd: no record %q in iteration %d", varPath, it)
	}
	return v.Data, v.Extent, nil
}
