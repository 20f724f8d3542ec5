package adios2

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"picmcio/internal/compress"
	"picmcio/internal/mpisim"
)

// A Variable copies the dimension slices it is given: the layers above
// reuse theirs in place.
func TestVariableOwnsItsDimensions(t *testing.T) {
	io := New().DeclareIO("own")
	shape, start, count := []uint64{32}, []uint64{8}, []uint64{4}
	v, err := io.DefineVariable("x", TypeFloat64, shape, start, count)
	if err != nil {
		t.Fatal(err)
	}
	check := func(after string, wantShape, wantStart, wantCount uint64) {
		t.Helper()
		if v.Shape()[0] != wantShape || v.start()[0] != wantStart || v.count()[0] != wantCount {
			t.Errorf("after %s: shape=%v start=%v count=%v, want [%d] [%d] [%d]",
				after, v.Shape(), v.start(), v.count(), wantShape, wantStart, wantCount)
		}
	}
	shape[0], start[0], count[0] = 1, 2, 3
	check("mutating DefineVariable's arguments", 32, 8, 4)

	if err := v.SetSelection(start, count); err != nil {
		t.Fatal(err)
	}
	start[0], count[0] = 20, 30
	check("mutating SetSelection's arguments", 32, 2, 3)
	if got := v.SelectionBytes(); got != 3*8 {
		t.Errorf("SelectionBytes=%d, want 24", got)
	}

	if err := v.SetShape(shape); err != nil {
		t.Fatal(err)
	}
	shape[0] = 99
	check("mutating SetShape's argument", 1, 2, 3)
}

// Two Puts of one variable in one step, the second after the selection
// moved (through the caller's same two slices): the step's metadata holds
// two chunk records, each with the selection its Put saw.
func TestTwoPutsOfOneVariableInOneStep(t *testing.T) {
	rg := newRig(1)
	rg.w.Run(func(r *mpisim.Rank) {
		io := New().DeclareIO("out")
		io.SetParameter("Profile", "off")
		start, count := []uint64{0}, []uint64{4}
		v, err := io.DefineVariable("x", TypeFloat64, []uint64{8}, start, count)
		if err != nil {
			t.Error(err)
			return
		}
		e, err := io.Open(rg.host(r), "/two.bp4", ModeWrite)
		if err != nil {
			t.Error(err)
			return
		}
		steps := []error{
			e.BeginStep(0),
			e.PutFloat64s(v, []float64{0, 1, 2, 3}),
		}
		start[0], count[0] = 4, 4
		steps = append(steps,
			v.SetSelection(start, count),
			e.PutFloat64s(v, []float64{4, 5, 6, 7}),
			e.EndStep(),
			e.Close(),
		)
		for i, err := range steps {
			if err != nil {
				t.Errorf("call %d: %v", i, err)
			}
		}
	})
	n, err := rg.fs.Namespace().Lookup("/two.bp4/md.0")
	if err != nil {
		t.Fatal(err)
	}
	var rec mdStepRecord
	if err := json.Unmarshal(n.Content, &rec); err != nil {
		t.Fatalf("md.0: %v", err)
	}
	if len(rec.Chunks) != 2 {
		t.Fatalf("md.0 holds %d chunk records, want 2: %+v", len(rec.Chunks), rec.Chunks)
	}
	for i, want := range []uint64{0, 4} {
		c := rec.Chunks[i]
		if !reflect.DeepEqual(c.Start, []uint64{want}) || !reflect.DeepEqual(c.Count, []uint64{4}) || !reflect.DeepEqual(c.Shape, []uint64{8}) {
			t.Errorf("chunk %d: shape=%v start=%v count=%v, want [8] [%d] [4]", i, c.Shape, c.Start, c.Count, want)
		}
	}
	if rec.Chunks[0].Offset == rec.Chunks[1].Offset {
		t.Errorf("both chunks at subfile offset %d", rec.Chunks[0].Offset)
	}
}

// Defining a name again — one at a time or in a row — leaves the earlier
// variable to whoever holds it and makes the name mean the new one.
func TestRedefinitionShadows(t *testing.T) {
	io := New().DeclareIO("again")
	first, _ := io.DefineVariable("x", TypeFloat64, []uint64{4}, []uint64{0}, []uint64{4})
	second, _ := io.DefineVariable("x", TypeFloat64, []uint64{8}, []uint64{0}, []uint64{8})
	if got, _ := io.InquireVariable("x"); got != *second || first.Shape()[0] != 4 {
		t.Errorf("after a second DefineVariable, x is %+v (first %+v, second %+v), first's shape %v", got, *first, *second, first.Shape())
	}
	set, err := NewVarSet([]string{"y", "x"}, TypeFloat64, 1)
	if err != nil {
		t.Fatal(err)
	}
	row, err := io.DefineRow(set, make([]uint64, set.RowWords()))
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := io.InquireVariable("x"); got != row.At(1) {
		t.Errorf("after DefineRow, x is %+v, want the row's %+v", got, row.At(1))
	}
	if _, ok := io.InquireVariable("z"); ok {
		t.Error("z was never defined")
	}
	if _, err := io.DefineRow(set, make([]uint64, set.RowWords()-1)); err == nil {
		t.Error("a row one number short accepted")
	}
}

// A variable is its IO's: Put refuses one another IO defined, one no IO
// did, and an index outside its row, with an adios2: error and nothing
// staged.
func TestPutRejectsForeignVariable(t *testing.T) {
	rg := newRig(1)
	rg.w.Run(func(r *mpisim.Rank) {
		mine, other := New().DeclareIO("mine"), New().DeclareIO("other")
		mine.SetParameter("Profile", "off")
		set, err := NewVarSet([]string{"a", "b"}, TypeFloat64, 1)
		if err != nil {
			t.Error(err)
			return
		}
		foreignRow, _ := other.DefineRow(set, make([]uint64, set.RowWords()))
		foreign, _ := other.DefineVariable("x", TypeFloat64, []uint64{4}, []uint64{0}, []uint64{4})
		own, _ := mine.DefineVariable("x", TypeFloat64, []uint64{4}, []uint64{0}, []uint64{4})
		ownRow, _ := mine.DefineRow(set, make([]uint64, set.RowWords()))
		e, err := mine.Open(rg.host(r), "/foreign.bp4", ModeWrite)
		if err != nil {
			t.Error(err)
			return
		}
		if err := e.BeginStep(0); err != nil {
			t.Error(err)
		}
		inRow, pastRow, before := foreignRow.At(0), ownRow.At(2), ownRow.At(-1)
		for what, v := range map[string]*Variable{
			"another IO's variable":    foreign,
			"another IO's row":         &inRow,
			"an index past its row":    &pastRow,
			"an index before its row":  &before,
			"a variable no IO defined": {},
			"no variable":              nil,
		} {
			// In volume mode and in content mode: each stages its own way.
			for _, data := range [][]byte{nil, make([]byte, 32)} {
				err := e.Put(v, data)
				if err == nil || !strings.HasPrefix(err.Error(), "adios2:") {
					t.Errorf("Put of %s (payload %v): %v, want an adios2: error", what, data != nil, err)
				}
			}
		}
		if len(e.puts) != 0 || e.vol != (volTotals{}) {
			t.Errorf("rejected puts were staged: %d recorded, %+v folded", len(e.puts), e.vol)
		}
		last := ownRow.At(1)
		if err := e.Put(own, nil); err != nil {
			t.Errorf("Put of its own variable: %v", err)
		}
		if err := e.Put(&last, nil); err != nil {
			t.Errorf("Put of the last variable of its own row: %v", err)
		}
		if err := e.EndStep(); err != nil {
			t.Error(err)
		}
		e.Close()
	})
}

// A step that mixes puts with payloads and puts without — empty ones
// among them — is a volume-mode step, but a payload it did get is still
// what the operator compresses, whichever put came first: per put a header
// and its body, a content put's compressed bytes under a codec and a
// volume put's selection scaled by the modelled ratio, and an analytic
// table entry per put.
func TestMixedContentAndVolumePuts(t *testing.T) {
	const volRatio = 0.8 // SimCompressionRatio's default
	type put struct {
		elems   uint64
		content bool
	}
	values := func(elems uint64) ([]float64, []byte) {
		vals, raw := make([]float64, elems), make([]byte, 8*elems)
		for i := range vals {
			vals[i] = float64(i % 4)
			putF64(raw[8*i:], vals[i])
		}
		return vals, raw
	}
	for _, puts := range [][]put{
		{{64, true}, {64, false}},
		{{64, false}, {64, true}},
		{{100, true}, {0, true}, {333, false}, {37, true}, {0, false}, {5, false}},
	} {
		for _, operator := range []string{"", "blosc"} {
			var codec compress.Codec
			if operator != "" {
				var err error
				if codec, err = compress.New(operator, 8); err != nil {
					t.Fatal(err)
				}
			}
			var want int64
			for _, p := range puts {
				body := 8 * int64(p.elems)
				switch _, raw := values(p.elems); {
				case codec == nil || body == 0:
				case p.content:
					body = int64(len(codec.Compress(raw)))
				default:
					body = int64(float64(body) * volRatio)
				}
				want += perPutHeaderBytes + body
			}
			rg := newRig(1)
			rg.w.Run(func(r *mpisim.Rank) {
				io := New().DeclareIO("mixed")
				io.SetParameter("Profile", "off")
				if err := io.AddOperation(operator); err != nil {
					t.Error(err)
					return
				}
				e, err := io.Open(rg.host(r), "/mixed.bp4", ModeWrite)
				if err != nil {
					t.Error(err)
					return
				}
				errs := []error{e.BeginStep(0)}
				for i, p := range puts {
					v, err := io.DefineVariable(fmt.Sprint("v", i), TypeFloat64, []uint64{p.elems}, []uint64{0}, []uint64{p.elems})
					errs = append(errs, err)
					if vals, _ := values(p.elems); p.content {
						errs = append(errs, e.PutFloat64s(v, vals))
					} else {
						errs = append(errs, e.Put(v, nil))
					}
				}
				errs = append(errs, e.EndStep(), e.Close())
				for i, err := range errs {
					if err != nil {
						t.Errorf("call %d: %v", i, err)
					}
				}
			})
			if n, err := rg.fs.Namespace().Lookup("/mixed.bp4/data.0"); err != nil || n.Size != want {
				t.Errorf("operator %q, puts %v: data.0 is %v bytes (%v), want %d", operator, puts, n, err, want)
			}
			if n, err := rg.fs.Namespace().Lookup("/mixed.bp4/md.0"); err != nil || n.Size != int64(len(puts))*mdEntryBytes {
				t.Errorf("operator %q, puts %v: md.0 is %v (%v), want the analytic %d bytes", operator, puts, n, err, int64(len(puts))*mdEntryBytes)
			}
		}
	}
}
