package adios2

import (
	"encoding/json"
	"reflect"
	"testing"

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
		if v.Shape[0] != wantShape || v.start[0] != wantStart || v.count[0] != wantCount {
			t.Errorf("after %s: shape=%v start=%v count=%v, want [%d] [%d] [%d]",
				after, v.Shape, v.start, v.count, wantShape, wantStart, wantCount)
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

// Defining a name again — one at a time or in a batch — leaves the earlier
// variable to whoever holds it and makes the name mean the new one.
func TestRedefinitionShadows(t *testing.T) {
	io := New().DeclareIO("again")
	first, _ := io.DefineVariable("x", TypeFloat64, []uint64{4}, []uint64{0}, []uint64{4})
	second, _ := io.DefineVariable("x", TypeFloat64, []uint64{8}, []uint64{0}, []uint64{8})
	if got, _ := io.InquireVariable("x"); got != second || first.Shape[0] != 4 {
		t.Errorf("after a second DefineVariable, x is %p (first %p, second %p), first's shape %v", got, first, second, first.Shape)
	}
	batch := io.DefineVariables([]string{"y", "x"}, TypeFloat64, 1)
	if got, _ := io.InquireVariable("x"); got != &batch[1] {
		t.Errorf("after DefineVariables, x is %p, want the batch's %p", got, &batch[1])
	}
	if _, ok := io.InquireVariable("z"); ok {
		t.Error("z was never defined")
	}
}
