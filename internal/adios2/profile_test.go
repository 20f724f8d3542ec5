package adios2

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"picmcio/internal/lustre"
	"picmcio/internal/mpisim"
	"picmcio/internal/pfs"
	"picmcio/internal/sim"
)

// closeTenScalars is Close as it was before its profiling reduction became
// one rendezvous: ten allreduces of one value each, sums then maxima, in
// field order — the reference TestFusedProfileMatchesTenScalars holds
// Close to.
func closeTenScalars(e *Engine) error {
	p, comm := e.h.Proc, e.h.Comm
	e.copyPuts()
	scalar := func(v sim.Duration, op string) sim.Duration {
		return sim.Duration(comm.AllreduceVecF64([]float64{float64(v)}, op)[0])
	}
	if e.wp.profile {
		sum := profileSummary{
			Ranks:       comm.Size(),
			Aggregators: e.aggregators(),
			Engine:      "BP4",
			Operator:    e.io.set.operator,
		}
		sum.Total.Memcpy = scalar(e.Timers.Memcpy, "sum")
		sum.Total.Compress = scalar(e.Timers.Compress, "sum")
		sum.Total.Gather = scalar(e.Timers.Gather, "sum")
		sum.Total.Write = scalar(e.Timers.Write, "sum")
		sum.Total.Meta = scalar(e.Timers.Meta, "sum")
		sum.Max.Memcpy = scalar(e.Timers.Memcpy, "max")
		sum.Max.Compress = scalar(e.Timers.Compress, "max")
		sum.Max.Gather = scalar(e.Timers.Gather, "max")
		sum.Max.Write = scalar(e.Timers.Write, "max")
		sum.Max.Meta = scalar(e.Timers.Meta, "max")
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

// profiledRun writes two steps of three variables from ranks whose
// selections differ in size, through three aggregators, and closes the
// engine with closeFn. It returns profiling.json, when the run ended and
// how many times the network model was charged.
func profiledRun(t testing.TB, ranks int, operator string, closeFn func(*Engine) error) (body []byte, end sim.Time, charges int) {
	k := sim.NewKernel()
	cost := mpisim.AlphaBeta(1e-6, 1.0/10e9)
	rg := &rig{k: k, fs: lustre.New(k, lustre.DefaultParams()), w: mpisim.NewWorld(k, ranks, func(n int, bytes int64) sim.Duration {
		charges++
		return cost(n, bytes)
	})}
	rg.w.Run(func(r *mpisim.Rank) {
		io := New().DeclareIO("profiled")
		io.SetParameter("NumAggregators", "3")
		if operator != "" {
			if err := io.AddOperation(operator); err != nil {
				t.Error(err)
				return
			}
		}
		slab := uint64(64 * (1 + r.ID%5))
		vars := make([]*Variable, 3)
		for i := range vars {
			var err error
			if vars[i], err = io.DefineVariable(fmt.Sprint("v", i), TypeFloat64, []uint64{1 << 20}, []uint64{0}, []uint64{slab << i}); err != nil {
				t.Error(err)
				return
			}
		}
		e, err := io.Open(rg.host(r), "/profiled.bp4", ModeWrite)
		if err != nil {
			t.Error(err)
			return
		}
		for s := int64(0); s < 2; s++ {
			e.BeginStep(s)
			for _, v := range vars {
				if err := e.Put(v, nil); err != nil {
					t.Error(err)
				}
			}
			if err := e.EndStep(); err != nil {
				t.Error(err)
			}
		}
		if err := closeFn(e); err != nil {
			t.Error(err)
		}
	})
	n, err := rg.fs.Namespace().Lookup("/profiled.bp4/profiling.json")
	if err != nil {
		t.Fatal(err)
	}
	return n.Content, k.Now(), charges
}

// The one rendezvous Close reduces its timers in writes profiling.json
// byte for byte as ten scalar allreduces did, ends at the same instant to
// the bit and charges the network model as often — on one rank, on an odd
// number and on many, with and without a compression operator.
func TestFusedProfileMatchesTenScalars(t *testing.T) {
	for _, ranks := range []int{1, 7, 64} {
		for _, op := range []string{"", "blosc"} {
			body, end, charges := profiledRun(t, ranks, op, (*Engine).Close)
			wantBody, wantEnd, wantCharges := profiledRun(t, ranks, op, closeTenScalars)
			if !bytes.Equal(body, wantBody) {
				t.Errorf("%d ranks, operator %q: profiling.json\n%s\nten scalar allreduces wrote\n%s", ranks, op, body, wantBody)
			}
			if end != wantEnd || charges != wantCharges {
				t.Errorf("%d ranks, operator %q: ended at %v after %d cost charges, ten scalar allreduces at %v after %d", ranks, op, end, charges, wantEnd, wantCharges)
			}
		}
	}
}

// A Put copies nothing and takes no time: the step's copies are EndStep's,
// back to back from the first Put, so EndStep returns when it did while
// every Put copied at once — and Close, for a step left open, waits them
// out the same way. Timers.Memcpy is counted at the Put.
func TestPutIsDeferredToEndStep(t *testing.T) {
	sizes := []uint64{1000, 3, 12345}
	run := func(copyAtPut, endStep bool) (end sim.Time, memcpy sim.Duration) {
		rg := newRig(2)
		rg.w.Run(func(r *mpisim.Rank) {
			io := New().DeclareIO("deferred")
			io.SetParameter("Profile", "off")
			e, err := io.Open(rg.host(r), "/deferred.bp4", ModeWrite)
			if err != nil {
				t.Error(err)
				return
			}
			e.BeginStep(0)
			for i, n := range sizes {
				v, _ := io.DefineVariable(fmt.Sprint("v", i), TypeFloat64, []uint64{n}, []uint64{0}, []uint64{n})
				before := r.Proc.Now()
				if err := e.Put(v, nil); err != nil {
					t.Error(err)
				}
				if r.Proc.Now() != before {
					t.Errorf("Put of %d values took the clock from %v to %v", n, before, r.Proc.Now())
				}
				if copyAtPut {
					r.Proc.Sleep(sim.Duration(float64(8*n) / memRate))
				}
			}
			if endStep {
				e.EndStep()
			}
			e.Close()
			memcpy = e.Timers.Memcpy
		})
		return rg.k.Now(), memcpy
	}
	var want sim.Duration
	for _, n := range sizes {
		want += sim.Duration(float64(8*n) / memRate)
	}
	for _, endStep := range []bool{true, false} {
		deferred, memcpy := run(false, endStep)
		atPut, _ := run(true, endStep)
		if deferred != atPut {
			t.Errorf("EndStep %v: the run ended at %v, with every Put's copy at the Put %v", endStep, deferred, atPut)
		}
		if memcpy != want {
			t.Errorf("EndStep %v: Timers.Memcpy %v, want %v", endStep, memcpy, want)
		}
	}
}

// FuzzParseProfile: whatever profiling.json holds, ParseProfile returns or
// fails without panicking, and what it accepts round-trips: written back
// as Close writes it, it parses to the same values and writes the same
// bytes again. What Close itself wrote is already in that form. The
// hostile seeds are testdata/fuzz/FuzzParseProfile; the real ones, with
// and without an operator, are made here.
func FuzzParseProfile(f *testing.F) {
	encode := func(t testing.TB, s profileSummary) []byte {
		b, err := json.MarshalIndent(s, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for _, op := range []string{"", "bzip2"} {
		body, _, _ := profiledRun(f, 5, op, (*Engine).Close)
		var s profileSummary
		if err := json.Unmarshal(body, &s); err != nil {
			f.Fatal(err)
		}
		if !bytes.Equal(encode(f, s), body) {
			f.Fatalf("profiling.json does not round-trip:\n%s", body)
		}
		f.Add(body)
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		ranks, aggs, total, max, err := ParseProfile(body)
		var s profileSummary
		if jerr := json.Unmarshal(body, &s); (err == nil) != (jerr == nil) {
			t.Fatalf("ParseProfile error %v, decoding the schema %v", err, jerr)
		}
		if err != nil {
			return
		}
		if ranks != s.Ranks || aggs != s.Aggregators || total != s.Total || max != s.Max {
			t.Fatalf("ParseProfile returned %d %d %+v %+v of %+v", ranks, aggs, total, max, s)
		}
		once := encode(t, s)
		var back profileSummary
		if err := json.Unmarshal(once, &back); err != nil {
			t.Fatalf("what Close's encoding wrote of %q does not parse: %v", body, err)
		}
		if back != s {
			t.Fatalf("%+v written and read back is %+v", s, back)
		}
		if twice := encode(t, back); !bytes.Equal(twice, once) {
			t.Fatalf("written twice:\n%s\nonce:\n%s", twice, once)
		}
	})
}
