package adios2

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"unsafe"

	"picmcio/internal/lustre"
	"picmcio/internal/mpisim"
	"picmcio/internal/pfs"
	"picmcio/internal/posix"
	"picmcio/internal/sim"
)

// rig wires a kernel, a Lustre FS and an MPI world together.
type rig struct {
	k  *sim.Kernel
	fs *lustre.FS
	w  *mpisim.World
}

func newRig(ranks int) *rig {
	k := sim.NewKernel()
	return &rig{
		k:  k,
		fs: lustre.New(k, lustre.DefaultParams()),
		w:  mpisim.NewWorld(k, ranks, mpisim.AlphaBeta(1e-6, 1.0/10e9)),
	}
}

func (rg *rig) host(r *mpisim.Rank) Host {
	return Host{
		Proc: r.Proc,
		Env:  &posix.Env{FS: rg.fs, Client: &pfs.Client{}, Rank: r.ID},
		Comm: r.Comm,
	}
}

// writeSeries writes nSteps steps of a float64 variable distributed over
// the ranks, with per-rank slabs of slab elements each.
func writeSeries(t testing.TB, rg *rig, path string, engineParams map[string]string, operator string, nSteps, slab int) {
	t.Helper()
	rg.w.Run(func(r *mpisim.Rank) {
		a := New()
		io := a.DeclareIO("out")
		for k, v := range engineParams {
			io.SetParameter(k, v)
		}
		if operator != "" {
			if err := io.AddOperation(operator); err != nil {
				t.Error(err)
				return
			}
		}
		total := uint64(slab * r.Comm.Size())
		v, err := io.DefineVariable("e/position", TypeFloat64,
			[]uint64{total}, []uint64{uint64(slab * r.ID)}, []uint64{uint64(slab)})
		if err != nil {
			t.Error(err)
			return
		}
		e, err := io.Open(rg.host(r), path, ModeWrite)
		if err != nil {
			t.Error(err)
			return
		}
		for s := 0; s < nSteps; s++ {
			if err := e.BeginStep(int64(s)); err != nil {
				t.Error(err)
				return
			}
			vals := make([]float64, slab)
			for i := range vals {
				vals[i] = float64(r.ID*1000 + s*100 + i)
			}
			if err := e.PutFloat64s(v, vals); err != nil {
				t.Error(err)
				return
			}
			if err := e.EndStep(); err != nil {
				t.Error(err)
				return
			}
		}
		if err := e.Close(); err != nil {
			t.Error(err)
		}
	})
}

func listFiles(rg *rig, dir string) []string {
	var out []string
	rg.fs.Namespace().WalkFiles(dir, func(p string, n *pfs.Node) { out = append(out, p) })
	return out
}

func TestBP4DirectoryLayout(t *testing.T) {
	rg := newRig(8)
	writeSeries(t, rg, "/io/run.bp4", map[string]string{"NumAggregators": "2"}, "", 3, 16)
	files := listFiles(rg, "/io/run.bp4")
	want := map[string]bool{
		"/io/run.bp4/data.0": true, "/io/run.bp4/data.4": true,
		"/io/run.bp4/md.0": true, "/io/run.bp4/md.idx": true,
		"/io/run.bp4/profiling.json": true,
	}
	// Subfile names are data.<color>; with 8 ranks and 2 aggregators the
	// colors are 0 and 1 (rank*A/size).
	_ = want
	var names []string
	for _, f := range files {
		names = append(names, f)
	}
	joined := strings.Join(names, ",")
	for _, base := range []string{"md.0", "md.idx", "profiling.json"} {
		if !strings.Contains(joined, base) {
			t.Errorf("missing %s in %v", base, names)
		}
	}
	nData := 0
	for _, f := range files {
		if strings.Contains(f, "/data.") {
			nData++
		}
	}
	if nData != 2 {
		t.Errorf("data subfiles=%d, want 2 (files: %v)", nData, names)
	}
	if len(files) != 5 {
		t.Errorf("total files=%d, want 5: %v", len(files), names)
	}
}

func TestAggregatorCountRespected(t *testing.T) {
	for _, nAgg := range []int{1, 2, 4, 8} {
		rg := newRig(8)
		path := fmt.Sprintf("/io/a%d.bp4", nAgg)
		writeSeries(t, rg, path, map[string]string{"NumAggregators": fmt.Sprint(nAgg)}, "", 1, 8)
		nData := 0
		for _, f := range listFiles(rg, path) {
			if strings.Contains(f, "/data.") {
				nData++
			}
		}
		if nData != nAgg {
			t.Errorf("NumAggregators=%d produced %d subfiles", nAgg, nData)
		}
	}
}

func TestAggregatorClamped(t *testing.T) {
	rg := newRig(4)
	writeSeries(t, rg, "/io/c.bp4", map[string]string{"NumAggregators": "100"}, "", 1, 4)
	nData := 0
	for _, f := range listFiles(rg, "/io/c.bp4") {
		if strings.Contains(f, "/data.") {
			nData++
		}
	}
	if nData != 4 {
		t.Errorf("clamp failed: %d subfiles for 4 ranks", nData)
	}
}

func TestReadBackRoundTrip(t *testing.T) {
	rg := newRig(4)
	writeSeries(t, rg, "/io/rt.bp4", map[string]string{"NumAggregators": "2"}, "", 2, 8)
	// Read back from a fresh single-rank world on the same FS.
	k2 := rg.k
	w2 := mpisim.NewWorld(k2, 1, nil)
	w2.Run(func(r *mpisim.Rank) {
		a := New()
		io := a.DeclareIO("in")
		h := Host{Proc: r.Proc, Env: &posix.Env{FS: rg.fs, Client: &pfs.Client{}}, Comm: r.Comm}
		e, err := io.Open(h, "/io/rt.bp4", ModeRead)
		if err != nil {
			t.Error(err)
			return
		}
		steps, _ := e.Steps()
		if len(steps) != 2 {
			t.Errorf("steps=%v", steps)
			return
		}
		vars, err := e.VariablesAt(1)
		if err != nil {
			t.Error(err)
			return
		}
		if len(vars) != 1 || vars[0].Name != "e/position" || vars[0].Chunks != 4 {
			t.Errorf("vars=%+v", vars)
		}
		raw, shape, err := e.Get(1, "e/position")
		if err != nil {
			t.Error(err)
			return
		}
		if shape[0] != 32 {
			t.Errorf("shape=%v", shape)
		}
		vals := Float64sFromBytes(raw)
		for rank := 0; rank < 4; rank++ {
			for i := 0; i < 8; i++ {
				want := float64(rank*1000 + 100 + i)
				if got := vals[rank*8+i]; got != want {
					t.Errorf("vals[%d]=%v, want %v", rank*8+i, got, want)
					return
				}
			}
		}
		e.Close()
	})
}

func TestCompressionRoundTrip(t *testing.T) {
	for _, codec := range []string{"blosc", "bzip2"} {
		rg := newRig(4)
		path := "/io/" + codec + ".bp4"
		writeSeries(t, rg, path, map[string]string{"NumAggregators": "1"}, codec, 1, 32)
		w2 := mpisim.NewWorld(rg.k, 1, nil)
		w2.Run(func(r *mpisim.Rank) {
			a := New()
			h := Host{Proc: r.Proc, Env: &posix.Env{FS: rg.fs, Client: &pfs.Client{}}, Comm: r.Comm}
			e, err := a.DeclareIO("in").Open(h, path, ModeRead)
			if err != nil {
				t.Error(err)
				return
			}
			raw, _, err := e.Get(0, "e/position")
			if err != nil {
				t.Errorf("%s: %v", codec, err)
				return
			}
			vals := Float64sFromBytes(raw)
			if vals[33] != float64(1000+1) { // rank 1, i=1
				t.Errorf("%s: vals[33]=%v", codec, vals[33])
			}
			e.Close()
		})
	}
}

func TestStepReplaceOverwritesInPlace(t *testing.T) {
	// Writing the same step id repeatedly (checkpoint pattern) must not
	// grow the subfile.
	rg := newRig(2)
	var sizeAfter2, sizeAfter5 int64
	rg.w.Run(func(r *mpisim.Rank) {
		a := New()
		io := a.DeclareIO("ck")
		io.SetParameter("NumAggregators", "1")
		io.SetParameter("Profile", "off")
		v, _ := io.DefineVariable("state", TypeFloat64,
			[]uint64{64}, []uint64{uint64(32 * r.ID)}, []uint64{32})
		e, err := io.Open(rg.host(r), "/ck.bp4", ModeWrite)
		if err != nil {
			t.Error(err)
			return
		}
		vals := make([]float64, 32)
		for rep := 0; rep < 5; rep++ {
			e.BeginStep(0)
			e.PutFloat64s(v, vals)
			e.EndStep()
			if rep == 1 && r.ID == 0 {
				fi, _ := rg.host(r).Env.Stat(r.Proc, "/ck.bp4/data.0")
				sizeAfter2 = fi.Size
			}
		}
		if r.ID == 0 {
			fi, _ := rg.host(r).Env.Stat(r.Proc, "/ck.bp4/data.0")
			sizeAfter5 = fi.Size
		}
		e.Close()
	})
	if sizeAfter5 != sizeAfter2 || sizeAfter5 == 0 {
		t.Fatalf("checkpoint overwrite grew subfile: after2=%d after5=%d", sizeAfter2, sizeAfter5)
	}
}

func TestMemcpyVanishesWithOperator(t *testing.T) {
	// Fig. 8: without compression the engine pays memcpy; with Blosc the
	// payload goes straight into the compressor.
	run := func(op string) Timers {
		rg := newRig(4)
		writeSeries(t, rg, "/io/m.bp4", map[string]string{"NumAggregators": "1"}, op, 2, 1024)
		var tm Timers
		w2 := mpisim.NewWorld(rg.k, 1, nil)
		w2.Run(func(r *mpisim.Rank) {
			env := &posix.Env{FS: rg.fs, Client: &pfs.Client{}}
			fd, err := env.Open(r.Proc, "/io/m.bp4/profiling.json")
			if err != nil {
				t.Error(err)
				return
			}
			body := fd.Pread(r.Proc, 0, fd.Size())
			fd.Close(r.Proc)
			_, _, total, _, err := ParseProfile(body)
			if err != nil {
				t.Error(err)
				return
			}
			tm = total
		})
		return tm
	}
	plain := run("")
	blosc := run("blosc")
	if plain.Memcpy <= 0 {
		t.Fatalf("uncompressed run has no memcpy time: %+v", plain)
	}
	if blosc.Memcpy != 0 {
		t.Fatalf("blosc run still pays memcpy: %+v", blosc)
	}
	if blosc.Compress <= 0 {
		t.Fatalf("blosc run has no compress time: %+v", blosc)
	}
}

// The aggregator a rank works out for itself is the one the split makes:
// the lowest rank of its subfile's group, which is rank 0 of the group's
// communicator, and the leaders' communicator holds exactly those.
func TestLocalAggregatorMatchesSplit(t *testing.T) {
	for _, c := range []struct{ size, aggs int }{
		{1, 1}, {5, 1}, {5, 5}, {5, 9}, {7, 3}, {10, 4}, {16, 6}, {12, 0},
	} {
		rg := newRig(c.size)
		rg.w.Run(func(r *mpisim.Rank) {
			io := New().DeclareIO("aggs")
			io.SetParameter("Profile", "off")
			if c.aggs > 0 {
				io.SetParameter("NumAggregators", fmt.Sprint(c.aggs))
			}
			e, err := io.Open(rg.host(r), "/aggs.bp4", ModeWrite)
			if err != nil {
				t.Error(err)
				return
			}
			want := min(c.aggs, c.size)
			if c.aggs == 0 {
				want = c.size
			}
			if e.isAgg != (e.aggComm.Rank() == 0) {
				t.Errorf("%d ranks, %d aggregators: rank %d works out aggregator %v, is rank %d of its group", c.size, c.aggs, r.ID, e.isAgg, e.aggComm.Rank())
			}
			if e.isAgg && e.ldrComm.Size() != want {
				t.Errorf("%d ranks, %d aggregators: %d leaders, want %d", c.size, c.aggs, e.ldrComm.Size(), want)
			}
			if e.isAgg && e.ldrComm.Rank() != e.subfile {
				t.Errorf("%d ranks, %d aggregators: subfile %d's aggregator is leader %d", c.size, c.aggs, e.subfile, e.ldrComm.Rank())
			}
			e.Close()
		})
	}
}

func TestVolumeModePayloads(t *testing.T) {
	// Volume-mode puts write no content but still produce correctly sized
	// subfiles and metadata.
	rg := newRig(8)
	rg.w.Run(func(r *mpisim.Rank) {
		a := New()
		io := a.DeclareIO("vol")
		io.SetParameter("NumAggregators", "2")
		io.SetParameter("Profile", "off")
		v, _ := io.DefineVariable("big", TypeFloat64,
			[]uint64{1 << 20}, []uint64{uint64(r.ID) << 17}, []uint64{1 << 17})
		e, err := io.Open(rg.host(r), "/vol.bp4", ModeWrite)
		if err != nil {
			t.Error(err)
			return
		}
		e.BeginStep(0)
		if err := e.Put(v, nil); err != nil {
			t.Error(err)
		}
		e.EndStep()
		e.Close()
	})
	var dataBytes int64
	for _, f := range listFiles(rg, "/vol.bp4") {
		n, _ := rg.fs.Namespace().Lookup(f)
		if strings.Contains(f, "data.") {
			dataBytes += n.Size
		}
	}
	want := int64(8)*(1<<17)*8 + 8*perPutHeaderBytes
	if dataBytes != want {
		t.Fatalf("volume data bytes=%d, want %d", dataBytes, want)
	}
}

func TestPutValidation(t *testing.T) {
	rg := newRig(1)
	rg.w.Run(func(r *mpisim.Rank) {
		a := New()
		io := a.DeclareIO("x")
		io.SetParameter("Profile", "off")
		v, _ := io.DefineVariable("v", TypeFloat64, []uint64{4}, []uint64{0}, []uint64{4})
		e, _ := io.Open(rg.host(r), "/x.bp4", ModeWrite)
		if err := e.Put(v, nil); err == nil {
			t.Error("Put outside step accepted")
		}
		e.BeginStep(0)
		if err := e.BeginStep(1); err == nil {
			t.Error("nested BeginStep accepted")
		}
		if err := e.Put(v, []byte{1, 2, 3}); err == nil {
			t.Error("mis-sized payload accepted")
		}
		e.EndStep()
		if err := e.EndStep(); err == nil {
			t.Error("EndStep outside step accepted")
		}
		e.Close()
	})
}

func TestReaderRejectsMissingDataset(t *testing.T) {
	rg := newRig(1)
	rg.w.Run(func(r *mpisim.Rank) {
		a := New()
		_, err := a.DeclareIO("in").Open(rg.host(r), "/does-not-exist.bp4", ModeRead)
		if err == nil {
			t.Error("opened missing dataset")
		}
	})
}

func TestFloat64Bytes(t *testing.T) {
	vals := []float64{0, 1.5, -3.25, 1e300}
	buf := make([]byte, 8*len(vals))
	for i, v := range vals {
		putF64(buf[8*i:], v)
	}
	got := Float64sFromBytes(buf)
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("round trip %v -> %v", vals[i], got[i])
		}
	}
	if !bytes.Equal(buf[:8], make([]byte, 8)) {
		t.Fatal("zero must encode as zero bytes")
	}
}

func TestProfilingJSONSchema(t *testing.T) {
	rg := newRig(2)
	writeSeries(t, rg, "/p.bp4", map[string]string{"NumAggregators": "1"}, "", 1, 8)
	n, err := rg.fs.Namespace().Lookup("/p.bp4/profiling.json")
	if err != nil {
		t.Fatal(err)
	}
	ranks, aggs, total, max, err := ParseProfile(n.Content)
	if err != nil {
		t.Fatal(err)
	}
	if ranks != 2 || aggs != 1 {
		t.Fatalf("ranks=%d aggs=%d", ranks, aggs)
	}
	if total.Write <= 0 || max.Write <= 0 {
		t.Fatalf("timers: total=%+v max=%+v", total, max)
	}
}

// An on/off or closed-value parameter reads the same in any case, as
// ADIOS2 documents "On" and "Off": Profile = "On" writes profiling.json,
// and "PFS" is PFS durability, not the buffered default.
func TestOnOffParameterCase(t *testing.T) {
	for _, c := range []struct {
		value string
		want  bool
	}{{"On", true}, {"ON", true}, {"true", true}, {"Off", false}, {"FALSE", false}} {
		rg := newRig(2)
		writeSeries(t, rg, "/p.bp4", map[string]string{"Profile": c.value}, "", 1, 8)
		if _, err := rg.fs.Namespace().Lookup("/p.bp4/profiling.json"); (err == nil) != c.want {
			t.Errorf("Profile = %q: profiling.json written %v, want %v", c.value, err == nil, c.want)
		}
	}
	io := New().DeclareIO("case")
	io.SetParameter("BurstBuffer", "Yes")
	io.SetParameter("BurstDurability", "PFS")
	if wp, err := io.set.engine(); err != nil || !wp.staged || !wp.pfsDurable {
		t.Errorf("BurstBuffer = \"Yes\", BurstDurability = \"PFS\": %+v, %v, want staged and PFS-durable", wp, err)
	}
}

// An engine parameter that does not parse, or cannot be used, is an error
// from Open that names key and value — the same on every rank and
// before the first collective, so the world drains instead of deadlocking
// — not a silent run with the default.
func TestOpenRejectsMalformedParameters(t *testing.T) {
	for _, c := range []struct{ key, value string }{
		{"NumAggregators", "1O"},
		{"NumAggregators", ""},
		{"SimCompressionRatio", "80%"},
		{"SimCompressionRatio", "-0.5"},
		{"SimCompressionRatio", "NaN"},
		{"Profile", "of"},
		{"Profile", ""},
		{"BurstBuffer", "enabled"},
		{"BurstDurability", "PFS-durable"},
		{"BurstDurability", "nvme"},
	} {
		rg := newRig(4)
		failed := 0
		rg.w.Run(func(r *mpisim.Rank) {
			io := New().DeclareIO("bad")
			io.SetParameter(c.key, c.value)
			_, err := io.Open(rg.host(r), "/bad.bp4", ModeWrite)
			if err == nil {
				t.Errorf("rank %d: %s = %q accepted", r.ID, c.key, c.value)
				return
			}
			failed++
			if msg := err.Error(); !strings.HasPrefix(msg, "adios2:") || !strings.Contains(msg, c.key) || !strings.Contains(msg, fmt.Sprintf("%q", c.value)) {
				t.Errorf("rank %d: %s = %q: error %q does not name both", r.ID, c.key, c.value, msg)
			}
		})
		if failed != 4 {
			t.Errorf("%s = %q: %d of 4 ranks got the error", c.key, c.value, failed)
		}
		if files := listFiles(rg, "/bad.bp4"); len(files) != 0 {
			t.Errorf("%s = %q: the failed open created %v", c.key, c.value, files)
		}
	}
}

// A file that world rank 0 or an aggregator cannot create while opening
// for writing is every rank's error: the failing rank stays in the splits
// and hands it to the closing barrier, instead of returning before them
// and leaving the rest parked for good.
func TestOpenFailureIsEveryRanksError(t *testing.T) {
	for _, tc := range []struct {
		name  string
		block func(ns *pfs.Namespace) error // puts the obstacle in place
		want  error
	}{
		{"md.0 is a directory", func(ns *pfs.Namespace) error {
			_, err := ns.MkdirAll("/out.bp4/md.0")
			return err
		}, pfs.ErrIsDir},
		{"an aggregator's subfile is a directory", func(ns *pfs.Namespace) error {
			_, err := ns.MkdirAll("/out.bp4/data.1")
			return err
		}, pfs.ErrIsDir},
		{"the dataset is a regular file", func(ns *pfs.Namespace) error {
			_, err := ns.CreateFile("/out.bp4")
			return err
		}, pfs.ErrNotDir},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const ranks = 4
			rg := newRig(ranks)
			if err := tc.block(rg.fs.Namespace()); err != nil {
				t.Fatal(err)
			}
			errs := make([]error, ranks)
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("open panicked: %v", r)
					}
				}()
				rg.w.Run(func(r *mpisim.Rank) {
					io := New().DeclareIO("out")
					io.SetParameter("NumAggregators", "2")
					_, errs[r.ID] = io.Open(rg.host(r), "/out.bp4", ModeWrite)
				})
			}()
			for rank, err := range errs {
				if !errors.Is(err, tc.want) {
					t.Errorf("rank %d returned %v, want %v", rank, err, tc.want)
				}
			}
		})
	}
}

// A forked IO reads its template's settings until either changes one; the
// change is then the changer's alone, and is parsed again at its Open.
func TestForkSharesSettingsCopyOnWrite(t *testing.T) {
	tmpl := New().DeclareIO("tmpl")
	tmpl.SetParameter("NumAggregators", "2")
	if err := tmpl.AddOperation("blosc"); err != nil {
		t.Fatal(err)
	}
	a, b := new(IO), new(IO)
	*a, *b = tmpl.Fork(), tmpl.Fork()
	if a.set != tmpl.set || b.set != tmpl.set {
		t.Fatal("Fork copied the settings")
	}
	if a.name != "tmpl" || a.set.operator != "blosc" || a.set.params["NumAggregators"] != "2" {
		t.Errorf("fork is %q with operator %q and NumAggregators %q", a.name, a.set.operator, a.set.params["NumAggregators"])
	}
	wp, err := a.set.engine()
	if err != nil || wp.numAgg != 2 {
		t.Fatalf("parsed NumAggregators %+v, %v", wp, err)
	}
	if again, _ := b.set.engine(); again != wp {
		t.Error("the second fork parsed the parameters again")
	}

	a.SetParameter("NumAggregators", "x")
	if err := b.AddOperation("bzip2"); err != nil {
		t.Fatal(err)
	}
	tmpl.AddOperation("none")
	for name, got := range map[string][2]string{
		"a":    {a.set.params["NumAggregators"], a.set.operator},
		"b":    {b.set.params["NumAggregators"], b.set.operator},
		"tmpl": {tmpl.set.params["NumAggregators"], tmpl.set.operator},
	} {
		want := map[string][2]string{"a": {"x", "blosc"}, "b": {"2", "bzip2"}, "tmpl": {"2", "none"}}[name]
		if got != want {
			t.Errorf("%s has NumAggregators, operator %q, want %q", name, got, want)
		}
	}
	if _, err := a.set.engine(); err == nil {
		t.Error("a's new NumAggregators was not parsed again")
	}
	if wp, err := b.set.engine(); err != nil || wp.numAgg != 2 {
		t.Errorf("b parses to %+v, %v", wp, err)
	}
}

// A writer that defines its variables together before its first
// content-mode Put gets step buffers of exactly the size one Put of each
// needs, once; the row's numbers are read where the writer put them, and a
// put record is two words whatever the payload. A volume-mode Put records
// nothing: the step's totals fold it in, and once the engine has run a
// step, a step of volume puts allocates nothing.
func TestDeclareThenPutSizesOnce(t *testing.T) {
	for _, n := range []int{10, 20} {
		for _, content := range []bool{true, false} {
			rg := newRig(1)
			rg.w.Run(func(r *mpisim.Rank) {
				io := New().DeclareIO("sized")
				io.SetParameter("Profile", "off")
				e, err := io.Open(rg.host(r), "/sized.bp4", ModeWrite)
				if err != nil {
					t.Error(err)
					return
				}
				names := make([]string, n)
				for i := range names {
					names[i] = fmt.Sprint("v", i)
				}
				set, err := NewVarSet(names, TypeFloat64, 1)
				if err != nil {
					t.Error(err)
					return
				}
				nums := make([]uint64, set.RowWords())
				row, err := io.DefineRow(set, nums)
				if err != nil {
					t.Error(err)
					return
				}
				var payload []byte
				if content {
					payload = make([]byte, 64)
				}
				vars := make([]Variable, n)
				for step := int64(0); step < 2; step++ {
					errs := []error{e.BeginStep(step)}
					for i := range names {
						vars[i] = row.At(i)
						if got, ok := io.InquireVariable(names[i]); !ok || got != vars[i] {
							t.Errorf("InquireVariable(%s) = %+v, %v, want %+v", names[i], got, ok, vars[i])
						}
						// Half through the setters, half straight into the block.
						if i%2 == 0 {
							errs = append(errs, vars[i].SetShape([]uint64{8}), vars[i].SetSelection([]uint64{0}, []uint64{8}))
						} else {
							nums[3*i], nums[3*i+1], nums[3*i+2] = 8, 0, 8
						}
					}
					for i := range vars {
						errs = append(errs, e.Put(&vars[i], payload))
					}
					for _, err := range errs {
						if err != nil {
							t.Error(err)
						}
					}
					if !content {
						if e.puts != nil || e.sels != nil || e.data != nil {
							t.Errorf("step %d, %d volume puts: buffers made: %d puts, %d words of selections, %d payloads", step, n, cap(e.puts), cap(e.sels), cap(e.data))
						}
						if want := (volTotals{puts: int64(n), raw: 64 * int64(n), stored: 128 * int64(n)}); e.vol != want {
							t.Errorf("step %d, %d volume puts: totals %+v, want %+v", step, n, e.vol, want)
						}
						if step > 0 {
							var err error
							allocs := testing.AllocsPerRun(5, func() {
								for i := range vars {
									err = errors.Join(err, e.Put(&vars[i], nil))
								}
							})
							if err != nil || allocs != 0 {
								t.Errorf("a step of %d volume puts allocates %.1f objects (%v), want 0", n, allocs, err)
							}
						}
					} else {
						if len(e.puts) != n || cap(e.puts) != n || len(e.sels) != 2*n || cap(e.sels) != 2*n || len(e.data) != n || cap(e.data) != n {
							t.Errorf("step %d, %d variables: puts len %d cap %d, sels len %d cap %d, payloads len %d cap %d", step, n, len(e.puts), cap(e.puts), len(e.sels), cap(e.sels), len(e.data), cap(e.data))
						}
						for i, pr := range e.puts {
							if int(pr.idx) != i || pr.n != 64 || e.sels[pr.sel] != 0 || e.sels[pr.sel+1] != 8 {
								t.Errorf("step %d: put %d is %+v", step, i, pr)
							}
						}
					}
					if err := e.EndStep(); err != nil {
						t.Error(err)
					}
				}
				e.Close()
			})
		}
	}
	if got := unsafe.Sizeof(putRec{}); got != 16 {
		t.Errorf("a put record is %d bytes, want 16", got)
	}
}

// TestOneCodecPerWorld: every rank's engine of a world compresses with
// the one codec the world memo holds for the operator; a second world
// builds its own.
func TestOneCodecPerWorld(t *testing.T) {
	var first any
	for world := range 2 {
		rg := newRig(4)
		codecs := make([]any, 4)
		rg.w.Run(func(r *mpisim.Rank) {
			io := New().DeclareIO("out")
			if err := io.AddOperation("blosc"); err != nil {
				t.Error(err)
				return
			}
			e, err := io.Open(rg.host(r), "/io/c.bp4", ModeWrite)
			if err != nil {
				t.Error(err)
				return
			}
			codecs[r.ID] = e.codec
			e.Close()
		})
		for rank, c := range codecs {
			if c == nil || c != codecs[0] {
				t.Fatalf("world %d: rank %d's codec %p is not rank 0's %p", world, rank, c, codecs[0])
			}
		}
		if world == 1 && codecs[0] == first {
			t.Error("a second world shares the first one's codec")
		}
		first = codecs[0]
	}
}
