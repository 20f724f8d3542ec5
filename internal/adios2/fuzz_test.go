package adios2

import (
	"runtime"
	"strings"
	"testing"

	"picmcio/internal/mpisim"
)

// FuzzOpenReader: whatever md.idx and md.0 hold, opening the dataset and
// asking it for its steps, their variables and every variable's data
// returns or fails — it never panics, never hangs, and never allocates
// more than a fixed multiple of the two files. An open that fails says so
// with an adios2: error. The hostile seeds are
// testdata/fuzz/FuzzOpenReader; the real one, a two-step series, is made
// here so that it follows the format.
func FuzzOpenReader(f *testing.F) {
	rg := newRig(2)
	writeSeries(f, rg, "/seed.bp4", map[string]string{"Profile": "off"}, "", 2, 4)
	var seed [2][]byte
	for i, name := range []string{"md.idx", "md.0"} {
		n, err := rg.fs.Namespace().Lookup("/seed.bp4/" + name)
		if err != nil {
			f.Fatal(err)
		}
		seed[i] = n.Content
	}
	f.Add(seed[0], seed[1])

	f.Fuzz(func(t *testing.T, idx, md []byte) {
		rg := newRig(1)
		rg.w.Run(func(r *mpisim.Rank) {
			h := rg.host(r)
			for name, body := range map[string][]byte{"md.idx": idx, "md.0": md} {
				fd, err := h.Env.Create(r.Proc, "/fuzz.bp4/"+name)
				if err != nil {
					t.Error(err)
					return
				}
				fd.Write(r.Proc, int64(len(body)), body)
				fd.Close(r.Proc)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			e, err := New().DeclareIO("fuzz").Open(h, "/fuzz.bp4", ModeRead)
			if err != nil {
				if !strings.HasPrefix(err.Error(), "adios2:") {
					t.Errorf("Open failed with %q, want an adios2: error", err)
				}
				return
			}
			steps, err := e.Steps()
			if err != nil {
				t.Errorf("Steps on an opened dataset: %v", err)
			}
			for _, s := range steps {
				vars, err := e.VariablesAt(s)
				if err != nil {
					t.Errorf("VariablesAt(%d), a step Steps listed: %v", s, err)
				}
				for _, v := range vars {
					// No data.N exists: Get can only fail, and must do no
					// worse.
					if _, _, err := e.Get(s, v.Name); err == nil {
						t.Errorf("Get(%d, %q) read data that was never written", s, v.Name)
					}
				}
			}
			e.Close()
			runtime.ReadMemStats(&after)
			// Measured on the seeds: a decoded chunk record is ≈ 50 times
			// its shortest JSON, twice that while a slice of them grows.
			if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(1<<16+256*(len(idx)+len(md))); got > limit {
				t.Errorf("reading %d+%d bytes of metadata allocated %d bytes, limit %d", len(idx), len(md), got, limit)
			}
		})
	})
}
