package burst_test

import (
	"errors"
	"testing"

	"picmcio/internal/burst"
	"picmcio/internal/lustre"
	"picmcio/internal/pfs"
	"picmcio/internal/sim"
)

// countFS wraps a backing file system and counts backing opens/closes,
// with an injectable create failure — the harness for the handle-leak and
// create-failure regression tests.
type countFS struct {
	pfs.FileSystem
	opens, closes int
	failCreate    bool
}

var errInjected = errors.New("injected create failure")

func (c *countFS) Create(p *sim.Proc, cl *pfs.Client, path string) (pfs.File, error) {
	if c.failCreate {
		return nil, errInjected
	}
	f, err := c.FileSystem.Create(p, cl, path)
	if err != nil {
		return nil, err
	}
	c.opens++
	return &countFile{File: f, fs: c}, nil
}

func (c *countFS) Open(p *sim.Proc, cl *pfs.Client, path string) (pfs.File, error) {
	f, err := c.FileSystem.Open(p, cl, path)
	if err != nil {
		return nil, err
	}
	c.opens++
	return &countFile{File: f, fs: c}, nil
}

func (c *countFS) OpenAppend(p *sim.Proc, cl *pfs.Client, path string) (pfs.File, error) {
	f, err := c.FileSystem.OpenAppend(p, cl, path)
	if err != nil {
		return nil, err
	}
	c.opens++
	return &countFile{File: f, fs: c}, nil
}

type countFile struct {
	pfs.File
	fs     *countFS
	closed bool
}

func (f *countFile) Close(p *sim.Proc, c *pfs.Client) {
	if f.closed {
		f.fs.closes = -1000 // poison: double close must fail the test
		return
	}
	f.closed = true
	f.fs.closes++
	f.File.Close(p, c)
}

// countRig is a one-node tier over a counting backing store.
func countRig(spec burst.Spec) (*sim.Kernel, *countFS, *burst.Tier, *pfs.Client) {
	k := sim.NewKernel()
	cfs := &countFS{FileSystem: lustre.New(k, lustre.DefaultParams())}
	tier := burst.NewTier(k, spec, cfs)
	c := &pfs.Client{Node: 0, NIC: sim.NewServer(k, 25e9, 0)}
	return k, cfs, tier, c
}

// TestSupersededBackingHandlesClose pins the handle-leak fix: re-opening
// an already-staged path must close the superseded backing handle, so
// after all wrapper handles are closed every backing open has paid
// exactly one backing close.
func TestSupersededBackingHandlesClose(t *testing.T) {
	k, cfs, tier, c := countRig(burst.Spec{CapacityBytes: 64 * MB, Rate: 10e9, Policy: burst.PolicyEpochEnd})
	k.Spawn("test", func(p *sim.Proc) {
		f1, err := tier.FS().Create(p, c, "/x/f")
		if err != nil {
			t.Error(err)
			return
		}
		f1.WriteAt(p, c, 0, 1*MB, nil)
		f1.Close(p, c) // pending write-back keeps the backing handle open

		// Each re-open of the staged path opens a fresh backing handle
		// and must retire the one it supersedes.
		f2, err := tier.FS().Open(p, c, "/x/f")
		if err != nil {
			t.Error(err)
			return
		}
		f3, err := tier.FS().OpenAppend(p, c, "/x/f")
		if err != nil {
			t.Error(err)
			return
		}
		tier.WaitDrained(p)
		f2.Close(p, c)
		f3.Close(p, c)
	})
	k.Run()
	if cfs.opens != 3 || cfs.closes != cfs.opens {
		t.Fatalf("backing opens=%d closes=%d, want every open closed exactly once", cfs.opens, cfs.closes)
	}
}

// TestSupersededSharedHandleCloses: the backing file system's opens of
// one file share a handle, so superseding is by open, not by handle
// value: over Lustre itself, the scenario above pays one MDS close for
// each of its three backing opens.
func TestSupersededSharedHandleCloses(t *testing.T) {
	k := sim.NewKernel()
	back := lustre.New(k, lustre.DefaultParams())
	tier := burst.NewTier(k, burst.Spec{CapacityBytes: 64 * MB, Rate: 10e9, Policy: burst.PolicyEpochEnd}, back)
	c := &pfs.Client{Node: 0, NIC: sim.NewServer(k, 25e9, 0)}
	k.Spawn("test", func(p *sim.Proc) {
		f1, err := tier.FS().Create(p, c, "/x/f")
		if err != nil {
			t.Error(err)
			return
		}
		f1.WriteAt(p, c, 0, 1*MB, nil)
		f1.Close(p, c)
		f2, err := tier.FS().Open(p, c, "/x/f")
		if err != nil {
			t.Error(err)
			return
		}
		f3, err := tier.FS().OpenAppend(p, c, "/x/f")
		if err != nil {
			t.Error(err)
			return
		}
		tier.WaitDrained(p)
		f2.Close(p, c)
		f3.Close(p, c)
	})
	k.Run()
	if ops := back.MDSOps(); ops != 6 {
		t.Fatalf("MDS served %d operations, want 6: a create, two opens and a close for each", ops)
	}
}

// TestCloseAfterDrainStillBalances covers the deferred-close path: the
// drain worker performs the close after the last segment lands, and a
// later reopen of the path must not double-close that handle.
func TestCloseAfterDrainStillBalances(t *testing.T) {
	k, cfs, tier, c := countRig(burst.Spec{CapacityBytes: 64 * MB, Rate: 10e9, DrainRate: 1e9, Policy: burst.PolicyImmediate})
	k.Spawn("test", func(p *sim.Proc) {
		f, err := tier.FS().Create(p, c, "/x/f")
		if err != nil {
			t.Error(err)
			return
		}
		f.WriteAt(p, c, 0, 8*MB, nil)
		f.Close(p, c) // drain in flight: close deferred to the worker
		tier.WaitDrained(p)
		// Reopen after the deferred close has happened.
		f2, err := tier.FS().Open(p, c, "/x/f")
		if err != nil {
			t.Error(err)
			return
		}
		f2.Close(p, c)
	})
	k.Run()
	if cfs.opens != 2 || cfs.closes != cfs.opens {
		t.Fatalf("backing opens=%d closes=%d, want balanced without double close", cfs.opens, cfs.closes)
	}
}

// TestCreateFailurePreservesStagedState pins the Create-ordering fix: a
// failed backing create must leave the staged state (pending segments,
// logical size) untouched instead of destroying it on the error path.
func TestCreateFailurePreservesStagedState(t *testing.T) {
	k, cfs, tier, c := countRig(burst.Spec{CapacityBytes: 64 * MB, Rate: 10e9, Policy: burst.PolicyEpochEnd})
	k.Spawn("test", func(p *sim.Proc) {
		f, err := tier.FS().Create(p, c, "/x/f")
		if err != nil {
			t.Error(err)
			return
		}
		f.WriteAt(p, c, 0, 4*MB, nil)

		cfs.failCreate = true
		if _, err := tier.FS().Create(p, c, "/x/f"); !errors.Is(err, errInjected) {
			t.Errorf("injected create failure not surfaced: %v", err)
		}
		cfs.failCreate = false

		if st := tier.Stats(); st.PendingBytes != 4*MB {
			t.Errorf("failed create destroyed pending state: %d bytes left, want %d", st.PendingBytes, 4*MB)
		}
		if got := f.Size(); got != 4*MB {
			t.Errorf("failed create zeroed the logical size: %d, want %d", got, 4*MB)
		}
		fi, err := tier.FS().Stat(p, c, "/x/f")
		if err != nil || fi.Size != 4*MB {
			t.Errorf("Stat after failed create: %+v err=%v, want size %d", fi, err, 4*MB)
		}
		tier.WaitDrained(p)
		f.Close(p, c)
	})
	k.Run()
	if st := tier.Stats(); st.DrainedBytes != 4*MB {
		t.Fatalf("staged bytes lost: drained %d, want %d", st.DrainedBytes, 4*MB)
	}
}
