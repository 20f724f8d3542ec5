// Package nfs models a single-server network file system: one server
// handles both metadata and data, so every operation from every client
// funnels through a single FCFS station. This is the Discoverer home
// file-system class and the degenerate baseline against which the Lustre
// model's parallelism shows up.
package nfs

import (
	"picmcio/internal/pfs"
	"picmcio/internal/sim"
)

// Params configures the simulated NFS server.
type Params struct {
	Rate       float64      // server bytes/second
	PerOp      sim.Duration // per-RPC service latency
	MetaOp     sim.Duration // metadata (create/open/stat/close) service latency
	RPCLatency sim.Duration // client<->server wire latency per op
}

// DefaultParams returns a 10 GbE-class NFS appliance configuration.
func DefaultParams() Params {
	return Params{Rate: 0.9e9, PerOp: 150e-6, MetaOp: 400e-6, RPCLatency: 80e-6}
}

// FS is a simulated NFS file system: the shared POSIX front end, timed by
// the one server below.
type FS struct {
	*pfs.Frontend
	p   Params
	srv *sim.Server
}

// New creates an NFS file system on kernel k.
func New(k *sim.Kernel, p Params) *FS {
	fs := &FS{p: p, srv: sim.NewServer(k, p.Rate, p.PerOp)}
	fs.Frontend = pfs.NewFrontend("nfs", model{fs})
	return fs
}

// model is the FS as the front end's cost model (pfs.Backend); a type of
// its own keeps the hooks off *FS's exported method set.
type model struct{ *FS }

// Meta implements pfs.Backend: every kind of metadata operation costs the
// same and takes its turn on the one server.
func (fs model) Meta(pfs.MetaOp) sim.Time {
	return fs.srv.Reserve(0) + fs.p.MetaOp + fs.p.RPCLatency
}

// Place implements pfs.Backend: one server, nothing to place.
func (fs model) Place(string, *pfs.Node) {}

// Absorb implements pfs.Backend.
func (fs model) Absorb(_ *pfs.Node, _, length int64, nicDone sim.Time) sim.Time {
	return max(nicDone, fs.srv.Reserve(length)) + fs.p.RPCLatency
}

// Serve implements pfs.Backend.
func (fs model) Serve(_ *pfs.Node, _, length int64, nicDone sim.Time) sim.Time {
	return max(nicDone, fs.srv.Reserve(length)) + fs.p.RPCLatency
}

// Fsync implements pfs.Backend.
func (fs model) Fsync(*pfs.Node) sim.Time { return fs.srv.Reserve(0) + fs.p.RPCLatency }
