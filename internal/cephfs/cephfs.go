// Package cephfs models a Ceph-like file system: data is chunked into
// fixed-size objects placed pseudo-randomly (CRUSH-like hashing) across a
// pool of OSDs, and metadata is served by a small MDS cluster. Random
// placement plus configurable latency variance gives the erratic
// throughput behaviour the paper observes on Vega.
package cephfs

import (
	"picmcio/internal/pfs"
	"picmcio/internal/sim"
	"picmcio/internal/xrand"
)

// Params configures the simulated Ceph cluster.
type Params struct {
	NumOSDs    int
	OSDRate    float64      // bytes/second per OSD
	OSDPerOp   sim.Duration // per-object-op latency
	ObjectSize int64        // CRUSH object size (default 4 MiB)
	MDSThreads int
	MetaOp     sim.Duration
	RPCLatency sim.Duration
	// LatencyVar adds an exponential tail with this mean (seconds) to
	// each object operation, modelling multi-tenant interference.
	LatencyVar float64
	Seed       uint64
}

// DefaultParams returns a Vega-class CephFS configuration.
func DefaultParams() Params {
	return Params{
		NumOSDs:    60,
		OSDRate:    0.35e9,
		OSDPerOp:   300e-6,
		ObjectSize: 4 << 20,
		MDSThreads: 8,
		MetaOp:     350e-6,
		RPCLatency: 60e-6,
		LatencyVar: 2e-3,
	}
}

// FS is a simulated CephFS: the shared POSIX front end, timed by the
// MDS/OSD cost model below.
type FS struct {
	*pfs.Frontend
	k    *sim.Kernel
	p    Params
	osds []*sim.Server
	mds  *sim.MultiServer
	rng  *xrand.RNG

	nextIno uint64
}

// New creates a CephFS on kernel k.
func New(k *sim.Kernel, p Params) *FS {
	if p.NumOSDs < 1 {
		p.NumOSDs = 1
	}
	if p.ObjectSize <= 0 {
		p.ObjectSize = 4 << 20
	}
	if p.MDSThreads < 1 {
		p.MDSThreads = 1
	}
	fs := &FS{
		k:   k,
		p:   p,
		mds: sim.NewMultiServer(k, p.MDSThreads),
		rng: xrand.New(p.Seed ^ 0xcef5),
	}
	for i := 0; i < p.NumOSDs; i++ {
		fs.osds = append(fs.osds, sim.NewServer(k, p.OSDRate, p.OSDPerOp))
	}
	fs.Frontend = pfs.NewFrontend("cephfs", model{fs})
	return fs
}

// placement hashes (inode, objectIndex) to an OSD, CRUSH-style.
func (fs *FS) placement(ino uint64, obj int64) *sim.Server {
	x := ino*0x9e3779b97f4a7c15 + uint64(obj)*0xd1342543de82ef95
	x ^= x >> 29
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 32
	return fs.osds[x%uint64(len(fs.osds))]
}

func (fs *FS) tail() sim.Duration {
	if fs.p.LatencyVar <= 0 {
		return 0
	}
	return sim.Duration(fs.p.LatencyVar * fs.rng.ExpFloat64())
}

// model is the FS as the front end's cost model (pfs.Backend); a type of
// its own keeps the hooks off *FS's exported method set.
type model struct{ *FS }

// Meta implements pfs.Backend: the MDS cluster serves every kind of
// metadata operation at one price.
func (fs model) Meta(pfs.MetaOp) sim.Time {
	return fs.mds.ReserveDur(fs.p.MetaOp) + fs.p.RPCLatency
}

// auxIno is a file's placement state: the inode number its objects hash
// from.
type auxIno struct{ ino uint64 }

// Place implements pfs.Backend: the next inode number, in the truncated
// file's old state when it has one.
func (fs model) Place(_ string, n *pfs.Node) {
	fs.nextIno++
	if a, ok := n.Aux.(*auxIno); ok {
		a.ino = fs.nextIno
		return
	}
	n.Aux = &auxIno{ino: fs.nextIno}
}

// objSpan issues per-object operations covering [off, off+length) of file n and
// returns the latest completion time, or end if that is later.
func (fs *FS) objSpan(n *pfs.Node, off, length int64, end sim.Time) sim.Time {
	ino, os := n.Aux.(*auxIno).ino, fs.p.ObjectSize
	for length > 0 {
		obj := off / os
		within := off % os
		chunk := os - within
		if chunk > length {
			chunk = length
		}
		if e := fs.placement(ino, obj).Reserve(chunk) + fs.tail(); e > end {
			end = e
		}
		off += chunk
		length -= chunk
	}
	return end
}

// Absorb implements pfs.Backend.
func (fs model) Absorb(n *pfs.Node, off, length int64, nicDone sim.Time) sim.Time {
	return fs.objSpan(n, off, length, nicDone) + fs.p.RPCLatency
}

// Serve implements pfs.Backend.
func (fs model) Serve(n *pfs.Node, off, length int64, nicDone sim.Time) sim.Time {
	return fs.objSpan(n, off, length, nicDone) + fs.p.RPCLatency
}

// Fsync implements pfs.Backend.
func (fs model) Fsync(*pfs.Node) sim.Time {
	return fs.k.Now() + (fs.p.RPCLatency + fs.tail())
}
