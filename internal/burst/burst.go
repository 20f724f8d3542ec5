// Package burst models a node-local burst-buffer staging tier: per-node
// NVMe devices (capacity + bandwidth as sim.Servers) absorb client writes
// at local speed and drain them asynchronously to a backing parallel file
// system through a pluggable drain scheduler.
//
// The tier is exposed as a pfs.FileSystem wrapper (Tier.FS), so every
// layer that programs against pfs — POSIX descriptors, the ADIOS2 BP
// engine, stdio — can stage transparently. Metadata operations pass
// through to the backing store at full cost (burst buffers absorb data,
// not metadata); data writes are absorbed locally and become pending
// write-back segments. Completion is tracked at two durability levels:
//
//   - buffered-durable: the client write returned (data is on node-local
//     NVMe) — the fast path checkpoints take by default;
//   - PFS-durable: the drain scheduler has written the segment back to
//     the parallel file system (file Sync, or Tier.WaitDrained, blocks
//     until this point).
//
// Reads and Syncs of a file with pending segments force a drain and wait,
// so staged data is never observed stale. When a node's buffer fills,
// writes fall back to direct PFS-rate I/O for the overflow; a
// zero-capacity Spec degrades to direct I/O entirely.
package burst

import (
	"fmt"
	"strings"

	"picmcio/internal/pfs"
	"picmcio/internal/sim"
)

// Policy selects when buffered data drains to the backing store.
type Policy int

const (
	// PolicyImmediate starts draining as soon as data is buffered,
	// maximizing overlap with compute.
	PolicyImmediate Policy = iota
	// PolicyWatermark starts draining when a node's buffer use passes the
	// high watermark and stops once it falls below the low watermark,
	// batching write-back into few large bursts.
	PolicyWatermark
	// PolicyEpochEnd drains only when nudged (DrainEpoch, at ADIOS2 step
	// close) or forced (Sync, read, WaitDrained), keeping the PFS idle
	// during an output epoch.
	PolicyEpochEnd
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case PolicyImmediate:
		return "immediate"
	case PolicyWatermark:
		return "watermark"
	case PolicyEpochEnd:
		return "epoch-end"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// Class is a drain QoS lane. Checkpoint segments are the data a restart
// depends on; diagnostics are analysis output that can tolerate latency.
type Class int

// Drain lanes in priority order (lower drains first under priority QoS).
const (
	ClassCheckpoint Class = iota
	ClassDiagnostic
	NumClasses // lane count, for per-class accounting arrays
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case ClassCheckpoint:
		return "checkpoint"
	case ClassDiagnostic:
		return "diagnostic"
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// DefaultClassify maps a path to its drain lane by the file's naming
// convention: BIT1 checkpoint artifacts (.dmp dumps, "ckpt"/"checkpoint"
// file names) are ClassCheckpoint; everything else (diagnostic .dat
// snapshots, BP subfiles, logs) is ClassDiagnostic. Only the base name is
// inspected so a job directory named after checkpoints does not drag its
// diagnostics into the priority lane.
func DefaultClassify(path string) Class {
	_, base := pfs.Split(path)
	b := strings.ToLower(base)
	if strings.HasSuffix(b, ".dmp") || strings.Contains(b, "ckpt") || strings.Contains(b, "checkpoint") {
		return ClassCheckpoint
	}
	return ClassDiagnostic
}

// QoS configures the drain scheduler's quality-of-service behaviour. The
// zero value reproduces the plain scheduler: one FIFO lane, write-back as
// fast as the drain path allows.
type QoS struct {
	// PriorityLanes drains checkpoint-class segments strictly before
	// diagnostic-class segments (per-file ordering is preserved because a
	// file's segments all share its lane).
	PriorityLanes bool
	// DrainLimit caps each node's write-back bandwidth in bytes/second on
	// top of the device-side DrainRate (which is also per node) — the
	// "good neighbour" knob that keeps one job's write-back from
	// monopolizing shared OSTs. The job-aggregate cap is DrainLimit ×
	// draining nodes. 0 = no extra cap.
	DrainLimit float64
	// Deadline switches the scheduler from drain-ASAP to drain-by-deadline:
	// each batch of buffered bytes is paced so it becomes PFS-durable
	// within this window (refreshed at every DrainEpoch nudge — "drain by
	// next epoch"), smoothing write-back across the compute phase instead
	// of bursting. Forced drains (Sync, reads, WaitDrained) ignore pacing.
	Deadline sim.Duration
}

// Spec sizes one node's burst buffer. The zero value means "no burst
// buffer" (Enabled reports false and the tier passes through).
type Spec struct {
	CapacityBytes int64        // per-node buffer capacity; <=0 disables
	Rate          float64      // absorb bandwidth, bytes/second
	PerOp         sim.Duration // fixed cost per buffered write
	DrainRate     float64      // drain-side bandwidth cap; 0 = PFS-limited
	Policy        Policy
	HighWater     float64 // watermark start fraction (default 0.7)
	LowWater      float64 // watermark stop fraction (default HighWater/2: 0.35 at the default)

	// QoS is the drain scheduler's quality-of-service setting, fixed for
	// the tier's life: the spec is the one place it is set.
	QoS QoS
}

// Enabled reports whether the spec describes an actual buffer.
func (s Spec) Enabled() bool { return s.CapacityBytes > 0 }

func (s Spec) withDefaults() Spec {
	if s.HighWater <= 0 || s.HighWater > 1 {
		s.HighWater = 0.7
	}
	if s.LowWater <= 0 || s.LowWater >= s.HighWater {
		s.LowWater = s.HighWater / 2
	}
	return s
}

// ClassStats is one drain lane's accounting.
type ClassStats struct {
	DrainedBytes    int64    // lane bytes written back
	FirstDrainStart sim.Time // when the lane's first segment started draining
	LastDrainEnd    sim.Time // when the lane's latest segment became PFS-durable
}

// Stats is the tier's cumulative accounting.
type Stats struct {
	AbsorbedBytes   int64    // written buffered-durable at local speed
	FallbackBytes   int64    // overflowed to direct PFS writes (buffer full)
	DrainedBytes    int64    // written back, now PFS-durable
	LostBytes       int64    // buffered-only bytes destroyed by node crashes
	CancelledBytes  int64    // staged bytes discarded by truncate/unlink before draining
	DrainOps        int64    // backing write-back operations issued
	DrainBusySec    float64  // cumulative drain-worker busy time
	FirstDrainStart sim.Time // when the first segment started draining
	LastDrainEnd    sim.Time // when the most recent segment became PFS-durable
	PendingBytes    int64    // still buffered, not yet PFS-durable

	// Class breaks the drain accounting down by QoS lane; the achieved
	// drain bandwidth DrainedBytes/(LastDrainEnd-FirstDrainStart) is the
	// per-job fairness input (see internal/jobs).
	Class [NumClasses]ClassStats
}

// DrainBandwidth reports the achieved write-back bandwidth in
// bytes/second over the tier's active drain window (0 before any drain).
func (s Stats) DrainBandwidth() float64 {
	if s.DrainedBytes == 0 || s.LastDrainEnd <= s.FirstDrainStart {
		return 0
	}
	return float64(s.DrainedBytes) / float64(s.LastDrainEnd-s.FirstDrainStart)
}

// segment is one pending write-back unit.
type segment struct {
	st   *fileState
	off  int64
	n    int64
	seq  uint64 // global enqueue order, for cross-lane FIFO
	data []byte // nil in volume mode
}

// fileState is the shared per-path staging record: all open handles of a
// path, and the drain scheduler, see the same pending/size bookkeeping.
type fileState struct {
	path         string
	class        Class
	backing      pfs.File
	size         int64 // logical size including buffered-but-undrained writes
	pending      int64 // undrained bytes
	refs         int   // open wrapper handles
	closeOnDrain bool
	drained      *sim.Completion // armed while a process waits for PFS durability
}

// nodeState is one node's device and drain queues (one per QoS lane).
type nodeState struct {
	id       int
	dev      *sim.Server // absorb-side NVMe pipe
	drainDev *sim.Server // drain-side cap; nil when uncapped
	client   *pfs.Client // client the drain worker issues backing I/O through
	used     int64
	drained  int64 // cumulative bytes this node wrote back
	lost     int64 // cumulative bytes Crash discarded from this node
	queues   [NumClasses][]*segment
	draining bool
	force    bool // drain past the low watermark (flush requested)

	limitDev   *sim.Server // QoS rate limiter; nil until first needed
	deadlineAt sim.Time    // drain-by-deadline target for the current batch

	worker   *sim.Proc // the node's drain worker while one is running
	cur      *segment  // segment the worker is mid-transfer on
	inFlight bool      // worker is mid-segment; segStart is its begin time
	segStart sim.Time
}

// queuedSegs reports the number of segments across all lanes.
func (ns *nodeState) queuedSegs() int {
	n := 0
	for cl := range ns.queues {
		n += len(ns.queues[cl])
	}
	return n
}

// pop removes the next segment to drain: the head of the highest-priority
// nonempty lane when priority is on, otherwise the globally oldest
// (restoring strict cross-lane FIFO).
func (ns *nodeState) pop(priority bool) *segment {
	best := -1
	for cl := range ns.queues {
		if len(ns.queues[cl]) == 0 {
			continue
		}
		if priority {
			best = cl
			break
		}
		if best < 0 || ns.queues[cl][0].seq < ns.queues[best][0].seq {
			best = cl
		}
	}
	if best < 0 {
		return nil
	}
	seg := ns.queues[best][0]
	ns.queues[best] = ns.queues[best][1:]
	return seg
}

// Tier is a burst-buffer staging tier over a backing file system.
type Tier struct {
	k       *sim.Kernel
	spec    Spec
	backing pfs.FileSystem
	fs      *FS
	nodes   map[int]*nodeState
	order   []*nodeState // deterministic iteration order (creation order)
	files   map[string]*fileState
	pending *sim.Gauge // total undrained bytes, for WaitDrained
	segSeq  uint64
	stats   Stats
}

// NewTier creates a staging tier on kernel k over the backing file system.
func NewTier(k *sim.Kernel, spec Spec, backing pfs.FileSystem) *Tier {
	t := &Tier{
		k:       k,
		spec:    spec.withDefaults(),
		backing: backing,
		nodes:   map[int]*nodeState{},
		files:   map[string]*fileState{},
		pending: sim.NewGauge(k),
	}
	t.fs = &FS{t: t}
	return t
}

// FS returns the staging file system: writes through it are absorbed by
// the node-local buffer and drained in the background.
func (t *Tier) FS() pfs.FileSystem { return t.fs }

// Stats reports the tier's cumulative accounting. Busy time includes the
// elapsed part of any segment currently in flight, so a mid-run snapshot
// (e.g. "how much drain work overlapped the app") sees partial progress
// instead of quantizing to whole segments.
func (t *Tier) Stats() Stats {
	s := t.stats
	s.PendingBytes = t.pending.Value()
	for _, ns := range t.order {
		if ns.inFlight {
			s.DrainBusySec += float64(t.k.Now() - ns.segStart)
		}
	}
	return s
}

// Durability is a point-in-time snapshot of the tier's two durability
// levels. The invariant BufferedBytes = DurableBytes + PendingBytes +
// LostBytes + CancelledBytes holds at every instant: every byte a client
// write returned for is either written back, still staged, destroyed by
// a crash, or deliberately discarded because its file was truncated or
// unlinked before the drain reached it (overwrite-in-place checkpoints
// cancel their predecessor's backlog this way).
type Durability struct {
	BufferedBytes  int64 // every byte whose client write returned (buffered-durable or better)
	DurableBytes   int64 // PFS-durable: drained write-back plus direct fallback writes
	PendingBytes   int64 // staged on node-local NVMe only
	LostBytes      int64 // staged-only bytes destroyed by node crashes
	CancelledBytes int64 // staged bytes discarded by truncate/unlink before draining
}

// Durability reports the tier's current durability snapshot. The fault
// layer samples it at epoch boundaries and at kill time to compute what a
// restart loses at each durability level.
func (t *Tier) Durability() Durability {
	return Durability{
		BufferedBytes:  t.stats.AbsorbedBytes + t.stats.FallbackBytes,
		DurableBytes:   t.stats.DrainedBytes + t.stats.FallbackBytes,
		PendingBytes:   t.pending.Value(),
		LostBytes:      t.stats.LostBytes,
		CancelledBytes: t.stats.CancelledBytes,
	}
}

// NodeStats is one node's staging accounting.
type NodeStats struct {
	PendingBytes int64 // buffer occupancy: absorbed, not yet drained or lost
	DrainedBytes int64 // written back through this node, PFS-durable
	LostBytes    int64 // discarded by Crash
}

// NodeStats reports the accounting of one node's buffer (zero value for a
// node the tier has never seen).
func (t *Tier) NodeStats(node int) NodeStats {
	ns, ok := t.nodes[node]
	if !ok {
		return NodeStats{}
	}
	return NodeStats{PendingBytes: ns.used, DrainedBytes: ns.drained, LostBytes: ns.lost}
}

// CrashReport accounts what one node's crash did to staged state.
type CrashReport struct {
	Node           int
	LostBytes      int64 // buffered-only bytes destroyed with the node's NVMe
	SurvivingBytes int64 // staged bytes preserved on NVMe, still owed to the PFS
}

// Crash models losing node id mid-run, per the NVMe-survivability model:
// with survive=true the staged state outlives the node (fabric-attached
// enclosure, or a reboot that keeps the drive) — queued segments stay and
// must still be written back, which is the redrain cost a restart pays;
// with survive=false the node takes its NVMe with it — every queued
// segment on the node is discarded, those bytes were buffered-durable
// only and are now lost, and affected files' logical sizes revert to what
// the backing store actually holds.
//
// A transfer in flight on the node's drain worker dies with the node in
// both cases: the worker process is killed mid-segment (device time
// already spent streams nowhere). Under survival the aborted segment's
// data is still on the NVMe, so it is requeued at the head of its lane
// for retransmission; under node loss it is accounted lost with the
// rest. Durability waiters of a file whose last pending bytes were lost
// are released: there is nothing left to wait for.
func (t *Tier) Crash(p *sim.Proc, node int, survive bool) CrashReport {
	rep := CrashReport{Node: node}
	ns, ok := t.nodes[node]
	if !ok {
		return rep
	}
	if ns.inFlight && ns.cur != nil {
		// Abort the in-flight transfer: the worker dies at its next
		// scheduling point without running its completion accounting.
		// Requeue the segment at the head of its lane — under survival
		// it awaits retransmission; under node loss the discard sweep
		// below takes it with the rest.
		t.k.Kill(ns.worker)
		seg := ns.cur
		ns.cur, ns.inFlight = nil, false
		ns.draining, ns.worker = false, nil
		lane := &ns.queues[seg.st.class]
		*lane = append([]*segment{seg}, *lane...)
	} else if ns.draining {
		// The worker is between segments: spawned but not yet run, or
		// blocked in a drained file's deferred close (drain releases the
		// finished segment's pending bytes as it unwinds). It dies with
		// the node.
		t.k.Kill(ns.worker)
		ns.draining, ns.worker = false, nil
	}
	if survive {
		for cl := range ns.queues {
			for _, seg := range ns.queues[cl] {
				rep.SurvivingBytes += seg.n
			}
		}
		return rep
	}
	var touched []*fileState
	seen := map[*fileState]bool{}
	for cl := range ns.queues {
		for _, seg := range ns.queues[cl] {
			rep.LostBytes += seg.n
			ns.used -= seg.n
			ns.lost += seg.n
			seg.st.pending -= seg.n
			t.pending.Add(-seg.n)
			t.stats.LostBytes += seg.n
			if !seen[seg.st] {
				seen[seg.st] = true
				touched = append(touched, seg.st)
			}
		}
		ns.queues[cl] = nil
	}
	for _, st := range touched {
		if st.backing != nil {
			if sz := st.backing.Size(); sz < st.size {
				st.size = sz
			}
		}
		t.settle(p, ns.client, st)
	}
	return rep
}

// node returns (creating on first use) the buffer state of the client's
// node. The first client seen for a node supplies the NIC drain traffic
// shares with foreground I/O.
func (t *Tier) node(c *pfs.Client) *nodeState {
	id := 0
	if c != nil {
		id = c.Node
	}
	ns, ok := t.nodes[id]
	if !ok {
		ns = &nodeState{id: id, dev: sim.NewServer(t.k, t.spec.Rate, t.spec.PerOp)}
		if t.spec.DrainRate > 0 {
			ns.drainDev = sim.NewServer(t.k, t.spec.DrainRate, 0)
		}
		t.nodes[id] = ns
		t.order = append(t.order, ns)
	}
	if ns.client == nil {
		ns.client = c
	}
	return ns
}

// state returns (creating if needed) the staging record for path, adopting
// the given backing handle and observing its current size. A previously
// adopted handle this one supersedes is closed — every backing open must
// pay exactly one backing close, or metadata costs are undercounted and
// the superseded handle leaks. The two may be the same value: a file
// system's opens of one file can share a handle.
func (t *Tier) state(p *sim.Proc, c *pfs.Client, path string, backing pfs.File) *fileState {
	cp := pfs.Clean(path)
	st, ok := t.files[cp]
	if !ok {
		st = &fileState{path: cp, class: DefaultClassify(cp)}
		t.files[cp] = st
	}
	if st.backing != nil {
		st.backing.Close(p, c)
	}
	st.backing = backing
	if sz := backing.Size(); sz > st.size {
		st.size = sz
	}
	return st
}

// cancel discards every queued segment of st (truncate/unlink), releasing
// buffer capacity and pending accounting, and completes a deferred close
// the drain worker would otherwise have issued. A segment already in
// flight on a drain worker completes against the backing store; with the
// sim's single-writer usage that window is empty in practice.
func (t *Tier) cancel(p *sim.Proc, c *pfs.Client, st *fileState) {
	for _, ns := range t.order {
		for cl := range ns.queues {
			kept := ns.queues[cl][:0]
			for _, seg := range ns.queues[cl] {
				if seg.st != st {
					kept = append(kept, seg)
					continue
				}
				ns.used -= seg.n
				st.pending -= seg.n
				t.pending.Add(-seg.n)
				t.stats.CancelledBytes += seg.n
			}
			ns.queues[cl] = kept
		}
	}
	t.settle(p, c, st)
}

// settle completes durability waiters and performs the deferred close once
// a file has no pending segments left. Safe to call at any time.
func (t *Tier) settle(p *sim.Proc, c *pfs.Client, st *fileState) {
	if st.pending != 0 {
		return
	}
	if st.drained != nil {
		st.drained.Complete()
		st.drained = nil
	}
	if st.closeOnDrain && st.refs == 0 {
		st.closeOnDrain = false
		st.backing.Close(p, c)
		st.backing = nil // closed: a later open must not close it again
	}
}

// forceDrainAll starts a drain worker on every node with queued segments,
// draining fully regardless of watermark state.
func (t *Tier) forceDrainAll() {
	for _, ns := range t.order {
		if ns.queuedSegs() > 0 {
			ns.force = true
			t.ensureDrainer(ns)
		}
	}
}

// DrainEpoch is the epoch-close nudge (pfs.Stager): under PolicyEpochEnd
// it starts a full drain of every queue. Under the other policies it is a
// no-op — immediate drains as data arrives, and watermark batching would
// be defeated if every step close forced a flush. With a QoS deadline the
// nudge also re-arms every node's drain-by-next-epoch target.
func (t *Tier) DrainEpoch(_ *sim.Proc) {
	if t.spec.QoS.Deadline > 0 {
		for _, ns := range t.order {
			ns.deadlineAt = t.k.Now() + t.spec.QoS.Deadline
		}
	}
	if t.spec.Policy != PolicyEpochEnd {
		return
	}
	if t.spec.QoS.Deadline > 0 {
		for _, ns := range t.order { // paced drain, not a forced flush
			t.ensureDrainer(ns)
		}
		return
	}
	t.forceDrainAll()
}

// WaitDrained forces a full drain (whatever the policy) and parks p until
// every buffered byte is PFS-durable.
func (t *Tier) WaitDrained(p *sim.Proc) {
	t.forceDrainAll()
	t.pending.Wait(p)
}

// ensureDrainer spawns a background drain worker for the node unless one
// is already running or there is nothing to drain. Workers are on-demand
// processes: they exit when their stop condition holds, so an idle tier
// leaves no parked processes behind.
func (t *Tier) ensureDrainer(ns *nodeState) {
	if ns.draining || ns.queuedSegs() == 0 {
		return
	}
	ns.draining = true
	ns.worker = t.k.Spawn(fmt.Sprintf("burst.drain.%d", ns.id), func(p *sim.Proc) { t.drain(p, ns) })
}

// drain is the worker body: pop segments (FIFO, or priority-lane order
// under QoS) and write them back through the node's drain path, stopping
// at the policy's stop condition. The QoS rate limit and deadline pacing
// both stretch a segment's completion without consuming device time.
func (t *Tier) drain(p *sim.Proc, ns *nodeState) {
	for ns.queuedSegs() > 0 {
		if t.spec.Policy == PolicyWatermark && !ns.force &&
			float64(ns.used) <= t.spec.LowWater*float64(t.spec.CapacityBytes) {
			break
		}
		seg := ns.pop(t.spec.QoS.PriorityLanes)
		t0 := p.Now()
		ns.cur, ns.inFlight, ns.segStart = seg, true, t0
		var devEnd sim.Time
		if ns.drainDev != nil {
			devEnd = ns.drainDev.Reserve(seg.n)
		}
		if lim := t.spec.QoS.DrainLimit; lim > 0 {
			if ns.limitDev == nil {
				ns.limitDev = sim.NewServer(t.k, lim, 0)
			}
			if e := ns.limitDev.Reserve(seg.n); e > devEnd {
				devEnd = e
			}
		}
		if t.spec.QoS.Deadline > 0 && !ns.force {
			// Pace the batch: this segment gets the share of the remaining
			// deadline window proportional to its share of the node's
			// pending bytes, so the whole batch lands at the deadline
			// instead of bursting onto the shared backbone.
			if window := ns.deadlineAt - t0; window > 0 && ns.used > 0 {
				share := sim.Duration(float64(seg.n) / float64(ns.used))
				if e := t0 + window*share; e > devEnd {
					devEnd = e
				}
			}
		}
		// Keep the earliest start: with several nodes' workers mid-first-
		// segment, DrainOps is still 0 for each and a plain set would
		// record the latest first-wave start, shrinking DrainBandwidth's
		// window.
		if t.stats.DrainOps == 0 && (t.stats.FirstDrainStart == 0 || t0 < t.stats.FirstDrainStart) {
			t.stats.FirstDrainStart = t0
		}
		cs := &t.stats.Class[seg.st.class]
		if cs.DrainedBytes == 0 && (cs.FirstDrainStart == 0 || t0 < cs.FirstDrainStart) {
			cs.FirstDrainStart = t0
		}
		seg.st.backing.WriteAt(p, ns.client, seg.off, seg.n, seg.data)
		if devEnd > p.Now() {
			p.SleepUntil(devEnd)
		}
		ns.cur, ns.inFlight = nil, false
		ns.used -= seg.n
		ns.drained += seg.n
		seg.st.pending -= seg.n
		t.stats.DrainedBytes += seg.n
		t.stats.DrainOps++
		t.stats.DrainBusySec += float64(p.Now() - t0)
		t.stats.LastDrainEnd = p.Now()
		cs.DrainedBytes += seg.n
		cs.LastDrainEnd = p.Now()
		func() {
			// The segment is written back; settle may still block in the
			// file's deferred close, and a Crash landing there kills the
			// worker mid-close. Deferred, the gauge release survives the
			// unwind — skipping it would leave WaitDrained waiting forever
			// on bytes that are already durable.
			defer t.pending.Add(-seg.n)
			t.settle(p, ns.client, seg.st)
		}()
	}
	if ns.queuedSegs() == 0 {
		ns.force = false
	}
	ns.draining = false
	ns.worker = nil
}

// FS is the staging tier's pfs.FileSystem face.
type FS struct {
	t *Tier
}

var (
	_ pfs.FileSystem = (*FS)(nil)
	_ pfs.Stager     = (*FS)(nil)
)

// Name implements pfs.FileSystem.
func (f *FS) Name() string { return "burst+" + f.t.backing.Name() }

// DrainEpoch implements pfs.Stager.
func (f *FS) DrainEpoch(p *sim.Proc) { f.t.DrainEpoch(p) }

// wrap stages a freshly opened backing handle, or returns it unwrapped
// when the tier is disabled (zero capacity degrades to direct I/O).
func (f *FS) wrap(p *sim.Proc, c *pfs.Client, bf pfs.File, err error, path string) (pfs.File, error) {
	if err != nil {
		return nil, err
	}
	if !f.t.spec.Enabled() {
		return bf, nil
	}
	st := f.t.state(p, c, path, bf)
	st.refs++
	st.closeOnDrain = false
	return &file{t: f.t, st: st}, nil
}

// Create implements pfs.FileSystem: metadata goes to the backing store,
// and any staged data of a previous incarnation of the path is discarded
// (truncate semantics). The staged state is mutated only after the
// backing create succeeds — a failed create must leave it intact.
func (f *FS) Create(p *sim.Proc, c *pfs.Client, path string) (pfs.File, error) {
	bf, err := f.t.backing.Create(p, c, path)
	if err != nil {
		return nil, err
	}
	if f.t.spec.Enabled() {
		if st, ok := f.t.files[pfs.Clean(path)]; ok {
			f.t.cancel(p, c, st)
			st.size = 0
		}
	}
	return f.wrap(p, c, bf, nil, path)
}

// Open implements pfs.FileSystem.
func (f *FS) Open(p *sim.Proc, c *pfs.Client, path string) (pfs.File, error) {
	bf, err := f.t.backing.Open(p, c, path)
	return f.wrap(p, c, bf, err, path)
}

// OpenAppend implements pfs.FileSystem.
func (f *FS) OpenAppend(p *sim.Proc, c *pfs.Client, path string) (pfs.File, error) {
	bf, err := f.t.backing.OpenAppend(p, c, path)
	return f.wrap(p, c, bf, err, path)
}

// Stat implements pfs.FileSystem, reporting the logical size (including
// buffered-but-undrained bytes).
func (f *FS) Stat(p *sim.Proc, c *pfs.Client, path string) (pfs.FileInfo, error) {
	fi, err := f.t.backing.Stat(p, c, path)
	if err != nil {
		return fi, err
	}
	if st, ok := f.t.files[pfs.Clean(path)]; ok && st.size > fi.Size {
		fi.Size = st.size
	}
	return fi, nil
}

// Unlink implements pfs.FileSystem, discarding staged data for the path.
func (f *FS) Unlink(p *sim.Proc, c *pfs.Client, path string) error {
	if st, ok := f.t.files[pfs.Clean(path)]; ok {
		f.t.cancel(p, c, st)
		st.size = 0
		delete(f.t.files, pfs.Clean(path))
	}
	return f.t.backing.Unlink(p, c, path)
}

// MkdirAll implements pfs.FileSystem.
func (f *FS) MkdirAll(p *sim.Proc, c *pfs.Client, path string) error {
	return f.t.backing.MkdirAll(p, c, path)
}

// ReadDir implements pfs.FileSystem. Entry sizes are the backing store's
// view; a staged file's logical size is visible through Stat.
func (f *FS) ReadDir(p *sim.Proc, c *pfs.Client, path string) ([]pfs.FileInfo, error) {
	return f.t.backing.ReadDir(p, c, path)
}

// file is a staged open file.
type file struct {
	t  *Tier
	st *fileState
}

var _ pfs.File = (*file)(nil)

// Path implements pfs.File.
func (f *file) Path() string { return f.st.path }

// Size implements pfs.File: the logical size, counting buffered writes.
func (f *file) Size() int64 { return f.st.size }

// WriteAt implements pfs.File: absorb what fits into the node buffer at
// local NVMe speed and enqueue it for write-back; overflow beyond the
// remaining capacity falls back to a direct PFS-rate write.
func (f *file) WriteAt(p *sim.Proc, c *pfs.Client, off, n int64, data []byte) {
	t := f.t
	ns := t.node(c)
	free := t.spec.CapacityBytes - ns.used
	if free < 0 {
		free = 0
	}
	if n > free && f.st.pending > 0 {
		// Buffer pressure would send part of this write straight to the
		// backing store while older segments of the same file are still
		// queued — an older segment must never drain over newer direct
		// bytes, so drain first (a full buffer stalls the writer anyway).
		f.waitDrained(p)
		free = t.spec.CapacityBytes - ns.used
		if free < 0 {
			free = 0
		}
	}
	buffered := n
	if buffered > free {
		buffered = free
	}
	fallback := n - buffered
	if end := off + n; end > f.st.size {
		f.st.size = end
	}
	var devEnd sim.Time
	if buffered > 0 {
		devEnd = ns.dev.Reserve(buffered)
		lane := &ns.queues[f.st.class]
		var seg *segment
		if len(*lane) > 0 {
			seg = (*lane)[len(*lane)-1]
		}
		if data == nil && seg != nil && seg.st == f.st && seg.data == nil && seg.off+seg.n == off {
			seg.n += buffered // coalesce contiguous volume-mode write-back
		} else {
			t.segSeq++
			seg = &segment{st: f.st, off: off, n: buffered, seq: t.segSeq}
			if data != nil {
				seg.data = append([]byte(nil), data[:buffered]...)
			}
			*lane = append(*lane, seg)
		}
		ns.used += buffered
		f.st.pending += buffered
		t.pending.Add(buffered)
		t.stats.AbsorbedBytes += buffered
		if t.spec.QoS.Deadline > 0 && ns.deadlineAt <= p.Now() {
			ns.deadlineAt = p.Now() + t.spec.QoS.Deadline
		}
	}
	if fallback > 0 {
		var tail []byte
		if data != nil {
			tail = data[buffered:]
		}
		t.stats.FallbackBytes += fallback
		f.st.backing.WriteAt(p, c, off+buffered, fallback, tail)
	}
	if devEnd > p.Now() {
		p.SleepUntil(devEnd)
	}
	switch t.spec.Policy {
	case PolicyImmediate:
		t.ensureDrainer(ns)
	case PolicyWatermark:
		if float64(ns.used) >= t.spec.HighWater*float64(t.spec.CapacityBytes) {
			t.ensureDrainer(ns)
		}
	}
}

// waitDrained forces a full drain and parks p until this file has no
// pending segments.
func (f *file) waitDrained(p *sim.Proc) {
	t := f.t
	for f.st.pending > 0 {
		t.forceDrainAll()
		if f.st.drained == nil {
			f.st.drained = sim.NewCompletion(t.k)
		}
		f.st.drained.Wait(p)
	}
}

// ReadAt implements pfs.File: staged data is drained first so reads never
// observe a stale backing file.
func (f *file) ReadAt(p *sim.Proc, c *pfs.Client, off, n int64) []byte {
	f.waitDrained(p)
	return f.st.backing.ReadAt(p, c, off, n)
}

// Sync implements pfs.File: fsync on a staged file means PFS durability —
// drain everything pending, then sync the backing file.
func (f *file) Sync(p *sim.Proc, c *pfs.Client) {
	f.waitDrained(p)
	f.st.backing.Sync(p, c)
}

// Close implements pfs.File. With pending segments the backing handle
// stays open on behalf of the drain worker (write-back cache semantics)
// and is closed by it after the last segment lands.
func (f *file) Close(p *sim.Proc, c *pfs.Client) {
	st := f.st
	if st.refs > 0 {
		st.refs--
	}
	if st.refs > 0 {
		return
	}
	if st.pending > 0 {
		st.closeOnDrain = true
		return
	}
	st.backing.Close(p, c)
	st.backing = nil // closed: a later open must not close it again
}
