// The Workload interface: one job's application behaviour, abstracted
// so every experiment axis (burst staging, drain QoS, fault injection,
// interval optimization, batch scheduling) composes with every workload
// shape. jobs.Run owns the per-epoch driver loop — write, drain nudge,
// ledger mark, compute sleep, restart-from-checkpoint — and a Workload
// supplies the three things the driver cannot know:
//
//   - Shape: the sizing contract the pricer and the checkpoint-interval
//     optimizer consume (epochs, logical bytes per node per epoch, the
//     compute phase, whether ranks run in lockstep);
//   - Validate: the workload's own constraints on the job's node count;
//   - Bind: an EpochWriter bound to one job incarnation, whose
//     WriteEpoch issues the epoch's output through the node's posix.Env
//     (a restart re-Binds coordinated workloads so collective state
//     starts fresh).
//
// Every Workload is a comparable value type: sched.Pricer memoizes
// service prices keyed on the jobs.Spec that carries it.
//
// BulkWriter and ChunkedWriter reproduce the historical flat per-node
// writer byte-for-byte; RankWorkload (rank.go) runs mpisim/BIT1 rank
// schedules with aggregator fan-in inside the same driver.
package jobs

import (
	"fmt"

	"picmcio/internal/posix"
	"picmcio/internal/sim"
)

// Shape is a workload's sizing contract: everything the driver, the
// pricer and the interval optimizer need to know without running it.
type Shape struct {
	Epochs int
	// BytesPerNode is the job's logical output per node per epoch — the
	// unit Result.BytesWritten, replay accounting and the pricer's
	// volume math are denominated in, whether or not the bytes are
	// physically written from that node (an aggregating workload funnels
	// them to its writer nodes first).
	BytesPerNode int64
	// ComputeSec is the compute phase between epochs — the interval the
	// checkpoint-interval campaigns retune by setting the workload's own
	// ComputeSec field.
	ComputeSec sim.Duration
	// Coordinated marks lockstep (MPI-style) workloads whose nodes block
	// in collectives: a partial restart cannot re-enter a collective the
	// surviving nodes already left, so faults must be WholeJob and a
	// restart re-Binds the workload for a fresh incarnation.
	Coordinated bool
}

// Binding is the per-incarnation context a Workload binds against: the
// kernel (for workloads that build rank runtimes), the job's node count
// and its output directory on the shared file system.
type Binding struct {
	K     *sim.Kernel
	Nodes int
	Dir   string
}

// EpochWriter is one bound incarnation's epoch body. WriteEpoch runs on
// node's writer process and issues the epoch's output through env; the
// driver supplies the drain nudge, ledger mark and compute phase around
// it. Implementations may rendezvous across nodes (collectives) but
// must be deterministic for a given binding. StagedBytes is the bytes
// node itself writes each epoch — what its drain counter advances by per
// epoch written back, so the fault path counts its PFS-durable epochs.
type EpochWriter interface {
	WriteEpoch(p *sim.Proc, env *posix.Env, node, epoch int) error
	StagedBytes(node int) int64
}

// Workload is one job's application model. Implementations must be
// comparable value types, equal exactly when they behave identically:
// scheduler pricing memoizes on them.
type Workload interface {
	// Shape reports the sizing contract.
	Shape() Shape
	// Validate checks workload-specific constraints against the job's
	// node count before the run starts.
	Validate(nodes int) error
	// Bind returns the epoch body for one job incarnation. jobs.Run
	// binds once at launch and again on whole-job restart when the
	// shape is Coordinated.
	Bind(b Binding) EpochWriter
}

// BulkWriter is the historical flat workload: every epoch each node
// writes a checkpoint file and a diagnostic file (classified into the
// matching drain lanes by name) as single calls, then computes. One
// writer process per node stands in for the node's aggregator rank,
// keeping event counts proportional to nodes rather than ranks.
type BulkWriter struct {
	Epochs          int
	CheckpointBytes int64        // checkpoint bytes per node per epoch
	DiagBytes       int64        // diagnostic bytes per node per epoch
	ComputeSec      sim.Duration // compute phase between epochs
}

// Shape implements Workload.
func (w BulkWriter) Shape() Shape {
	return Shape{Epochs: w.Epochs, BytesPerNode: w.CheckpointBytes + w.DiagBytes, ComputeSec: w.ComputeSec}
}

// Validate implements Workload.
func (w BulkWriter) Validate(int) error { return nil }

// Bind implements Workload.
func (w BulkWriter) Bind(b Binding) EpochWriter {
	return flatWriter{dir: b.Dir, ckpt: w.CheckpointBytes, diag: w.DiagBytes}
}

// ChunkedWriter is BulkWriter with each file's bytes issued as a
// sequence of chunked writes instead of one call. Chunking is what an
// aggregator's flush loop really does, and it is load-bearing for the
// drain policies: an immediate drain overlaps write-back with the
// absorb of the remaining chunks, while an epoch-end drain cannot
// start until the nudge — the head start that separates the policies'
// durability positions under fault injection.
type ChunkedWriter struct {
	Epochs          int
	CheckpointBytes int64        // checkpoint bytes per node per epoch
	DiagBytes       int64        // diagnostic bytes per node per epoch
	ComputeSec      sim.Duration // compute phase between epochs
	ChunkBytes      int64        // per-write chunk size (<= 0: one call)
}

// Shape implements Workload.
func (w ChunkedWriter) Shape() Shape {
	return Shape{Epochs: w.Epochs, BytesPerNode: w.CheckpointBytes + w.DiagBytes, ComputeSec: w.ComputeSec}
}

// Validate implements Workload.
func (w ChunkedWriter) Validate(int) error { return nil }

// Bind implements Workload.
func (w ChunkedWriter) Bind(b Binding) EpochWriter {
	return flatWriter{dir: b.Dir, ckpt: w.CheckpointBytes, diag: w.DiagBytes, chunk: w.ChunkBytes}
}

// flatWriter is the shared epoch body of BulkWriter and ChunkedWriter:
// per epoch, a checkpoint file and a diagnostic file per node (unique
// paths, so nothing truncate-cancels pending write-back).
type flatWriter struct {
	dir        string
	ckpt, diag int64
	chunk      int64
}

// StagedBytes implements EpochWriter: every node writes its own files.
func (f flatWriter) StagedBytes(int) int64 { return f.ckpt + f.diag }

// WriteEpoch implements EpochWriter.
func (f flatWriter) WriteEpoch(p *sim.Proc, env *posix.Env, node, epoch int) error {
	if f.ckpt > 0 {
		path := fmt.Sprintf("%s/ckpt_%03d_e%03d.dmp", f.dir, node, epoch)
		if err := writeFile(p, env, path, f.ckpt, f.chunk); err != nil {
			return err
		}
	}
	if f.diag > 0 {
		path := fmt.Sprintf("%s/diag_%03d_e%03d.dat", f.dir, node, epoch)
		if err := writeFile(p, env, path, f.diag, f.chunk); err != nil {
			return err
		}
	}
	return nil
}
