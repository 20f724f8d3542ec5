package sim

import "container/heap"

// Server models a single FCFS pipe with fixed per-operation latency and a
// service rate in bytes per second: an operation of n bytes arriving at
// time t on a server next free at time a occupies the interval
// [max(t,a), max(t,a)+PerOp+n/Rate]. This is the basic model for an OST,
// a NIC stream, or a disk.
type Server struct {
	k      *Kernel
	rate   float64 // bytes per second; <=0 means infinitely fast
	perOp  Duration
	freeAt Time
	busy   Duration // total busy time, for utilization reporting
	ops    uint64
	bytes  uint64
}

// NewServer returns a server with service rate rate (bytes/second) and
// fixed per-operation latency perOp seconds.
func NewServer(k *Kernel, rate float64, perOp Duration) *Server {
	return &Server{k: k, rate: rate, perOp: perOp}
}

// ServiceTime reports the raw service time for n bytes (no queueing).
func (s *Server) ServiceTime(n int64) Duration {
	d := s.perOp
	if s.rate > 0 && n > 0 {
		d += Duration(float64(n) / s.rate)
	}
	return d
}

// Reserve books an operation of n bytes arriving now and returns the time
// at which the operation completes, without blocking the caller. Use this
// when one process fans an operation out across several servers (e.g. a
// striped write) and then waits for the max completion time.
func (s *Server) Reserve(n int64) Time {
	start := s.k.now
	if s.freeAt > start {
		start = s.freeAt
	}
	d := s.ServiceTime(n)
	s.freeAt = start + d
	s.busy += d
	s.ops++
	if n > 0 {
		s.bytes += uint64(n)
	}
	return s.freeAt
}

// Stats reports the cumulative number of operations, bytes and busy time.
func (s *Server) Stats() (ops, bytes uint64, busy Duration) {
	return s.ops, s.bytes, s.busy
}

// MultiServer models a station with c identical servers and a single FCFS
// queue, e.g. a metadata server with a fixed service-thread count. Jobs are
// dispatched to the earliest-free server.
type MultiServer struct {
	k    *Kernel
	free timeHeap // freeAt per server
	ops  uint64
	busy Duration
}

type timeHeap []Time

func (h timeHeap) Len() int           { return len(h) }
func (h timeHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h timeHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *timeHeap) Push(x any)        { *h = append(*h, x.(Time)) }
func (h *timeHeap) Pop() any          { old := *h; n := len(old); v := old[n-1]; *h = old[:n-1]; return v }

// NewMultiServer returns a c-server station.
func NewMultiServer(k *Kernel, c int) *MultiServer {
	if c < 1 {
		c = 1
	}
	m := &MultiServer{k: k, free: make(timeHeap, c)}
	heap.Init(&m.free)
	return m
}

// ReserveDur books an operation of service duration d arriving now and
// returns its completion time: the station's operations have heterogeneous
// costs (a metadata server where create is dearer than stat).
func (m *MultiServer) ReserveDur(d Duration) Time {
	if d < 0 {
		d = 0
	}
	start := m.k.now
	if m.free[0] > start {
		start = m.free[0]
	}
	end := start + d
	m.free[0] = end
	heap.Fix(&m.free, 0)
	m.ops++
	m.busy += d
	return end
}

// Ops reports the number of operations served so far.
func (m *MultiServer) Ops() uint64 { return m.ops }

// Busy reports cumulative busy time across all servers.
func (m *MultiServer) Busy() Duration { return m.busy }
