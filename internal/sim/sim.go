// Package sim is a deterministic discrete-event simulation of the cluster.
//
// Actors exchange real messages carrying real tuples; only *time* is
// simulated. Each node has a CPU (serialises message processing and
// ChargeCPU), a network transmit port and a receive port (each serialising
// at the configured bandwidth — this is what reproduces the paper's
// receiver-bottleneck and probe-broadcast effects), and a local disk.
//
// A message's journey: the sender's CPU emits it at the current virtual
// time; the TX port serialises it (back-to-back sends queue); it crosses
// the switch with a fixed latency; the receiver's RX port serialises it
// (concurrent senders queue here); finally the receiver's CPU processes it
// in arrival order, one message at a time.
//
// The simulation is sequential and fully deterministic: events are ordered
// by (time, insertion sequence).
package sim

import (
	"container/heap"
	"fmt"

	rt "ehjoin/internal/runtime"
)

type eventKind uint8

const (
	evArrive  eventKind = iota // message reached the receiver's RX port
	evDeliver                  // message fully received; hand to the actor
)

type event struct {
	t    int64
	seq  uint64
	kind eventKind
	from rt.NodeID
	to   rt.NodeID
	msg  rt.Message
	size int // wire size incl. overhead
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

type node struct {
	id        rt.NodeID
	actor     rt.Actor
	busyUntil int64
	txFree    int64
	rxFree    int64
	cpuNs     int64 // accumulated ChargeCPU, for utilisation stats
	diskNs    int64
	env       *env
}

// Stats aggregates transport-level accounting for a run.
type Stats struct {
	Messages     int64
	BytesOnWire  int64
	Events       int64
	MaxQueueSize int
	// DroppedMessages counts messages discarded by fault injection: traffic
	// addressed to a crashed node after its crash time.
	DroppedMessages int64
}

// Crash schedules node to fail at virtual time atNs: every message
// addressed to it at or after that instant is silently dropped (it is in
// flight to a dead host), and the node's actor never runs again. Messages
// the node sent before the crash still deliver — they are already on the
// wire.
type Crash struct {
	Node rt.NodeID
	AtNs int64
}

// FaultPlan is a deterministic fault-injection schedule, applied with
// Sim.ApplyFaults before the run starts.
type FaultPlan struct {
	Crashes []Crash
}

// Observer receives one callback per processed message: the node was busy
// with a message of the given kind from start to end (virtual ns). See
// internal/trace for a ready-made recorder.
type Observer interface {
	Record(node rt.NodeID, kind string, start, end int64)
}

// Sim implements runtime.Engine with virtual time.
type Sim struct {
	cm     rt.CostModel
	nodes  map[rt.NodeID]*node
	events eventHeap
	seq    uint64
	now    int64
	stats  Stats
	// MaxEvents guards against protocol bugs producing unbounded event
	// storms; Drain fails when exceeded. Zero means the default.
	MaxEvents int64
	// Trace, when set, observes every processed message.
	Trace Observer

	crashed map[rt.NodeID]int64 // node -> crash time (virtual ns)
}

const defaultMaxEvents = 2_000_000_000

// New returns an empty simulation using the given cost model.
func New(cm rt.CostModel) *Sim {
	return &Sim{cm: cm, nodes: make(map[rt.NodeID]*node)}
}

// Register implements runtime.Engine.
func (s *Sim) Register(id rt.NodeID, a rt.Actor) {
	if _, dup := s.nodes[id]; dup {
		panic(fmt.Sprintf("sim: node %d registered twice", id))
	}
	n := &node{id: id, actor: a}
	n.env = &env{sim: s, node: n}
	s.nodes[id] = n
}

// Inject implements runtime.Engine: an orchestration message delivered at
// the current virtual time with no network cost.
func (s *Sim) Inject(to rt.NodeID, m rt.Message) {
	s.push(&event{t: s.now, kind: evDeliver, from: rt.NoNode, to: to, msg: m})
}

// InjectAt schedules an orchestration message for delivery at virtual time
// atNs. It is how fault detection is modelled: a crash at T surfaces as a
// message to the scheduler at T plus the detection delay.
func (s *Sim) InjectAt(atNs int64, to rt.NodeID, m rt.Message) {
	s.push(&event{t: atNs, kind: evDeliver, from: rt.NoNode, to: to, msg: m})
}

// ApplyFaults registers a fault-injection schedule. Call before Drain.
func (s *Sim) ApplyFaults(p FaultPlan) {
	for _, c := range p.Crashes {
		if s.crashed == nil {
			s.crashed = make(map[rt.NodeID]int64)
		}
		if t, dup := s.crashed[c.Node]; !dup || c.AtNs < t {
			s.crashed[c.Node] = c.AtNs
		}
	}
}

func (s *Sim) push(e *event) {
	e.seq = s.seq
	s.seq++
	heap.Push(&s.events, e)
	if len(s.events) > s.stats.MaxQueueSize {
		s.stats.MaxQueueSize = len(s.events)
	}
}

// Drain implements runtime.Engine: run the event loop until no events
// remain.
func (s *Sim) Drain() error {
	limit := s.MaxEvents
	if limit == 0 {
		limit = defaultMaxEvents
	}
	for len(s.events) > 0 {
		s.stats.Events++
		if s.stats.Events > limit {
			return fmt.Errorf("sim: exceeded %d events; likely a protocol livelock", limit)
		}
		e := heap.Pop(&s.events).(*event)
		if e.t > s.now {
			s.now = e.t
		}
		if ct, dead := s.crashed[e.to]; dead && e.t >= ct {
			// In flight to a crashed host: the message is lost.
			s.stats.DroppedMessages++
			continue
		}
		n, ok := s.nodes[e.to]
		if !ok {
			return fmt.Errorf("sim: message %T for unregistered node %d", e.msg, e.to)
		}
		switch e.kind {
		case evArrive:
			// Claim the receiver's RX port in arrival order.
			start := max64(e.t, n.rxFree)
			done := start + s.cm.NetTransferNs(e.size)
			n.rxFree = done
			s.push(&event{t: done, kind: evDeliver, from: e.from, to: e.to, msg: e.msg, size: e.size})
		case evDeliver:
			start := max64(e.t, n.busyUntil)
			n.env.cur = start
			n.actor.Receive(n.env, e.from, e.msg)
			n.busyUntil = n.env.cur
			if n.busyUntil > s.now {
				// Keep engine time monotone with respect to completed work
				// so NowSeconds after Drain reflects the last completion.
				s.now = n.busyUntil
			}
			if s.Trace != nil {
				s.Trace.Record(e.to, fmt.Sprintf("%T", e.msg), start, n.busyUntil)
			}
		}
	}
	return nil
}

// NowSeconds implements runtime.Engine.
func (s *Sim) NowSeconds() float64 { return float64(s.now) / 1e9 }

// Stats returns transport accounting accumulated so far.
func (s *Sim) Stats() Stats { return s.stats }

// NodeCPUSeconds reports the accumulated ChargeCPU time of a node.
func (s *Sim) NodeCPUSeconds(id rt.NodeID) float64 {
	if n, ok := s.nodes[id]; ok {
		return float64(n.cpuNs) / 1e9
	}
	return 0
}

// NodeDiskSeconds reports the accumulated disk time of a node.
func (s *Sim) NodeDiskSeconds(id rt.NodeID) float64 {
	if n, ok := s.nodes[id]; ok {
		return float64(n.diskNs) / 1e9
	}
	return 0
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// env implements runtime.Env for one node.
type env struct {
	sim  *Sim
	node *node
	cur  int64 // current virtual time inside Receive
}

// Now implements runtime.Env.
func (e *env) Now() int64 { return e.cur }

// ChargeCPU implements runtime.Env.
func (e *env) ChargeCPU(ns int64) {
	if ns < 0 {
		panic("sim: negative CPU charge")
	}
	e.cur += ns
	e.node.cpuNs += ns
}

// ChargeDisk implements runtime.Env: a blocking local-disk transfer.
func (e *env) ChargeDisk(bytes int64, read bool) {
	d := e.sim.cm.DiskNs(bytes, read)
	e.cur += d
	e.node.diskNs += d
}

// ctrlLaneBytes is the small-message threshold: messages at or below this
// size travel on a control lane that bypasses the data ports' serialisation
// queues (they still pay transfer time and latency). This models the
// out-of-band control channel of a real cluster transport — a 32-byte
// acknowledgement or a split order is not queued behind megabytes of tuple
// data on the same host.
const ctrlLaneBytes = 4096

// Send implements runtime.Env.
func (e *env) Send(to rt.NodeID, m rt.Message) {
	s := e.sim
	if to == e.node.id {
		// Local hand-off: no network, delivered after current processing.
		s.push(&event{t: e.cur, kind: evDeliver, from: e.node.id, to: to, msg: m})
		return
	}
	size := m.WireSize() + s.cm.MsgOverheadBytes
	s.stats.Messages++
	s.stats.BytesOnWire += int64(size)
	if size <= ctrlLaneBytes {
		t := e.cur + s.cm.NetTransferNs(size) + s.cm.NetLatencyNs
		s.push(&event{t: t, kind: evDeliver, from: e.node.id, to: to, msg: m, size: size})
		return
	}
	txStart := max64(e.cur, e.node.txFree)
	txDone := txStart + s.cm.NetTransferNs(size)
	e.node.txFree = txDone
	s.push(&event{t: txDone + s.cm.NetLatencyNs, kind: evArrive, from: e.node.id, to: to, msg: m, size: size})
}
