// Package runtime defines the execution abstraction the join algorithms are
// written against. The scheduler, data sources, and join processes are
// Actors exchanging Messages through an Env; the same actor code runs
// unchanged on two engines:
//
//   - internal/sim: a deterministic discrete-event simulation with a
//     calibrated cluster cost model (virtual time) — the engine used for
//     reproducing the paper's measurements;
//   - internal/tcpnet: a binary-framed TCP transport running actors
//     across real OS processes, or, in the wall-clock tests, across
//     goroutines of one process over loopback TCP.
//
// internal/live, a goroutine-per-actor engine that runs none of
// tcpnet's protocol, is kept only for one traced stage of the benchmark
// harness and is due for deletion.
package runtime

// NodeID identifies one logical cluster node (scheduler, data source, or
// join node). IDs are assigned by the orchestration layer.
type NodeID int32

// NoNode is the sender of injected (orchestration) messages.
const NoNode NodeID = -1

// Message is anything actors exchange. WireSize reports the logical size in
// bytes used for network-transfer accounting; transports add their own
// per-message overhead on top.
type Message interface {
	WireSize() int
}

// Releaser is an optional Message hook for transports that serialise: once
// a message's bytes are encoded, the transport calls Release so buffers the
// sender drew from a free list can go back to it. Engines that hand the
// message value itself to the receiving actor (internal/sim, internal/live,
// a transport's in-process deliveries) never call it — the receiver owns
// everything the message points to.
type Releaser interface {
	Release()
}

// Env is an actor's handle to its execution environment. All methods are
// meant to be called only from within Receive.
type Env interface {
	// Now returns the current time in nanoseconds: virtual time on the
	// simulator, wall-clock on live engines.
	Now() int64
	// Send dispatches a message from this actor to another actor.
	Send(to NodeID, m Message)
	// ChargeCPU accounts ns nanoseconds of local computation. On the
	// simulator this advances the node's clock and delays everything the
	// actor does afterwards; live engines ignore it (the real computation
	// already took real time).
	ChargeCPU(ns int64)
	// ChargeDisk accounts a blocking local-disk transfer of the given
	// logical size. Only the simulator models it.
	ChargeDisk(bytes int64, read bool)
}

// Actor is a protocol participant. Receive is invoked once per incoming
// message; engines guarantee an actor processes one message at a time.
type Actor interface {
	Receive(env Env, from NodeID, m Message)
}

// TransportStats reports session-layer transport activity. Engines that
// run over an unreliable byte transport (internal/tcpnet) expose a
// `TransportStats() TransportStats` method; the report layer picks it up
// by type assertion, the way it already does for simulator stats.
type TransportStats struct {
	// Resumes counts ack-based session resumes — recovery-ladder rung 1,
	// where a broken connection is re-established and only unacked
	// frames are retransmitted.
	Resumes int64
	// FullReassigns counts rung-2 recoveries: sessions torn down and
	// reassigned from scratch because resume was impossible.
	FullReassigns int64
	// RetransmittedFrames counts frames replayed on resume, both
	// directions summed.
	RetransmittedFrames int64
	// ChecksumFailures counts frames rejected by CRC verification.
	ChecksumFailures int64
	// DuplicateFrames counts frames dropped by sequence-number dedup.
	DuplicateFrames int64
	// DroppedMessages counts messages discarded because their worker was
	// dead or unrecoverable.
	DroppedMessages int64
	// FramesSent counts unique reliable frames sequenced, both
	// directions summed (retransmissions excluded).
	FramesSent int64
	// CoordRestarts counts coordinator processes restored from a
	// write-ahead checkpoint (0 on a crash-free run).
	CoordRestarts int64
	// CheckpointReplays counts checkpoint records replayed across those
	// restores.
	CheckpointReplays int64
	// ReattachedWorkers counts workers that survived a coordinator crash
	// parked in their redial loop and re-attached to the restored
	// coordinator with their session intact (rung 1).
	ReattachedWorkers int64
}

// Engine runs a set of actors to quiescence.
type Engine interface {
	// Register adds an actor under the given id. Must be called before
	// Inject or Drain.
	Register(id NodeID, a Actor)
	// Inject delivers an orchestration message (from NoNode) without
	// charging the network.
	Inject(to NodeID, m Message)
	// Drain processes messages until no work remains, then returns. It is
	// the phase barrier used between the build, reshuffle, and probe
	// phases.
	Drain() error
	// NowSeconds reports the engine's current time in seconds since the
	// run started (virtual on the simulator, wall-clock otherwise).
	NowSeconds() float64
}
