package core

import (
	"ehjoin/internal/hashfn"
	rt "ehjoin/internal/runtime"
	"ehjoin/internal/tuple"
)

// Protocol messages exchanged between the scheduler, data sources, and join
// processes. Wire sizes are logical: chunk-bearing messages dominate and are
// charged their full logical tuple volume; control messages are small.

const ctrlBytes = 32 // nominal size of a small control message

// startBuild kicks a data source into the table-building phase.
type startBuild struct {
	Table *hashfn.Table
}

func (*startBuild) WireSize() int { return ctrlBytes }

// genStep is a data source's self-message driving incremental generation,
// so generation interleaves with acknowledgement processing.
type genStep struct{}

func (*genStep) WireSize() int { return ctrlBytes }

// dataChunk carries tuples from a data source (or a forwarding join node)
// to a join node.
type dataChunk struct {
	Chunk *tuple.Chunk
	// Origin is the data source owed the flow-control credit.
	Origin rt.NodeID
	// Forwarded marks chunks re-sent by a join node (pending buffers of a
	// full node, or strays after a split).
	Forwarded bool
	// Version is the routing-table version the chunk was originally routed
	// under. Forwarding preserves it, so re-stream barriers (node-failure
	// recovery) can discard stale copies wherever they surface.
	Version uint64
}

func (m *dataChunk) WireSize() int { return 16 + m.Chunk.LogicalBytes() }

// Release implements runtime.Releaser: a serialising transport is done with
// the source's original send, so the chunk may return to the source's free
// list. A forward carries a chunk some join node received — that node, not
// the writer, decides what still points into it — so it is never released.
func (m *dataChunk) Release() {
	if !m.Forwarded {
		m.Chunk.Release()
	}
}

// chunkAck returns one consumed chunk's flow-control credit to its data
// source, together with the receiver's one-chunk adjustment of the window it
// advertises to that source (DESIGN.md §15): the source's credits grow by
// 1+Adjust. The zero value is the fixed-window ack — one credit back, window
// unchanged.
type chunkAck struct {
	Rel    tuple.Relation
	Adjust int8 // windowNarrow, windowKeep or windowWiden
}

const (
	windowNarrow int8 = -1 // the consumed chunk's credit is retired
	windowKeep   int8 = 0
	windowWiden  int8 = +1 // one extra credit rides along
)

func (*chunkAck) WireSize() int { return ctrlBytes }

// sourcePhaseDone tells the scheduler a data source has generated and
// shipped its entire slice of the current relation.
type sourcePhaseDone struct {
	Rel    tuple.Relation
	Chunks int64
}

func (*sourcePhaseDone) WireSize() int { return ctrlBytes }

// memFull reports bucket overflow to the scheduler (§4.1.3).
type memFull struct {
	Bytes int64
}

func (*memFull) WireSize() int { return ctrlBytes }

// memFullNack tells an overflowed node no more resources exist; it must
// keep going over budget (the environment is exhausted).
type memFullNack struct{}

func (*memFullNack) WireSize() int { return ctrlBytes }

// spillOrder tells an overflowed node to engage the spill rung — the
// degradation ladder's fourth and last rung: evict hash partitions to local
// disk until at least TargetBytes are freed (0 means "back under your own
// budget") and keep building. Sent instead of a memFullNack when
// Config.SpillEnabled and no recruit is available or worthwhile.
type spillOrder struct {
	TargetBytes int64
}

func (*spillOrder) WireSize() int { return ctrlBytes }

// spillAck reports a completed eviction back to the scheduler: how many
// partitions the node has spilled so far and how many bytes this order
// freed. A node configured without spill support declines with a zero ack
// and runs over budget, as a memFullNack would have it.
type spillAck struct {
	Partitions int64
	Bytes      int64
}

func (*spillAck) WireSize() int { return ctrlBytes }

// joinInit instantiates a join process on a recruited node with its hash
// range (split upper half, or the replicated range). AwaitClone marks a
// probe-phase recruitment (§4 footnote 1): the node must buffer incoming
// probe tuples until the full node's table clone has arrived.
type joinInit struct {
	Range      hashfn.Range
	Table      *hashfn.Table
	AwaitClone bool
}

func (m *joinInit) WireSize() int { return ctrlBytes + tableWireBytes(m.Table) }

// splitOrder tells a working join node to split: keep Lower, migrate the
// tuples of Upper to NewNode.
type splitOrder struct {
	Lower, Upper hashfn.Range
	NewNode      rt.NodeID
	Table        *hashfn.Table
}

func (m *splitOrder) WireSize() int { return ctrlBytes + tableWireBytes(m.Table) }

// splitDone releases the scheduler's barrier split pointer.
type splitDone struct {
	MovedTuples int64
}

func (*splitDone) WireSize() int { return ctrlBytes }

// retire tells a full join node (replication/hybrid) to stop accepting
// build tuples and forward subsequently arriving buffers to ForwardTo.
type retire struct {
	ForwardTo rt.NodeID
	Table     *hashfn.Table
}

func (m *retire) WireSize() int { return ctrlBytes + tableWireBytes(m.Table) }

// routeUpdate broadcasts the new routing table to sources and join nodes.
type routeUpdate struct {
	Table *hashfn.Table
}

func (m *routeUpdate) WireSize() int { return ctrlBytes + tableWireBytes(m.Table) }

// moveTuples carries migrated tuples (split migration or reshuffle
// redistribution) between join nodes. Version is the sender's routing-table
// version, so migrations issued before a failure-recovery barrier can be
// discarded by the recipient.
type moveTuples struct {
	Chunk   *tuple.Chunk
	Version uint64
}

func (m *moveTuples) WireSize() int { return 16 + m.Chunk.LogicalBytes() }

// cloneTable (scheduler -> probe-full node) asks the node to copy its hash
// table to the recruited node taking over its range for the rest of the
// probe phase (§4 footnote 1).
type cloneTable struct {
	To rt.NodeID
}

func (*cloneTable) WireSize() int { return ctrlBytes }

// cloneTuples carries copied hash-table contents to a probe-phase recruit.
// Unlike moveTuples the sender keeps its copy (it still serves in-flight
// strays and holds its accumulated output).
type cloneTuples struct {
	Chunk *tuple.Chunk
}

func (m *cloneTuples) WireSize() int { return 16 + m.Chunk.LogicalBytes() }

// cloneEnd announces the clone's total tuple count; the recruit releases
// its held probe tuples once it has received exactly this many.
type cloneEnd struct {
	TotalTuples int64
}

func (*cloneEnd) WireSize() int { return ctrlBytes }

// doReshuffle starts the hybrid algorithm's reshuffling step (injected by
// the orchestrator between the build and probe phases).
type doReshuffle struct{}

func (*doReshuffle) WireSize() int { return ctrlBytes }

// countReq asks a join node for its per-position tuple counts over a range.
type countReq struct {
	Range hashfn.Range
}

func (*countReq) WireSize() int { return ctrlBytes }

// countResp returns per-position counts for the requested range: the local
// half of the reshuffle's global-sum step.
type countResp struct {
	Range  hashfn.Range
	Counts []int64
}

func (m *countResp) WireSize() int { return ctrlBytes + 8*len(m.Counts) }

// reshuffleAssign gives a group member its new disjoint sub-range. The
// member extracts everything outside the sub-range and sends it to the
// owners given in GroupEntries.
type reshuffleAssign struct {
	Keep         hashfn.Range
	GroupEntries []hashfn.Entry
	Table        *hashfn.Table
}

func (m *reshuffleAssign) WireSize() int {
	return ctrlBytes + 16*len(m.GroupEntries) + tableWireBytes(m.Table)
}

// startProbe moves a data source (or, for OOC, a join node) to the probe
// phase with the final routing table.
type startProbe struct {
	Table *hashfn.Table
}

func (m *startProbe) WireSize() int { return ctrlBytes + tableWireBytes(m.Table) }

// finishOOC tells an out-of-core join node to join its spilled partition
// pairs (the OOC algorithm's final local phase).
type finishOOC struct{}

func (*finishOOC) WireSize() int { return ctrlBytes }

// setForward (injected by the multi-way orchestrator before the probe
// phase) turns a join node into a pipeline stage: every probe match is
// forwarded as a probe tuple to the next stage's nodes instead of being
// emitted.
type setForward struct {
	// NextTable is the next stage's final routing table.
	NextTable *hashfn.Table
	// NextSeed is the stage's build relation seed; a matched build tuple's
	// next-level join attribute is datagen.ChainKeyAt(NextSeed, b.Index).
	NextSeed uint64
	// Layout is the logical shape of forwarded intermediate tuples.
	Layout tuple.Layout
}

func (m *setForward) WireSize() int { return ctrlBytes + tableWireBytes(m.NextTable) }

// nodeDead tells the scheduler a join node has been declared failed —
// injected by whatever detects the failure: the simulator's fault plan, or
// the TCP coordinator's heartbeat/connection monitoring. During the build
// phase the scheduler recovers by recruiting a replacement and re-streaming
// the lost ranges; afterwards it degrades to the surviving replicas.
type nodeDead struct {
	Node rt.NodeID
}

func (*nodeDead) WireSize() int { return ctrlBytes }

// purgeRange (scheduler -> chain member, during failure recovery) discards
// the member's tuples in Range: the range is being rebuilt from scratch at
// NewOwner via source re-streaming, and which tuples each chain member held
// is timing-dependent, so exact recovery rebuilds the whole range. If
// NewOwner is the recipient itself it becomes the range's active owner;
// otherwise it retires and forwards stragglers to NewOwner.
type purgeRange struct {
	Range    hashfn.Range
	NewOwner rt.NodeID
	Table    *hashfn.Table
}

func (m *purgeRange) WireSize() int { return ctrlBytes + tableWireBytes(m.Table) }

// replayRange (scheduler -> every data source, during failure recovery)
// asks the source to re-generate the already-streamed prefix of its build
// slice and re-send the tuples hashing into Range. Generation is
// counter-based and deterministic, so the replay is exact.
type replayRange struct {
	Range hashfn.Range
	Table *hashfn.Table
}

func (m *replayRange) WireSize() int { return ctrlBytes + tableWireBytes(m.Table) }

// replayDone reports one source's finished replay with the volume it
// re-streamed.
type replayDone struct {
	Chunks int64
	Tuples int64
}

func (*replayDone) WireSize() int { return ctrlBytes }

// detectHeavy starts the heavy-hitter detection round (injected by the
// orchestrator after the build phase — and, for hybrid, the reshuffle —
// when Config.HeavyThreshold > 0). The scheduler gathers the global
// per-position histogram, reduces it to candidate positions, asks the
// nodes for per-key counts there, and routes the keys above threshold
// through the replicate-build/partition-probe path (DESIGN.md §11).
type detectHeavy struct{}

func (*detectHeavy) WireSize() int { return ctrlBytes }

// keyCountReq asks a join node for its per-key tuple counts at the
// candidate heavy positions.
type keyCountReq struct {
	Positions []int32
}

func (m *keyCountReq) WireSize() int { return ctrlBytes + 4*len(m.Positions) }

// keyCountResp returns the node's per-key counts (sorted by key) at the
// requested positions, plus every spill partition the node has evicted
// (rung 4): a key living in a partition that is spilled anywhere is
// exempt from heavy routing, because its probe tuples must keep flowing
// into that node's probe files for the Grace finish.
type keyCountResp struct {
	Keys         []uint64
	Counts       []int64
	SpilledParts []int32
}

func (m *keyCountResp) WireSize() int {
	return ctrlBytes + 16*len(m.Keys) + 4*len(m.SpilledParts)
}

// heavyAssign distributes the detected heavy-key set (sorted ascending)
// to every data source and join node: the new wire frame carrying heavy
// assignments. Receivers derive each key's owner group from their current
// routing table, so the frame itself stays table-free; nodes owning a
// heavy key replicate its build tuples to the rest of the group, and
// sources thereafter partition the key's probe tuples round-robin across
// the group instead of broadcasting.
type heavyAssign struct {
	Keys []uint64
}

func (m *heavyAssign) WireSize() int { return ctrlBytes + 8*len(m.Keys) }

// heavyClone carries one owner's build tuples of a heavy key to another
// member of the key's group. Like cloneTuples the sender keeps its copy;
// the recipient accounts the tuples as heavy copies, excluded from its
// Stored conservation figure.
type heavyClone struct {
	Chunk *tuple.Chunk
}

func (m *heavyClone) WireSize() int { return 16 + m.Chunk.LogicalBytes() }

// collectStats (injected by the orchestrator after the final phase) makes
// the scheduler gather per-node statistics from every source and join node.
type collectStats struct{}

func (*collectStats) WireSize() int { return ctrlBytes }

// statsReq asks a node for its run statistics.
type statsReq struct{}

func (*statsReq) WireSize() int { return ctrlBytes }

// joinStats is a join node's run counters. The node counts into its own
// record as it works; the snapshot a statsReq returns is a copy with the
// derived fields filled in: Active, Stored, HeavyCopies, the spill fields,
// and Matches and Checksum, which the node keeps for its in-core table and
// the snapshot totals with the spill rung's.
type joinStats struct {
	Active            bool
	Stored            int64
	MovedOut          int64
	ReshuffleOut      int64
	SplitOpNs         int64
	FwdChunks         int64
	StrayBuild        int64
	ProbeTuples       int64
	Matches           uint64
	Checksum          uint64
	Forwarded         int64 // matches forwarded to the next pipeline stage
	ForwardedCopies   int64 // forwarded sends including broadcast copies
	OutputBytes       int64 // materialised join output held in memory
	NoMoreNodes       bool
	SpillWrittenBytes int64
	SpillReadBytes    int64
	BNLPasses         int64
	SpilledPartitions int64 // partitions evicted by the spill rung
	SpillBytes        int64 // bytes the spill rung wrote to local disk
	Purged            int64 // tuples discarded by failure-recovery purges
	DroppedStale      int64 // stale tuples discarded at re-stream barriers
	HeavyCopies       int64 // heavy-key build tuples received as group copies
	HeavyProbeTuples  int64 // probe tuples routed via the heavy partitioned path
	WidestWindow      int64 // largest send window advertised to any source
}

func (*joinStats) WireSize() int { return 128 }

// sourceStats is a data source's run counters; the source counts into its
// own record and a statsReq gets a copy.
type sourceStats struct {
	ChunksSent       int64
	ProbeExtraCopies int64
	CreditStalls     int64 // generation steps that parked on an exhausted window
}

func (*sourceStats) WireSize() int { return 64 }

func tableWireBytes(t *hashfn.Table) int {
	if t == nil {
		return 0
	}
	n := 16
	for _, e := range t.Entries {
		n += 12 + 4*len(e.Owners)
	}
	return n + 4*len(t.Dead) + 24*len(t.Barriers)
}
