package core

import (
	"fmt"

	"ehjoin/internal/datagen"
	"ehjoin/internal/hashfn"
	"ehjoin/internal/hashtable"
	rt "ehjoin/internal/runtime"
	"ehjoin/internal/spill"
	"ehjoin/internal/tuple"
)

// joinActor is one join process (§4.1.3). It builds and maintains its
// portion of the hash table, reports bucket overflow to the scheduler,
// participates in splits / replication hand-offs / reshuffling according to
// the configured algorithm, and probes its local table in the probe phase.
type joinActor struct {
	cfg    Config
	id     rt.NodeID
	budget int64 // this node's hash-memory budget

	active bool
	rng    hashfn.Range  // authoritative owned range
	route  *hashfn.Table // latest routing-table copy (for stray forwarding)
	table  *hashtable.Table
	owned  []tuple.Tuple // insertOrForward's in-range scratch
	// spillRung holds the partitions this node evicted to local disk. On the
	// expanding algorithms it is the degradation ladder's last rung, nil
	// until the first spillOrder arrives; the out-of-core baseline is the
	// rung with no recruits, armed from the start (DESIGN.md §9).
	spillRung *spill.Manager
	// An eviction is a decision, not a table pass (DESIGN.md §9). From the
	// first order on, partLive[p] counts the live table's tuples of spill
	// partition p. Choosing p as a victim marks it spilled in the rung,
	// charges its extraction and disk write, and moves its count to
	// pendingN[p]; the tuples themselves stay staged in the table until
	// flushEvictions hands them over, which every reader of the table's
	// contents calls first. pending is the sum of pendingN.
	partLive []int64
	pendingN []int64
	pending  int64
	kept     []tuple.Tuple // insertOwned's and divertSpilledProbes' scratch

	// Overflow-reporting state; stats.NoMoreNodes records the scheduler's
	// NACK (environment exhausted).
	lastReport int64 // table bytes when memFull was last sent
	retired    bool  // replication/hybrid: stopped growing
	forwardTo  rt.NodeID

	// windows is the send window this node currently advertises to each
	// data source (DESIGN.md §15); a source without an entry is at the base
	// creditWindow. stats.WidestWindow is the largest value ever advertised.
	windows map[rt.NodeID]int

	// preInit buffers chunks that arrive before this node's joinInit (the
	// scheduler's broadcast can reach a data source, or a split order its
	// victim, before the init message reaches the recruited node).
	preInit []preInitChunk

	// fw, when set, makes this node a multi-way pipeline stage: probe
	// matches are forwarded to the next stage instead of being emitted.
	fw *setForward

	// Heavy-key routing state (DESIGN.md §11). heavySet is nil until this
	// node's own heavyAssign arrives; heavyClone chunks that race ahead of
	// it (group peers on other links replicate eagerly) are buffered in
	// pendingHeavyClones so copies are never re-replicated as originals.
	heavySet           map[uint64]bool
	pendingHeavyClones []*tuple.Chunk
	heavyCopies        int64            // group copies held (excluded from Stored)
	heavyCopyCount     map[uint64]int64 // per-key copy counts, for purge accounting

	// Probe-phase expansion state (§4 footnote 1, with MaterializeOutput).
	outputBytes   int64 // accumulated materialised matches
	probeRetired  bool  // handed the range to a probe-phase recruit
	awaitClone    bool  // recruit: hold probe tuples until the clone lands
	cloneReceived int64
	cloneTotal    int64 // -1 until cloneEnd announces it
	heldProbes    []*tuple.Chunk

	// stats is the record statsReq reports; the node counts into it
	// directly, and snapshot fills in only the derived fields.
	stats joinStats
}

func newJoin(cfg Config, id rt.NodeID) *joinActor {
	j := &joinActor{
		cfg: cfg, id: id, budget: cfg.budgetOf(id), forwardTo: rt.NoNode,
		table: hashtable.New(cfg.Space, cfg.Build.Layout), cloneTotal: -1,
	}
	if cfg.Algorithm == OutOfCore {
		j.armRung()
	}
	return j
}

// activate marks the node working with the given range (initial assignment
// or recruitment).
func (j *joinActor) activate(rng hashfn.Range, route *hashfn.Table) {
	j.active = true
	j.rng = rng
	j.updateRoute(route)
}

func (j *joinActor) updateRoute(t *hashfn.Table) {
	if t != nil && (j.route == nil || t.Version > j.route.Version) {
		t.TakeIndex(j.route)
		j.route = t
	}
}

// InFlightChunks is the most chunks the sources can have in flight toward
// this node at once: each may use a window of up to MaxCreditWindow
// (DESIGN.md §15). A tcpnet worker sizes the free list it decodes chunks
// into as the sum over the nodes it hosts.
func (j *joinActor) InFlightChunks() int { return j.cfg.Sources * j.cfg.MaxCreditWindow }

// Receive implements runtime.Actor. The node is the last holder of every
// chunk it receives and releases it (tuple.Chunk.Release) once the chunk
// is stored or probed. preInit, heldProbes and pendingHeavyClones keep a
// chunk past Receive and release it when they consume it; a retired node's
// wholesale forward hands the chunk on unreleased (DESIGN.md §15, "the
// last holder releases").
func (j *joinActor) Receive(env rt.Env, from rt.NodeID, m rt.Message) {
	switch msg := m.(type) {
	case *joinInit:
		j.activate(msg.Range, msg.Table)
		if msg.AwaitClone {
			j.awaitClone = true
		}
		for _, p := range j.preInit {
			if p.migrated {
				j.onMoveTuples(env, p.chunk, p.version)
			} else {
				j.dispatchChunk(env, p.chunk, p.version)
			}
		}
		j.preInit = nil
		// The clone travels the full node's link and joinInit the
		// scheduler's: over TCP the whole clone can land first.
		j.maybeReleaseHeldProbes(env)
	case *dataChunk:
		env.ChargeCPU(j.cfg.Cost.ChunkOverheadNs)
		if msg.Origin != rt.NoNode {
			env.Send(msg.Origin, &chunkAck{Rel: msg.Chunk.Rel, Adjust: j.advertise(msg.Origin, msg.Chunk.Rel)})
		}
		if !j.active {
			j.preInit = append(j.preInit, preInitChunk{chunk: msg.Chunk, version: msg.Version})
			return
		}
		j.dispatchChunk(env, msg.Chunk, msg.Version)
	case *moveTuples:
		env.ChargeCPU(j.cfg.Cost.ChunkOverheadNs)
		if !j.active {
			j.preInit = append(j.preInit, preInitChunk{chunk: msg.Chunk, version: msg.Version, migrated: true})
			return
		}
		j.onMoveTuples(env, msg.Chunk, msg.Version)
	case *splitOrder:
		j.onSplit(env, msg)
	case *spillOrder:
		j.onSpillOrder(env, msg)
	case *purgeRange:
		j.onPurgeRange(env, msg)
	case *retire:
		j.retired = true
		j.forwardTo = msg.ForwardTo
		j.updateRoute(msg.Table)
	case *routeUpdate:
		j.updateRoute(msg.Table)
	case *memFullNack:
		j.stats.NoMoreNodes = true
	case *countReq:
		j.flushEvictions()
		counts := j.table.CountsInRange(msg.Range)
		env.ChargeCPU(int64(len(counts)) * 2)
		env.Send(from, &countResp{Range: msg.Range, Counts: counts})
	case *keyCountReq:
		j.onKeyCountReq(env, from, msg)
	case *heavyAssign:
		j.onHeavyAssign(env, msg)
	case *heavyClone:
		env.ChargeCPU(j.cfg.Cost.ChunkOverheadNs)
		if j.heavySet == nil {
			// Raced ahead of this node's own heavyAssign; buffer so the
			// copies are not snapshotted and re-replicated as originals.
			j.pendingHeavyClones = append(j.pendingHeavyClones, msg.Chunk)
			return
		}
		j.absorbHeavyClone(env, msg.Chunk)
	case *reshuffleAssign:
		j.onReshuffle(env, msg)
	case *finishOOC:
		if j.spillRung != nil {
			j.flushEvictions()
			j.spillRung.Finish(env)
		}
	case *setForward:
		j.fw = msg
	case *cloneTable:
		j.onCloneTable(env, msg)
	case *cloneTuples:
		env.ChargeCPU(j.cfg.Cost.ChunkOverheadNs)
		j.insertBatch(env, msg.Chunk.Tuples)
		j.cloneReceived += int64(len(msg.Chunk.Tuples))
		msg.Chunk.Release()
		j.maybeReleaseHeldProbes(env)
	case *cloneEnd:
		j.cloneTotal = msg.TotalTuples
		j.maybeReleaseHeldProbes(env)
	case *statsReq:
		j.flushEvictions()
		env.Send(from, j.snapshot())
	}
}

// advertise moves the window this node grants source src one chunk toward
// what its memory can back right now, and returns the step for the ack that
// is about to return the consumed chunk's credit.
func (j *joinActor) advertise(src rt.NodeID, rel tuple.Relation) int8 {
	w, ok := j.windows[src]
	if !ok {
		w = creditWindow
	}
	adj := windowKeep
	switch target := j.windowTarget(rel); {
	case w < target:
		adj = windowWiden
	case w > target:
		adj = windowNarrow
	}
	w += int(adj)
	if j.windows == nil {
		j.windows = make(map[rt.NodeID]int, j.cfg.Sources)
	}
	j.windows[src] = w
	j.stats.WidestWindow = max(j.stats.WidestWindow, int64(w))
	return adj
}

// windowTarget is the per-source window this node can afford while chunks
// of relation rel are streaming. Probing stores nothing, so the probe phase
// runs at the cap. During the build all sources together may have at most a
// quarter of the node's remaining budget in flight — deep while the table is
// far from full, back at the base creditWindow before it overflows, so
// overflow reports, expansions and spill orders keep the timing a fixed
// window gives them. Nodes that only buffer or forward what arrives (not yet initialised,
// retired), the out-of-core baseline, and probes that materialise their
// output stay at the base.
func (j *joinActor) windowTarget(rel tuple.Relation) int {
	base, limit := creditWindow, j.cfg.MaxCreditWindow
	switch {
	case !j.active || j.cfg.Algorithm == OutOfCore:
		return base
	case rel != tuple.RelR:
		if j.cfg.MaterializeOutput {
			return base
		}
		return limit
	case j.retired:
		return base
	}
	chunkBytes := int64(j.cfg.ChunkTuples * j.cfg.Build.Layout.LogicalSize())
	afford := (j.budget - j.liveBytes()) / (4 * int64(j.cfg.Sources) * chunkBytes)
	return int(max(int64(base), min(int64(limit), afford)))
}

// onCloneTable copies this node's hash table to the probe-phase recruit
// taking over its range; unlike a split, the sender keeps its copy to serve
// in-flight strays and retains its accumulated output.
func (j *joinActor) onCloneTable(env rt.Env, msg *cloneTable) {
	j.probeRetired = true
	j.flushEvictions()
	copied := make([]tuple.Tuple, 0, j.table.Count())
	j.table.ForEach(func(t tuple.Tuple) { copied = append(copied, t) })
	env.ChargeCPU(j.cfg.Cost.MoveNs * int64(len(copied)))
	j.shipChunks(env, msg.To, copied, func(c *tuple.Chunk) rt.Message { return &cloneTuples{Chunk: c} })
	env.Send(msg.To, &cloneEnd{TotalTuples: int64(len(copied))})
}

// shipChunks cuts build tuples into chunk-sized messages for dest, each
// made by wrap and charged the per-chunk overhead. Table clones, heavy-key
// replicas and migrations all ship this way.
func (j *joinActor) shipChunks(env rt.Env, dest rt.NodeID, ts []tuple.Tuple, wrap func(*tuple.Chunk) rt.Message) {
	for lo := 0; lo < len(ts); lo += j.cfg.ChunkTuples {
		hi := min(lo+j.cfg.ChunkTuples, len(ts))
		chunk := &tuple.Chunk{Rel: tuple.RelR, Layout: j.cfg.Build.Layout, Tuples: ts[lo:hi]}
		env.ChargeCPU(j.cfg.Cost.ChunkOverheadNs)
		env.Send(dest, wrap(chunk))
	}
}

// maybeReleaseHeldProbes processes buffered probe tuples once the clone is
// complete (count matches the announced total).
func (j *joinActor) maybeReleaseHeldProbes(env rt.Env) {
	if !j.awaitClone || j.cloneTotal < 0 || j.cloneReceived < j.cloneTotal {
		return
	}
	j.awaitClone = false
	held := j.heldProbes
	j.heldProbes = nil
	for _, c := range held {
		j.onProbeChunk(env, c)
	}
}

// onKeyCountReq answers the detection round's second stage: per-key counts
// at the candidate positions, plus the spill partitions this node has
// evicted (keys there are exempt from heavy routing — their probes must
// keep flowing into the rung's probe files).
func (j *joinActor) onKeyCountReq(env rt.Env, from rt.NodeID, msg *keyCountReq) {
	j.flushEvictions()
	keys, counts := j.table.KeyCountsAt(msg.Positions)
	env.ChargeCPU(j.table.Count() / 4) // one bucket walk
	resp := &keyCountResp{Keys: keys, Counts: counts}
	if j.spillRung != nil {
		for p := 0; p < j.spillRung.Parts(); p++ {
			if j.spillRung.Spilled(p) {
				resp.SpilledParts = append(resp.SpilledParts, int32(p))
			}
		}
	}
	env.Send(from, resp)
}

// onHeavyAssign installs the detected heavy-key set and replicates this
// node's own tuples of each heavy key to the rest of the key's group, so
// every member afterwards holds the key's complete build set and a probe
// tuple routed to any single member finds exactly the matches a broadcast
// would have found. Snapshot-then-absorb order matters: clones from group
// peers may already be buffered (or arrive later), and copies must never
// be re-replicated — each original is cloned exactly once, by its holder.
func (j *joinActor) onHeavyAssign(env rt.Env, msg *heavyAssign) {
	env.ChargeCPU(j.cfg.Cost.ChunkOverheadNs)
	j.flushEvictions()
	j.heavySet = make(map[uint64]bool, len(msg.Keys))
	if j.heavyCopyCount == nil {
		j.heavyCopyCount = make(map[uint64]int64)
	}
	for _, k := range msg.Keys {
		j.heavySet[k] = true
	}
	if j.route != nil {
		for _, k := range msg.Keys {
			mine := j.table.TuplesWithKey(k)
			if len(mine) == 0 {
				continue
			}
			env.ChargeCPU(j.cfg.Cost.MoveNs * int64(len(mine)))
			// The sender keeps its copy, as onCloneTable's does.
			for _, o := range heavyGroup(j.route, j.cfg.Space, k) {
				if dest := rt.NodeID(o); dest != j.id {
					j.shipChunks(env, dest, mine, func(c *tuple.Chunk) rt.Message { return &heavyClone{Chunk: c} })
				}
			}
		}
	}
	pend := j.pendingHeavyClones
	j.pendingHeavyClones = nil
	for _, c := range pend {
		j.absorbHeavyClone(env, c)
	}
}

// absorbHeavyClone stores a group peer's copies. They never trigger
// checkOverflow: detection runs on a drained cluster after the build, and
// memory relief for replica weight would re-enter the build-phase protocol
// the run has already left.
func (j *joinActor) absorbHeavyClone(env rt.Env, c *tuple.Chunk) {
	j.insertBatch(env, c.Tuples)
	j.heavyCopies += int64(len(c.Tuples))
	if j.heavyCopyCount == nil {
		j.heavyCopyCount = make(map[uint64]int64)
	}
	for _, t := range c.Tuples {
		j.heavyCopyCount[t.Key]++
	}
	c.Release()
}

// snapshot captures the node's statistics for the scheduler's collection.
// Cloned-in tuples are excluded from Stored: they are copies, and the
// conservation invariant counts each build tuple exactly once (at the node
// that originally stored it).
func (j *joinActor) snapshot() *joinStats {
	s := j.stats
	s.Active = j.active
	s.Stored = j.storedBuildTuples() - j.cloneReceived - j.heavyCopies
	s.Matches, s.Checksum = j.totalMatches(), j.totalChecksum()
	s.HeavyCopies = j.heavyCopies
	if j.spillRung != nil {
		s.SpillWrittenBytes = j.spillRung.SpillWrittenBytes
		s.SpillReadBytes = j.spillRung.SpillReadBytes
		s.BNLPasses = j.spillRung.BNLPasses
		// On the baseline spilling is the algorithm, not a degradation rung.
		if j.cfg.Algorithm != OutOfCore {
			s.SpilledPartitions = j.spillRung.SpilledPartitions()
			s.SpillBytes = j.spillRung.SpillWrittenBytes
		}
	}
	return &s
}

// preInitChunk is a chunk buffered before the node was initialised.
type preInitChunk struct {
	chunk    *tuple.Chunk
	version  uint64 // routing-table version the chunk was routed under
	migrated bool   // arrived as a moveTuples migration
}

// onPurgeRange executes a failure-recovery purge: this node's copy of the
// range is discarded (the range is being rebuilt from the sources at
// NewOwner). If this node is the new owner it (re)starts as the range's
// active owner; otherwise it retires and forwards stragglers there.
func (j *joinActor) onPurgeRange(env rt.Env, msg *purgeRange) {
	env.ChargeCPU(j.cfg.Cost.ChunkOverheadNs)
	dropped := j.extractLive(msg.Range)[0]
	env.ChargeCPU(j.cfg.Cost.MoveNs * int64(len(dropped)))
	j.stats.Purged += int64(len(dropped))
	// Heavy-key copies inside the purged range are gone too; keep the
	// conservation ledger consistent. (Purges fire only during build-phase
	// recovery, which precedes detection, so this is purely defensive.)
	for _, k := range sortedCopyKeys(j.heavyCopyCount) {
		if !msg.Range.Contains(j.cfg.Space.PositionOf(k)) {
			continue
		}
		n := j.heavyCopyCount[k]
		j.heavyCopies -= n
		j.stats.Purged -= n
		delete(j.heavyCopyCount, k)
	}
	// Cloned-in copies live inside this node's owned range; when the purge
	// covers it, ExtractRange dropped them along with the originals, so
	// their Stored exclusion must be reversed too — and their contribution
	// to the purge count, since copies are not conservation originals.
	// Without this a clone-then-purge leaves cloneReceived pinned and
	// reports Stored negative forever.
	if j.cloneReceived > 0 && msg.Range.Lo <= j.rng.Lo && j.rng.Hi <= msg.Range.Hi {
		j.stats.Purged -= j.cloneReceived
		j.cloneReceived = 0
	}
	if j.spillRung != nil {
		j.stats.Purged += j.spillRung.PurgeRange(msg.Range)
	}
	j.updateRoute(msg.Table)
	if msg.NewOwner == j.id {
		j.active = true
		j.rng = msg.Range
		j.retired = false
		j.forwardTo = rt.NoNode
		j.lastReport = 0 // restarting empty; future overflows report afresh
	} else {
		j.retired = true
		j.forwardTo = msg.NewOwner
	}
}

// filterStale drops build tuples invalidated by a re-stream barrier: the
// chunk was routed under routing-table version v, and a range rebuilt after
// a failure accepts only tuples routed at or after the rebuild's version
// (the sources re-stream the authoritative copies). Returns nil when
// nothing survives. A chunk it does not return is released: the caller's
// chunk is c or a copy of what survived.
func (j *joinActor) filterStale(c *tuple.Chunk, v uint64) *tuple.Chunk {
	if j.route == nil || len(j.route.Barriers) == 0 {
		return c
	}
	kept := make([]tuple.Tuple, 0, len(c.Tuples))
	for _, t := range c.Tuples {
		if j.route.StaleInBarrier(j.cfg.Space.PositionOf(t.Key), v) {
			continue
		}
		kept = append(kept, t)
	}
	if len(kept) == len(c.Tuples) {
		return c
	}
	j.stats.DroppedStale += int64(len(c.Tuples) - len(kept))
	var out *tuple.Chunk
	if len(kept) > 0 {
		out = &tuple.Chunk{Rel: c.Rel, Layout: c.Layout, Tuples: kept}
	}
	c.Release()
	return out
}

// onMoveTuples absorbs migrated tuples (split migration or reshuffle
// redistribution).
func (j *joinActor) onMoveTuples(env rt.Env, c *tuple.Chunk, v uint64) {
	if c = j.filterStale(c, v); c == nil {
		return
	}
	if j.cfg.Algorithm == Split {
		// This node's range may have been split again while the migration
		// was in flight; re-forward any strays.
		j.insertOrForward(env, c, v)
	} else {
		j.insertOwned(env, c.Tuples)
	}
	j.checkOverflow(env, c.LogicalBytes())
	c.Release()
}

// dispatchChunk routes an arriving chunk to the build or probe path.
func (j *joinActor) dispatchChunk(env rt.Env, c *tuple.Chunk, v uint64) {
	if c.Rel == tuple.RelR {
		j.onBuildChunk(env, c, v)
	} else {
		j.onProbeChunk(env, c)
	}
}

// onBuildChunk inserts (or spills, or forwards) one arriving build chunk.
func (j *joinActor) onBuildChunk(env rt.Env, c *tuple.Chunk, v uint64) {
	if c = j.filterStale(c, v); c == nil {
		return
	}
	if j.cfg.Algorithm == OutOfCore {
		j.insertOOC(env, c.Tuples)
		c.Release()
		return
	}
	if j.retired {
		// A pending buffer for a range this node stopped growing:
		// forward it wholesale to the node now receiving the range. Use
		// the latest routing table so the chunk goes straight to the
		// current tail instead of hopping through every retired replica.
		// The chunk goes with it, unreleased: in-process its receiver
		// holds it now, and a link writer that encodes it leaves it to
		// the garbage collector (dataChunk.Release).
		dest := j.forwardTo
		if j.route != nil && len(c.Tuples) > 0 {
			p := j.cfg.Space.PositionOf(c.Tuples[0].Key)
			if owner := rt.NodeID(j.route.BuildOwnerOf(p)); owner != j.id {
				dest = owner
			}
		}
		env.ChargeCPU(j.cfg.Cost.ChunkOverheadNs)
		env.Send(dest, &dataChunk{Chunk: c, Origin: rt.NoNode, Forwarded: true, Version: v})
		j.stats.FwdChunks++
		return
	}
	if j.cfg.Algorithm == Split {
		j.insertOrForward(env, c, v)
	} else {
		j.insertOwned(env, c.Tuples)
	}
	j.checkOverflow(env, c.LogicalBytes())
	c.Release()
}

// insertBatch inserts a batch of build tuples and charges the
// corresponding CPU cost.
func (j *joinActor) insertBatch(env rt.Env, ts []tuple.Tuple) {
	if j.spillRung != nil {
		for _, t := range ts {
			j.partLive[j.spillRung.PartOf(t.Key)]++
		}
	}
	j.store(env, ts)
}

// store is insertBatch for tuples partLive already counts.
func (j *joinActor) store(env rt.Env, ts []tuple.Tuple) {
	if len(ts) == 0 {
		return
	}
	env.ChargeCPU(j.cfg.Cost.BuildNs * int64(len(ts)))
	j.table.InsertAll(ts)
}

// insertOrForward inserts the tuples belonging to this node's range and
// re-routes strays (tuples sent under a routing table that predates one or
// more splits) to their current owners. Forwards keep the chunk's original
// routing version v, so re-stream barriers apply wherever a stale tuple
// finally surfaces.
func (j *joinActor) insertOrForward(env rt.Env, c *tuple.Chunk, v uint64) {
	var strays map[rt.NodeID]*tuple.Builder
	owned := j.owned[:0]
	for _, t := range c.Tuples {
		p := j.cfg.Space.PositionOf(t.Key)
		if !j.rng.Contains(p) {
			j.stats.StrayBuild++
			if dest := rt.NodeID(j.route.BuildOwnerOf(p)); dest != j.id {
				if strays == nil {
					strays = make(map[rt.NodeID]*tuple.Builder)
				}
				b := strays[dest]
				if b == nil {
					b = tuple.NewBuilder(c.Rel, c.Layout, j.cfg.ChunkTuples)
					strays[dest] = b
				}
				env.ChargeCPU(j.cfg.Cost.MoveNs)
				if full := b.Add(t); full != nil {
					j.sendForward(env, dest, full, v)
				}
				continue
			}
			// Routing disagreement can only be transient; treat the tuple
			// as ours rather than looping it through the network.
		}
		owned = append(owned, t)
	}
	j.insertOwned(env, owned)
	j.owned = owned[:0]
	for _, dest := range sortedNodeIDs(strays) {
		if part := strays[dest].Flush(); part != nil {
			j.sendForward(env, dest, part, v)
		}
	}
}

func (j *joinActor) sendForward(env rt.Env, dest rt.NodeID, c *tuple.Chunk, v uint64) {
	env.ChargeCPU(j.cfg.Cost.ChunkOverheadNs)
	env.Send(dest, &dataChunk{Chunk: c, Origin: rt.NoNode, Forwarded: true, Version: v})
	j.stats.FwdChunks++
}

// checkOverflow reports bucket overflow to the scheduler. A node re-reports
// as it keeps growing past the budget (re-armed per received chunk's worth
// of growth), and stops once the scheduler signals resource exhaustion.
func (j *joinActor) checkOverflow(env rt.Env, grewBy int) {
	if j.stats.NoMoreNodes || j.retired {
		return
	}
	b := j.liveBytes()
	if b <= j.budget {
		return
	}
	if j.lastReport != 0 && b < j.lastReport+int64(grewBy) {
		return
	}
	j.lastReport = b
	env.Send(j.cfg.schedulerID(), &memFull{Bytes: b})
}

// onSpillOrder engages the spill rung — the degradation ladder's last
// rung: evict whole hash partitions to local disk until the table fits the
// budget again (or the order's target is met, whichever is larger), then
// keep building. Tuples of evicted partitions stream to disk from here on
// and are joined in the finish phase.
func (j *joinActor) onSpillOrder(env rt.Env, msg *spillOrder) {
	env.ChargeCPU(j.cfg.Cost.ChunkOverheadNs)
	if !j.cfg.SpillEnabled {
		// This host opted out (joind -spill=off): decline and run over
		// budget, exactly as a memFullNack would have it.
		j.stats.NoMoreNodes = true
		env.Send(j.cfg.schedulerID(), &spillAck{})
		return
	}
	if j.spillRung == nil {
		j.armRung()
	}
	target := j.liveBytes() - j.budget
	if msg.TargetBytes > target {
		target = msg.TargetBytes
	}
	freed := j.evictToRung(env, target, spill.HybridHash)
	if j.liveBytes() <= j.budget {
		j.lastReport = 0 // relieved; future overflows report afresh
	}
	env.Send(j.cfg.schedulerID(), &spillAck{
		Partitions: j.spillRung.SpilledPartitions(),
		Bytes:      freed,
	})
}

// armRung engages the spill rung, counting the partitions of what the table
// already holds.
func (j *joinActor) armRung() {
	j.spillRung = spill.NewRung(j.cfg.Space, j.cfg.Build.Layout, j.cfg.Probe.Layout,
		j.budget, spillPartitions, j.cfg.Cost)
	j.partLive = make([]int64, j.spillRung.Parts())
	j.pendingN = make([]int64, j.spillRung.Parts())
	j.table.ForEach(func(t tuple.Tuple) { j.partLive[j.spillRung.PartOf(t.Key)]++ })
}

// insertOOC is the out-of-core baseline's build path. The node checks its
// budget after every tuple it keeps in memory, as a hybrid hash join does:
// a chunk is stored up to the tuple that overflows, the victims are chosen
// by the configured policy, and only then does the rest follow, so every
// eviction sees exactly the tuples that preceded it. No memFull goes to the
// scheduler: the baseline never recruits.
func (j *joinActor) insertOOC(env rt.Env, ts []tuple.Tuple) {
	size := int64(j.cfg.Build.Layout.LogicalSize())
	for len(ts) > 0 {
		room := (j.budget - j.liveBytes()) / size // resident tuples that still fit
		cut := len(ts)
		// Look for the overflowing tuple only while the rest could reach it.
		for i := 0; i < len(ts) && room < int64(len(ts)-i); i++ {
			if !j.spillRung.Spilled(j.spillRung.PartOf(ts[i].Key)) {
				if room--; room < 0 {
					cut = i + 1
					break
				}
			}
		}
		j.insertOwned(env, ts[:cut])
		ts = ts[cut:]
		if over := j.liveBytes() - j.budget; over > 0 {
			j.evictToRung(env, over, j.cfg.OOCPolicy)
		}
	}
}

// liveBytes is the table's accounted size without the tuples of evicted
// partitions still staged in it: what the node holds in memory as far as
// the budget, the overflow reports and the advertised windows go.
func (j *joinActor) liveBytes() int64 {
	return j.table.Bytes() - j.pending*int64(j.cfg.Build.Layout.LogicalSize())
}

// evictToRung evicts whole spill partitions and returns the bytes freed.
// HybridHash takes them largest first — the highest-relief-per-seek order —
// until at least target bytes are freed. Grace takes every partition still
// in memory, empty ones included, so the node is fully out of core from
// then on. The victims follow from the per-partition counts alone: each is
// marked and charged here, at the decision, and its tuples leave the table
// in flushEvictions.
func (j *joinActor) evictToRung(env rt.Env, target int64, policy spill.Policy) int64 {
	var freed int64
	if policy == spill.Grace {
		for p := range j.partLive {
			if !j.spillRung.Spilled(p) {
				freed += j.evict(env, p)
			}
		}
		return freed
	}
	for freed < target {
		best, bestN := -1, int64(0)
		for p, n := range j.partLive {
			if n > bestN && !j.spillRung.Spilled(p) {
				best, bestN = p, n
			}
		}
		if best < 0 {
			break // every populated partition is already on disk
		}
		freed += j.evict(env, best)
	}
	return freed
}

// evict marks partition p spilled, moves its live count to pending and
// returns the bytes that frees.
func (j *joinActor) evict(env rt.Env, p int) int64 {
	n := j.partLive[p]
	j.spillRung.MarkEvicted(env, p, n)
	j.partLive[p] = 0
	j.pendingN[p] = n
	j.pending += n
	return n * int64(j.cfg.Build.Layout.LogicalSize())
}

// flushEvictions moves the tuples of every partition evicted since the last
// flush from the live table to the rung, in one pass sized by the counts the
// decisions were made from. Anything that reads the table's contents —
// the first probe chunk, a split, reshuffle or purge extraction, the
// detection and reshuffle counts, a table clone, the stats snapshot, the
// rung's finish phase — calls it first; inserts and further decisions do not
// need to.
func (j *joinActor) flushEvictions() {
	if j.pending == 0 {
		return
	}
	moved := j.table.ExtractCounted(j.pending, func(t tuple.Tuple) bool {
		return j.pendingN[j.spillRung.PartOf(t.Key)] > 0
	})
	byPart := make([][]tuple.Tuple, len(j.pendingN))
	for p, n := range j.pendingN {
		if n > 0 {
			byPart[p] = make([]tuple.Tuple, 0, n)
		}
	}
	for _, t := range moved {
		p := j.spillRung.PartOf(t.Key)
		byPart[p] = append(byPart[p], t)
	}
	for p, n := range j.pendingN {
		if int64(len(byPart[p])) != n {
			panic(fmt.Sprintf("core: node %d flushed %d tuples of evicted partition %d, its eviction counted %d",
				j.id, len(byPart[p]), p, n))
		}
		if n > 0 {
			j.spillRung.AdoptBuild(p, byPart[p])
			j.pendingN[p] = 0
		}
	}
	j.pending = 0
}

// extractLive removes the live table's tuples of the disjoint ranges rs, in
// one pass, and returns them per range.
func (j *joinActor) extractLive(rs ...hashfn.Range) [][]tuple.Tuple {
	j.flushEvictions()
	moved := j.table.ExtractRanges(rs)
	if j.spillRung != nil {
		for _, ts := range moved {
			for _, t := range ts {
				j.partLive[j.spillRung.PartOf(t.Key)]--
			}
		}
	}
	return moved
}

// extractOwned removes every build tuple of rng this node holds, in the live
// table or — read back from disk — in the rung: a split or reshuffle
// migrating the range must take both, because probes for it route to the
// new owner from now on.
func (j *joinActor) extractOwned(env rt.Env, rng hashfn.Range) []tuple.Tuple {
	return j.withSpilled(env, rng, j.extractLive(rng)[0])
}

// withSpilled appends the rung's tuples of rng, read back from disk, to the
// live ones.
func (j *joinActor) withSpilled(env rt.Env, rng hashfn.Range, live []tuple.Tuple) []tuple.Tuple {
	if j.spillRung == nil {
		return live
	}
	return append(live, j.spillRung.ExtractRange(env, rng)...)
}

// insertOwned stores owned build tuples: with the spill rung engaged,
// tuples of evicted partitions stream to disk; everything else goes into
// the live table.
func (j *joinActor) insertOwned(env rt.Env, ts []tuple.Tuple) {
	if j.spillRung == nil {
		j.insertBatch(env, ts)
		return
	}
	kept := j.kept[:0]
	for _, t := range ts {
		if p := j.spillRung.PartOf(t.Key); j.spillRung.Spilled(p) {
			j.spillRung.SpillBuild(env, t)
		} else {
			kept = append(kept, t)
			j.partLive[p]++
		}
	}
	j.store(env, kept)
	j.kept = kept[:0]
}

// divertSpilledProbes streams probe tuples of evicted partitions to the
// spill rung and returns the tuples that still probe the live table, in
// the actor's scratch unless that is all of them.
func (j *joinActor) divertSpilledProbes(env rt.Env, ts []tuple.Tuple) []tuple.Tuple {
	kept := j.kept[:0]
	for _, t := range ts {
		if j.spillRung.Spilled(j.spillRung.PartOf(t.Key)) {
			j.spillRung.SpillProbe(env, t)
		} else {
			kept = append(kept, t)
		}
	}
	j.kept = kept[:0]
	if len(kept) == len(ts) {
		return ts
	}
	return kept
}

// onSplit executes a split order: keep the lower half, migrate the upper
// half's tuples to the recruited node, release the scheduler's barrier.
func (j *joinActor) onSplit(env rt.Env, msg *splitOrder) {
	j.rng = msg.Lower
	j.updateRoute(msg.Table)
	moved := j.extractOwned(env, msg.Upper)
	env.ChargeCPU(j.cfg.Cost.MoveNs * int64(len(moved)))
	j.stats.MovedOut += int64(len(moved))
	j.shipTuples(env, msg.NewNode, moved)
	// With BlockingMigration the victim's CPU is occupied for the
	// transfer's full wire time before its done message releases the
	// scheduler's barrier split pointer — a blocking-send implementation.
	// Otherwise the migration drains through the TX port concurrently
	// with ongoing work and the barrier releases after extraction.
	movedBytes := int64(len(moved)) * int64(j.cfg.Build.Layout.LogicalSize())
	if j.cfg.Cost.BlockingMigration {
		env.ChargeCPU(j.cfg.Cost.NetTransferNs(int(movedBytes)))
	}
	j.stats.SplitOpNs += j.cfg.Cost.MoveNs*int64(len(moved)) +
		j.cfg.Cost.NetTransferNs(int(movedBytes)) +
		j.cfg.Cost.BuildNs*int64(len(moved)) // re-insertion at the new node
	if j.liveBytes() <= j.budget {
		j.lastReport = 0 // relieved; future overflows report afresh
	}
	env.Send(j.cfg.schedulerID(), &splitDone{MovedTuples: int64(len(moved))})
}

// shipTuples sends migrated tuples in chunk-sized moveTuples messages,
// stamped with the sender's routing-table version for barrier filtering.
func (j *joinActor) shipTuples(env rt.Env, dest rt.NodeID, ts []tuple.Tuple) {
	var ver uint64
	if j.route != nil {
		ver = j.route.Version
	}
	j.shipChunks(env, dest, ts, func(c *tuple.Chunk) rt.Message { return &moveTuples{Chunk: c, Version: ver} })
}

// onReshuffle redistributes this node's share of a replicated range so the
// group's ranges become disjoint again (§4.2.3). Every departing range
// leaves the live table in one pass; the rung's spilled tuples are read
// back per range.
func (j *joinActor) onReshuffle(env rt.Env, msg *reshuffleAssign) {
	j.rng = msg.Keep
	j.retired = false
	j.forwardTo = rt.NoNode
	j.updateRoute(msg.Table)
	var away []hashfn.Entry
	var rs []hashfn.Range
	for _, e := range msg.GroupEntries {
		if rt.NodeID(e.Owners[0]) != j.id {
			away = append(away, e)
			rs = append(rs, e.Range)
		}
	}
	live := j.extractLive(rs...)
	for i, e := range away {
		owner := rt.NodeID(e.Owners[0])
		moved := j.withSpilled(env, e.Range, live[i])
		if len(moved) == 0 {
			continue
		}
		env.ChargeCPU(j.cfg.Cost.MoveNs * int64(len(moved)))
		j.stats.ReshuffleOut += int64(len(moved))
		j.shipTuples(env, owner, moved)
	}
}

// onProbeChunk probes every tuple of an arriving probe chunk against the
// local table and releases it; a probe-phase recruit holds it until its
// table clone is complete.
func (j *joinActor) onProbeChunk(env rt.Env, c *tuple.Chunk) {
	if j.awaitClone {
		// Probe-phase recruit: the table clone has not fully arrived yet.
		j.heldProbes = append(j.heldProbes, c)
		return
	}
	j.probe(env, c)
	c.Release()
}

// probe is onProbeChunk's work: count, divert the tuples of spilled
// partitions to the rung (which copies them), then probe or, on a
// pipeline stage, probe and forward the matches.
func (j *joinActor) probe(env rt.Env, c *tuple.Chunk) {
	j.stats.ProbeTuples += int64(len(c.Tuples))
	if j.heavySet != nil {
		for _, t := range c.Tuples {
			if j.heavySet[t.Key] {
				j.stats.HeavyProbeTuples++
			}
		}
	}
	ts := c.Tuples
	if j.spillRung != nil {
		j.flushEvictions()
		if ts = j.divertSpilledProbes(env, ts); len(ts) == 0 {
			return
		}
	}
	if j.fw != nil {
		j.probeAndForward(env, ts)
		return
	}
	m, x := j.table.ProbeAll(ts)
	j.stats.Matches += uint64(m)
	j.stats.Checksum ^= x
	env.ChargeCPU(j.cfg.Cost.ProbeNs*int64(len(ts)) + j.cfg.Cost.MatchNs*m)
	if j.cfg.MaterializeOutput {
		j.checkProbeOverflow(env, len(ts)*c.Layout.LogicalSize())
	}
}

// checkProbeOverflow accounts materialised output and reports overflow
// during the probe phase (§4 footnote 1).
func (j *joinActor) checkProbeOverflow(env rt.Env, grewBy int) {
	j.stats.OutputBytes = int64(j.stats.Matches) * int64(j.cfg.outputLayout().LogicalSize())
	if j.probeRetired || j.stats.NoMoreNodes {
		return
	}
	total := j.liveBytes() + j.stats.OutputBytes
	if total <= j.budget {
		return
	}
	if j.lastReport != 0 && total < j.lastReport+int64(grewBy) {
		return
	}
	j.lastReport = total
	env.Send(j.cfg.schedulerID(), &memFull{Bytes: total})
}

// probeAndForward is the multi-way pipeline stage's probe path: each match
// becomes an intermediate tuple, keyed by the matched build tuple's
// next-level join attribute and carrying the running path fingerprint,
// streamed to the next stage's nodes.
func (j *joinActor) probeAndForward(env rt.Env, ts []tuple.Tuple) {
	env.ChargeCPU(j.cfg.Cost.ProbeNs * int64(len(ts)))
	var out map[rt.NodeID]*tuple.Builder
	for _, s := range ts {
		n := j.table.Probe(s.Key, func(b tuple.Tuple) {
			next := tuple.Tuple{
				Index: tuple.MixPair(b.Index, s.Index),
				Key:   datagen.ChainKeyAt(j.fw.NextSeed, int64(b.Index)),
			}
			j.stats.Forwarded++
			p := j.cfg.Space.PositionOf(next.Key)
			for _, o := range j.fw.NextTable.ProbeOwnersOf(p) {
				dest := rt.NodeID(o)
				if out == nil {
					out = make(map[rt.NodeID]*tuple.Builder)
				}
				bld := out[dest]
				if bld == nil {
					bld = tuple.NewBuilder(tuple.RelS, j.fw.Layout, j.cfg.ChunkTuples)
					out[dest] = bld
				}
				j.stats.ForwardedCopies++
				if full := bld.Add(next); full != nil {
					j.sendStageChunk(env, dest, full)
				}
			}
		})
		if n > 0 {
			j.stats.Matches += uint64(n)
			env.ChargeCPU(j.cfg.Cost.MatchNs * int64(n))
		}
	}
	// Flush per incoming chunk: a stage node cannot know locally when the
	// whole probe stream ends, so intermediate chunks may run short.
	for _, dest := range sortedNodeIDs(out) {
		if part := out[dest].Flush(); part != nil {
			j.sendStageChunk(env, dest, part)
		}
	}
}

func (j *joinActor) sendStageChunk(env rt.Env, dest rt.NodeID, c *tuple.Chunk) {
	env.ChargeCPU(j.cfg.Cost.ChunkOverheadNs)
	env.Send(dest, &dataChunk{Chunk: c, Origin: rt.NoNode})
}

// storedBuildTuples counts the build tuples this node holds (conservation
// invariant and load-balance metrics).
func (j *joinActor) storedBuildTuples() int64 {
	n := j.table.Count()
	if j.spillRung != nil {
		n += j.spillRung.StoredBuildTuples()
	}
	return n
}

// totalMatches merges in-core and out-of-core match counts.
func (j *joinActor) totalMatches() uint64 {
	m := j.stats.Matches
	if j.spillRung != nil {
		m += j.spillRung.Matches()
	}
	return m
}

func (j *joinActor) totalChecksum() uint64 {
	x := j.stats.Checksum
	if j.spillRung != nil {
		x ^= j.spillRung.Checksum()
	}
	return x
}
