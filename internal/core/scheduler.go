package core

import (
	"sort"

	"ehjoin/internal/hashfn"
	"ehjoin/internal/hashtable"
	rt "ehjoin/internal/runtime"
	"ehjoin/internal/spill"
)

// phase tracks where the run is in its lifecycle.
type phase uint8

const (
	phaseBuild phase = iota
	phaseReshuffle
	// phaseDetect is the heavy-hitter detection round between build (and,
	// for hybrid, reshuffle) and probe: histogram gather → key counts at
	// candidate positions → heavyAssign (DESIGN.md §11).
	phaseDetect
	phaseProbe
)

// schedActor is the scheduler (§4.1.1): it owns the master routing table,
// the lists of working / full / potential join nodes, the memory-full
// protocol (splits or replications), the reshuffling step, and the phase
// synchronisation between building and probing.
type schedActor struct {
	cfg Config
	id  rt.NodeID

	table    *hashfn.Table
	splitter *hashfn.Splitter
	phase    phase

	working   []rt.NodeID
	potential []rt.NodeID
	fullSet   map[rt.NodeID]bool
	// probeFullSet tracks probe-phase retirements separately: a node that
	// retired during the build (replication) can still overflow on
	// materialised output during the probe and deserves relief once.
	probeFullSet map[rt.NodeID]bool

	// Split-protocol state: queued overflow reports, served one split at a
	// time under the barrier split pointer.
	overflowQueue []rt.NodeID
	queuedNode    map[rt.NodeID]bool
	exhausted     bool // no potential nodes remain

	// Reshuffle state: per replicated group, the accumulated counts.
	pendingGroups map[int]*groupState // keyed by entry range low

	// Heavy-hitter detection state (phaseDetect). detectCounts is the
	// global per-position histogram being summed; keyCounts the global
	// per-key masses at the candidate positions; taintedParts the union of
	// spill partitions any node has evicted (keys there stay on normal
	// routing so the Grace finish still sees their probes).
	detectWant   int
	detectCounts []int64
	keyWant      int
	keyCounts    map[uint64]int64
	taintedParts map[int]bool
	heavyKeys    []uint64 // final detected set, sorted ascending

	sourcesDone int

	// Failure-recovery state (nodeDead handling). footprints records each
	// node's hash range at activation: ranges only shrink during the build
	// phase (splits), so a node can only ever have held — or have had in
	// flight toward it, under any stale table version — tuples inside its
	// activation range. Recovery must rebuild that whole footprint, not
	// just the node's current entry.
	footprints      map[rt.NodeID]hashfn.Range
	deadNodes       map[rt.NodeID]bool
	pendingSplit    pendingSplitState
	pendingReplays  int   // outstanding replayDone acknowledgements
	recoveryStartNs int64 // -1 when no recovery is in progress
	degraded        bool  // a death could not be recovered exactly
	recoveryFailed  bool  // a sole-owner range was lost outright

	// Stats.
	splits           int64
	replications     int64
	probeExpansions  int64
	splitMoved       int64 // tuples migrated by splits (reported via splitDone)
	nodesLost        int64
	nodesRecovered   int64
	recoveryNs       int64
	restreamedChunks int64
	restreamedTuples int64
	// degradedProbeRecoveries counts degrade() invocations during the
	// probe phase — deaths the run worked around via surviving replicas
	// instead of recovering exactly.
	degradedProbeRecoveries int64

	// events logs every expansion-protocol step in arrival order, for
	// reporting and for the differential oracle's sequence comparison.
	events []ExpansionEvent

	// Collected per-node statistics (populated by the collectStats round).
	joinStats   map[rt.NodeID]*joinStats
	sourceStats map[rt.NodeID]*sourceStats
}

// groupState accumulates count responses for one replicated range during
// reshuffling.
type groupState struct {
	rng     hashfn.Range
	members []rt.NodeID
	counts  []int64
	got     int
}

// pendingSplitState tracks the single split in flight under the barrier
// split pointer, so that a crash of either party releases the barrier
// instead of wedging the split protocol forever.
type pendingSplitState struct {
	active  bool
	victim  rt.NodeID
	newNode rt.NodeID
}

func newScheduler(cfg Config, table *hashfn.Table, working, potential []rt.NodeID) *schedActor {
	fp := make(map[rt.NodeID]hashfn.Range, len(working))
	for i, w := range working {
		if i < len(table.Entries) {
			fp[w] = table.Entries[i].Range
		}
	}
	return &schedActor{
		cfg:          cfg,
		id:           cfg.schedulerID(),
		table:        table,
		splitter:     hashfn.NewSplitter(len(table.Entries)),
		working:      working,
		potential:    potential,
		fullSet:      make(map[rt.NodeID]bool),
		probeFullSet: make(map[rt.NodeID]bool),
		queuedNode:   make(map[rt.NodeID]bool),
		deadNodes:    make(map[rt.NodeID]bool),
		footprints:   fp,

		recoveryStartNs: -1,
	}
}

// Receive implements runtime.Actor.
func (sc *schedActor) Receive(env rt.Env, from rt.NodeID, m rt.Message) {
	if sc.deadNodes[from] {
		return // a straggler from a node already declared dead
	}
	switch msg := m.(type) {
	case *memFull:
		sc.events = append(sc.events, ExpansionEvent{Kind: "memfull", Node: from, Peer: rt.NoNode, Bytes: msg.Bytes})
		sc.onMemFull(env, from, msg.Bytes)
	case *spillAck:
		sc.events = append(sc.events, ExpansionEvent{Kind: "spill", Node: from, Peer: rt.NoNode, Bytes: msg.Bytes})
	case *splitDone:
		sc.splitMoved += msg.MovedTuples
		sc.pendingSplit = pendingSplitState{}
		sc.splitter.Completed()
		sc.issueSplits(env)
	case *nodeDead:
		sc.onNodeDead(env, msg.Node)
	case *replayDone:
		sc.restreamedChunks += msg.Chunks
		sc.restreamedTuples += msg.Tuples
		sc.pendingReplays--
		sc.maybeFinishRecovery(env)
	case *sourcePhaseDone:
		sc.sourcesDone++
	case *doReshuffle:
		sc.phase = phaseReshuffle
		sc.startReshuffle(env)
	case *detectHeavy:
		sc.startDetect(env)
	case *countResp:
		if sc.phase == phaseDetect {
			sc.onDetectCounts(env, msg)
		} else {
			sc.onCounts(env, from, msg)
		}
	case *keyCountResp:
		sc.onKeyCounts(env, msg)
	case *startProbe:
		// Injected by the orchestrator: broadcast the final routing table
		// and move every source to the probe phase.
		sc.phase = phaseProbe
		sc.sourcesDone = 0
		for i := 0; i < sc.cfg.Sources; i++ {
			env.ChargeCPU(sc.cfg.Cost.ChunkOverheadNs)
			env.Send(sc.cfg.sourceID(i), &startProbe{Table: sc.table.Clone()})
		}
	case *finishOOC:
		// Injected by the orchestrator: run the local out-of-core join
		// phases — every node on the OOC baseline, the nodes that engaged
		// the spill rung on an expanding algorithm.
		for _, n := range sc.working {
			env.Send(n, &finishOOC{})
		}
	case *collectStats:
		sc.joinStats = make(map[rt.NodeID]*joinStats)
		sc.sourceStats = make(map[rt.NodeID]*sourceStats)
		for i := 0; i < sc.cfg.Sources; i++ {
			env.Send(sc.cfg.sourceID(i), &statsReq{})
		}
		for i := 0; i < sc.cfg.MaxNodes; i++ {
			if id := sc.cfg.joinID(i); !sc.deadNodes[id] {
				env.Send(id, &statsReq{})
			}
		}
	case *joinStats:
		sc.joinStats[from] = msg
	case *sourceStats:
		sc.sourceStats[from] = msg
	}
}

// onMemFull handles a memory-overflow report according to the algorithm
// and phase. Every report gets an answer — an expansion, a spillOrder, or
// a memFullNack: an unanswered report leaves the node's checkOverflow
// armed, and it would re-report on every subsequent chunk, storming the
// scheduler for the rest of the run.
func (sc *schedActor) onMemFull(env rt.Env, node rt.NodeID, reported int64) {
	if sc.cfg.Algorithm == OutOfCore {
		return
	}
	if sc.phase == phaseProbe {
		if sc.cfg.MaterializeOutput {
			sc.probeExpand(env, node)
		} else {
			// Without materialised output nothing can relieve probe-phase
			// pressure; NACK so the node stops re-reporting per chunk.
			env.Send(node, &memFullNack{})
		}
		return
	}
	if sc.phase != phaseBuild {
		// Reshuffle-phase pressure (redistribution can concentrate load).
		// No recruitment protocol runs here, but the spill rung still can:
		// the node's reshuffle extraction reads evicted tuples back from
		// its rung, so spilling mid-reshuffle stays correct.
		if sc.cfg.SpillEnabled {
			sc.sendSpillOrder(env, node, reported)
		} else {
			env.Send(node, &memFullNack{})
		}
		return
	}
	switch sc.cfg.Algorithm {
	case Replication, Hybrid:
		if sc.spillInsteadOfRecruit(node, reported) {
			sc.sendSpillOrder(env, node, reported)
			return
		}
		sc.replicate(env, node)
	case Split:
		if sc.spillInsteadOfRecruit(node, reported) {
			sc.sendSpillOrder(env, node, reported)
			return
		}
		if sc.exhausted {
			env.Send(node, &memFullNack{})
			return
		}
		if !sc.queuedNode[node] {
			sc.queuedNode[node] = true
			sc.overflowQueue = append(sc.overflowQueue, node)
		}
		sc.issueSplits(env)
	}
}

// spillInsteadOfRecruit decides the build-phase rung for an overflow
// report: spill when the rung is armed and either the cluster is exhausted
// or the cost model prices the eviction's disk traffic below migrating the
// same bytes to a recruit.
func (sc *schedActor) spillInsteadOfRecruit(node rt.NodeID, reported int64) bool {
	if !sc.cfg.SpillEnabled {
		return false
	}
	if sc.exhausted || len(sc.potential) == 0 {
		return true
	}
	tupleSize := int64(sc.cfg.Build.Layout.LogicalSize())
	over := reported - sc.cfg.budgetOf(node)
	if over < tupleSize {
		over = tupleSize
	}
	cm := sc.cfg.Cost
	// Spilling pays a buffered write now plus, at finish, re-reads of the
	// evicted build tuples and their probe stream (two seeks to open the
	// partition files). Recruiting ships the same bytes through one network
	// port and re-stages them (extract + re-insert) at the new node. Under
	// the paper's testbed model the disk always loses, so the default
	// behaviour is unchanged; a slower interconnect flips the comparison.
	spillNs := 2*cm.DiskSeekNs + cm.DiskNs(over, false) + 2*cm.DiskNs(over, true)
	recruitNs := cm.NetTransferNs(int(over)) + (cm.MoveNs+cm.BuildNs)*(over/tupleSize)
	return spillNs < recruitNs
}

// sendSpillOrder tells an overflowed node to engage the spill rung.
// reported is the node's reported table size; 0 means unknown, in which
// case the node frees its own over-budget amount.
func (sc *schedActor) sendSpillOrder(env rt.Env, node rt.NodeID, reported int64) {
	var target int64
	if over := reported - sc.cfg.budgetOf(node); reported > 0 && over > 0 {
		target = over
	}
	env.ChargeCPU(sc.cfg.Cost.ChunkOverheadNs)
	env.Send(node, &spillOrder{TargetBytes: target})
}

// pickPotential recruits the potential node with the largest available
// memory (§4.1.1), breaking ties by id. On a homogeneous cluster this is
// simply id order; with Config.NodeBudgets it prefers the biggest node, to
// minimise the number of additional allocations.
func (sc *schedActor) pickPotential() (rt.NodeID, bool) {
	if len(sc.potential) == 0 {
		return rt.NoNode, false
	}
	best := 0
	for i := 1; i < len(sc.potential); i++ {
		if sc.cfg.budgetOf(sc.potential[i]) > sc.cfg.budgetOf(sc.potential[best]) {
			best = i
		}
	}
	n := sc.potential[best]
	sc.potential = append(sc.potential[:best], sc.potential[best+1:]...)
	return n, true
}

// probeExpand implements the adaptive probe phase (§4 footnote 1): a node
// whose materialised output has filled its memory clones its hash table to
// a recruited node, which takes over the node's slot in the probe routing
// for the rest of the phase.
func (sc *schedActor) probeExpand(env rt.Env, fullNode rt.NodeID) {
	if sc.probeFullSet[fullNode] {
		return
	}
	idx, slot := sc.findOwnerSlot(fullNode)
	if idx < 0 {
		// Not an owner of any entry (e.g. already superseded in the
		// routing): there is no slot to hand over, and silence would leave
		// the node re-reporting on every chunk.
		env.Send(fullNode, &memFullNack{})
		return
	}
	w, ok := sc.pickPotential()
	if !ok {
		env.Send(fullNode, &memFullNack{})
		return
	}
	sc.probeFullSet[fullNode] = true
	sc.working = append(sc.working, w)
	sc.probeExpansions++
	sc.table.ReplaceOwner(idx, slot, int32(w))
	rng := sc.table.Entries[idx].Range
	sc.footprints[w] = rng
	sc.events = append(sc.events, ExpansionEvent{Kind: "probe-expand", Node: fullNode, Peer: w, Range: rng})
	env.ChargeCPU(sc.cfg.Cost.ChunkOverheadNs)
	env.Send(w, &joinInit{Range: rng, Table: sc.table.Clone(), AwaitClone: true})
	env.Send(fullNode, &cloneTable{To: w})
	sc.broadcastRoute(env, fullNode, w)
}

// findOwnerSlot locates the table entry and owner position of a node.
func (sc *schedActor) findOwnerSlot(node rt.NodeID) (int, int) {
	for i, e := range sc.table.Entries {
		for s, o := range e.Owners {
			if o == int32(node) {
				return i, s
			}
		}
	}
	return -1, -1
}

// replicate implements the replication-based expansion (§4.2.2): the full
// node's range is replicated on a recruited node, the full node retires and
// forwards its pending buffers.
func (sc *schedActor) replicate(env rt.Env, fullNode rt.NodeID) {
	if sc.fullSet[fullNode] {
		return // duplicate report from an already-retired node
	}
	idx := sc.table.EntryIndexOwnedBy(int32(fullNode))
	if idx < 0 {
		return
	}
	w, ok := sc.pickPotential()
	if !ok {
		env.Send(fullNode, &memFullNack{})
		return
	}
	sc.table.AddReplica(idx, int32(w))
	sc.fullSet[fullNode] = true
	sc.working = append(sc.working, w)
	sc.replications++
	rng := sc.table.Entries[idx].Range
	sc.footprints[w] = rng
	sc.events = append(sc.events, ExpansionEvent{Kind: "replicate", Node: fullNode, Peer: w, Range: rng})
	env.ChargeCPU(sc.cfg.Cost.ChunkOverheadNs)
	env.Send(w, &joinInit{Range: rng, Table: sc.table.Clone()})
	env.Send(fullNode, &retire{ForwardTo: w, Table: sc.table.Clone()})
	sc.broadcastRoute(env, fullNode, w)
}

// issueSplits serves queued overflow reports one split at a time under the
// barrier split pointer (§4.2.1).
func (sc *schedActor) issueSplits(env rt.Env) {
	for len(sc.overflowQueue) > 0 && sc.splitter.CanIssue() {
		idx := sc.splitter.Next(sc.table)
		if idx < 0 {
			sc.nackQueue(env)
			return
		}
		w, ok := sc.pickPotential()
		if !ok {
			sc.exhausted = true
			sc.nackQueue(env)
			return
		}
		requester := sc.overflowQueue[0]
		sc.overflowQueue = sc.overflowQueue[1:]
		delete(sc.queuedNode, requester)

		victim := rt.NodeID(sc.table.Entries[idx].BuildOwner())
		lower, upper, err := sc.table.SplitEntry(idx, int32(w))
		if err != nil {
			// The entry narrowed below splittability since Next looked at
			// it; cannot happen because Next checks width, but be safe.
			sc.potential = append([]rt.NodeID{w}, sc.potential...)
			return
		}
		sc.splitter.Issued()
		sc.pendingSplit = pendingSplitState{active: true, victim: victim, newNode: w}
		sc.working = append(sc.working, w)
		sc.footprints[w] = upper
		sc.splits++
		sc.events = append(sc.events, ExpansionEvent{Kind: "split", Node: victim, Peer: w, Range: upper})
		env.ChargeCPU(sc.cfg.Cost.ChunkOverheadNs)
		env.Send(w, &joinInit{Range: upper, Table: sc.table.Clone()})
		env.Send(victim, &splitOrder{Lower: lower, Upper: upper, NewNode: w, Table: sc.table.Clone()})
		sc.broadcastRoute(env, victim, w)
	}
}

// nackQueue fails every queued overflow report: the split protocol cannot
// serve them (no splittable entry, or no recruit). With the spill rung
// armed the nodes spill instead of running over budget.
func (sc *schedActor) nackQueue(env rt.Env) {
	for _, n := range sc.overflowQueue {
		delete(sc.queuedNode, n)
		if sc.cfg.SpillEnabled {
			sc.sendSpillOrder(env, n, 0)
		} else {
			env.Send(n, &memFullNack{})
		}
	}
	sc.overflowQueue = nil
}

// broadcastRoute ships the updated routing table to every data source and
// every working join node except the ones that already received it inside
// their protocol message.
func (sc *schedActor) broadcastRoute(env rt.Env, except ...rt.NodeID) {
	skip := make(map[rt.NodeID]bool, len(except))
	for _, e := range except {
		skip[e] = true
	}
	for i := 0; i < sc.cfg.Sources; i++ {
		env.ChargeCPU(sc.cfg.Cost.ChunkOverheadNs / 4)
		env.Send(sc.cfg.sourceID(i), &routeUpdate{Table: sc.table.Clone()})
	}
	// Full nodes remain on the working list (they rejoin for the probe
	// phase), so one pass covers everyone.
	for _, n := range sc.working {
		if skip[n] {
			continue
		}
		env.ChargeCPU(sc.cfg.Cost.ChunkOverheadNs / 4)
		env.Send(n, &routeUpdate{Table: sc.table.Clone()})
	}
}

// startReshuffle begins the hybrid algorithm's reshuffling step: collect
// per-position counts from every member of every replicated range.
func (sc *schedActor) startReshuffle(env rt.Env) {
	sc.pendingGroups = make(map[int]*groupState)
	for _, e := range sc.table.Entries {
		if len(e.Owners) < 2 {
			continue
		}
		g := &groupState{rng: e.Range, counts: make([]int64, e.Range.Width())}
		for _, o := range e.Owners {
			g.members = append(g.members, rt.NodeID(o))
		}
		sc.pendingGroups[e.Range.Lo] = g
		for _, member := range g.members {
			env.ChargeCPU(sc.cfg.Cost.ChunkOverheadNs / 4)
			env.Send(member, &countReq{Range: e.Range})
		}
	}
}

// onCounts folds one member's histogram into its group's global sum; when
// the group is complete, the range is repartitioned and the members are
// told to redistribute.
func (sc *schedActor) onCounts(env rt.Env, from rt.NodeID, msg *countResp) {
	g, ok := sc.pendingGroups[msg.Range.Lo]
	if !ok {
		return
	}
	for i, c := range msg.Counts {
		g.counts[i] += c
	}
	g.got++
	if g.got < len(g.members) {
		return
	}
	delete(sc.pendingGroups, msg.Range.Lo)
	sc.finishGroup(env, g)
}

// finishGroup cuts the group's range into contiguous sub-ranges of equal
// tuple mass, updates the master table, and instructs the members.
func (sc *schedActor) finishGroup(env rt.Env, g *groupState) {
	offsets := partitionOffsets(g.counts, len(g.members))
	sc.events = append(sc.events, ExpansionEvent{Kind: "reshuffle", Node: g.members[0], Peer: rt.NoNode, Range: g.rng})
	env.ChargeCPU(int64(len(g.counts)) * 3) // greedy pass over the histogram
	parts := len(offsets) - 1
	entries := make([]hashfn.Entry, parts)
	for k := 0; k < parts; k++ {
		entries[k] = hashfn.Entry{
			Range:  hashfn.Range{Lo: g.rng.Lo + offsets[k], Hi: g.rng.Lo + offsets[k+1]},
			Owners: []int32{int32(g.members[k])},
		}
	}
	idx := sc.table.EntryIndexOf(g.rng.Lo)
	if err := sc.table.ReplaceEntries(idx, entries); err != nil {
		// Table invariants guarantee this cannot happen; losing the group
		// would deadlock the run, so fail loudly.
		panic("core: reshuffle produced a non-tiling partition: " + err.Error())
	}
	for k, member := range g.members {
		keep := hashfn.Range{} // members beyond the partition count hold nothing
		if k < parts {
			keep = entries[k].Range
		}
		env.ChargeCPU(sc.cfg.Cost.ChunkOverheadNs / 4)
		env.Send(member, &reshuffleAssign{
			Keep:         keep,
			GroupEntries: entries,
			Table:        sc.table.Clone(),
		})
		delete(sc.fullSet, member)
	}
	sc.broadcastRoute(env, g.members...)
}

// startDetect begins heavy-hitter detection: gather the global
// per-position histogram from every working node. Runs on a drained
// cluster (after build and any reshuffle), so the histograms are final.
func (sc *schedActor) startDetect(env rt.Env) {
	sc.phase = phaseDetect
	full := hashfn.Range{Lo: 0, Hi: sc.cfg.Space.Positions()}
	sc.detectCounts = make([]int64, full.Width())
	sc.detectWant = len(sc.working)
	for _, n := range sc.working {
		env.ChargeCPU(sc.cfg.Cost.ChunkOverheadNs / 4)
		env.Send(n, &countReq{Range: full})
	}
}

// onDetectCounts folds one node's full-space histogram into the global
// sum; when complete, it reduces the histogram to candidate positions
// (sound pruning: all tuples of one key share one position, so key mass
// never exceeds position mass) and asks every node for per-key counts
// there. No candidates means no possible heavy key — detection ends.
func (sc *schedActor) onDetectCounts(env rt.Env, msg *countResp) {
	for i, c := range msg.Counts {
		sc.detectCounts[i] += c
	}
	sc.detectWant--
	if sc.detectWant > 0 {
		return
	}
	positions := hashtable.HeavyPositions(sc.detectCounts, 0, heavyMinMass(&sc.cfg))
	sc.detectCounts = nil
	if len(positions) == 0 {
		return
	}
	sc.keyWant = len(sc.working)
	sc.keyCounts = make(map[uint64]int64)
	sc.taintedParts = make(map[int]bool)
	for _, n := range sc.working {
		env.ChargeCPU(sc.cfg.Cost.ChunkOverheadNs / 4)
		env.Send(n, &keyCountReq{Positions: positions})
	}
}

// onKeyCounts folds one node's per-key counts and spill taint into the
// global view; when complete, the keys above threshold (minus the
// spill-tainted ones) become the heavy set, broadcast to every source
// and node as a heavyAssign.
func (sc *schedActor) onKeyCounts(env rt.Env, msg *keyCountResp) {
	if sc.phase != phaseDetect || sc.keyWant == 0 {
		return
	}
	for i, k := range msg.Keys {
		sc.keyCounts[k] += msg.Counts[i]
	}
	for _, p := range msg.SpilledParts {
		sc.taintedParts[int(p)] = true
	}
	sc.keyWant--
	if sc.keyWant > 0 {
		return
	}
	sc.finishDetect(env)
}

// finishDetect computes the final heavy set and distributes it.
func (sc *schedActor) finishDetect(env rt.Env) {
	min := heavyMinMass(&sc.cfg)
	candidates := make([]uint64, 0, len(sc.keyCounts))
	for k := range sc.keyCounts {
		candidates = append(candidates, k)
	}
	sort.Slice(candidates, func(i, j int) bool { return candidates[i] < candidates[j] })
	var heavy []uint64
	for _, k := range candidates {
		if sc.keyCounts[k] < min {
			continue
		}
		if len(sc.taintedParts) > 0 && sc.taintedParts[spill.PartitionOf(k, spillPartitions)] {
			continue // rung 4 owns this key's probes; leave routing alone
		}
		heavy = append(heavy, k)
		p := sc.cfg.Space.PositionOf(k)
		idx := sc.table.EntryIndexOf(p)
		sc.events = append(sc.events, ExpansionEvent{
			Kind:  "heavy",
			Node:  rt.NodeID(sc.table.BuildOwnerOf(p)),
			Peer:  rt.NoNode,
			Range: sc.table.Entries[idx].Range,
			Bytes: sc.keyCounts[k],
		})
	}
	sc.keyCounts = nil
	sc.taintedParts = nil
	sc.heavyKeys = heavy
	if len(heavy) == 0 {
		return
	}
	for i := 0; i < sc.cfg.Sources; i++ {
		env.ChargeCPU(sc.cfg.Cost.ChunkOverheadNs / 4)
		env.Send(sc.cfg.sourceID(i), &heavyAssign{Keys: append([]uint64(nil), heavy...)})
	}
	for _, n := range sc.working {
		env.ChargeCPU(sc.cfg.Cost.ChunkOverheadNs / 4)
		env.Send(n, &heavyAssign{Keys: append([]uint64(nil), heavy...)})
	}
}

// onNodeDead handles a declared worker death. During the build phase the
// failure becomes just another trigger for the expansion protocol: the lost
// ranges are rebuilt on a replacement node and re-streamed from the
// deterministic sources (§4.1.1's recruitment policy, reused for recovery).
// Outside the build phase — or on the out-of-core baseline, whose state
// lives in spill files that cannot be re-streamed into — the run degrades
// to the surviving replicas instead.
func (sc *schedActor) onNodeDead(env rt.Env, node rt.NodeID) {
	if sc.deadNodes[node] {
		return
	}
	sc.deadNodes[node] = true
	sc.nodesLost++
	sc.table.MarkDead(int32(node))

	// A potential node dying costs nothing but spare capacity.
	for i, p := range sc.potential {
		if p == node {
			sc.potential = append(sc.potential[:i], sc.potential[i+1:]...)
			return
		}
	}

	removeID(&sc.working, node)
	delete(sc.fullSet, node)
	delete(sc.probeFullSet, node)
	if sc.queuedNode[node] {
		delete(sc.queuedNode, node)
		removeID(&sc.overflowQueue, node)
	}

	// Release the split barrier if the dead node was a split party; the
	// affected ranges fall inside the victim's footprint and are rebuilt
	// below.
	if sc.pendingSplit.active && (sc.pendingSplit.victim == node || sc.pendingSplit.newNode == node) {
		sc.pendingSplit = pendingSplitState{}
		sc.splitter.Completed()
	}

	if sc.phase != phaseBuild || sc.cfg.Algorithm == OutOfCore {
		sc.degrade(env)
		return
	}

	if sc.recoveryStartNs < 0 {
		sc.recoveryStartNs = env.Now()
	}
	// Rebuild the node's entire activation footprint, not just its current
	// entry: chunks addressed to the node under stale tables (strays it
	// would have re-forwarded, split migrations toward it) died with it,
	// and those tuples can lie anywhere the node ever owned. Splits keep
	// entry ranges within their ancestor range, so footprint overlap is
	// always whole entries.
	footprint, haveFp := sc.footprints[node]
	recovered := false
	for idx := 0; idx < len(sc.table.Entries); {
		e := sc.table.Entries[idx]
		if (haveFp && e.Range.Lo < footprint.Hi && footprint.Lo < e.Range.Hi) ||
			ownsEntry(e, int32(node)) {
			before := len(sc.table.Entries)
			if sc.recoverEntry(env, idx) {
				recovered = true
			}
			if len(sc.table.Entries) < before {
				continue // entry merged away; idx now holds its successor
			}
		}
		idx++
	}
	if recovered {
		sc.nodesRecovered++
	}
	sc.broadcastRoute(env)
	sc.maybeFinishRecovery(env)
	sc.issueSplits(env) // the freed barrier may unblock queued overflows
}

// recoverEntry rebuilds the table entry at idx after a failure invalidated
// its contents. Which tuples each chain member held is timing-dependent, so
// exact recovery purges every surviving copy and re-streams the entire
// range from the deterministic sources to a single fresh owner. The owner
// is the newest surviving replica that is not full (free capacity already
// in the chain — including a split recipient whose migration sender died),
// otherwise a recruit from the potential list (largest memory first,
// §4.1.1), otherwise a full survivor restarted empty. It returns false when
// the range had a sole owner and no spare node exists: that data is lost.
func (sc *schedActor) recoverEntry(env rt.Env, idx int) bool {
	rng := sc.table.Entries[idx].Range
	var survivors []rt.NodeID
	for _, o := range sc.table.Entries[idx].Owners {
		if n := rt.NodeID(o); !sc.deadNodes[n] {
			survivors = append(survivors, n)
		}
	}
	newOwner := rt.NoNode
	fresh := false
	for i := len(survivors) - 1; i >= 0; i-- {
		if !sc.fullSet[survivors[i]] {
			newOwner = survivors[i]
			break
		}
	}
	if newOwner == rt.NoNode {
		if w, ok := sc.pickPotential(); ok {
			newOwner = w
			fresh = true
			sc.working = append(sc.working, w)
		} else if len(survivors) > 0 {
			newOwner = survivors[len(survivors)-1]
			delete(sc.fullSet, newOwner) // restarts empty; may overflow afresh
		} else if sc.mergeOrphanEntry(env, idx) {
			return true
		} else {
			sc.degraded = true
			sc.recoveryFailed = true
			return false
		}
	}

	sc.events = append(sc.events, ExpansionEvent{Kind: "recover", Node: newOwner, Peer: rt.NoNode, Range: rng})
	sc.table.SetSoleOwner(idx, int32(newOwner))
	// Every copy of the range routed under an older table — in flight,
	// buffered at a retired node, or mid-migration — must be discarded, or
	// it would duplicate the re-streamed authoritative copies.
	sc.table.AddBarrier(hashfn.Barrier{Range: rng, MinVersion: sc.table.Version})

	for _, s := range survivors {
		if s == newOwner {
			continue
		}
		env.ChargeCPU(sc.cfg.Cost.ChunkOverheadNs / 4)
		env.Send(s, &purgeRange{Range: rng, NewOwner: newOwner, Table: sc.table.Clone()})
	}
	env.ChargeCPU(sc.cfg.Cost.ChunkOverheadNs)
	if fresh {
		env.Send(newOwner, &joinInit{Range: rng, Table: sc.table.Clone()})
	} else {
		env.Send(newOwner, &purgeRange{Range: rng, NewOwner: newOwner, Table: sc.table.Clone()})
	}
	for i := 0; i < sc.cfg.Sources; i++ {
		env.ChargeCPU(sc.cfg.Cost.ChunkOverheadNs / 4)
		env.Send(sc.cfg.sourceID(i), &replayRange{Range: rng, Table: sc.table.Clone()})
	}
	sc.pendingReplays += sc.cfg.Sources
	return true
}

// mergeOrphanEntry folds the entry at idx — whose chain died entirely with
// no spare node left to recruit — into an adjacent entry that still has a
// live owner, then re-streams the orphaned range there. The absorbing
// node's routing table says the range is now its own, so re-streamed
// tuples land correctly even before its local range catches up, and the
// re-stream barrier drops any stale in-flight copies. Returns false when
// no adjacent entry has a live owner (the whole table is dead).
func (sc *schedActor) mergeOrphanEntry(env rt.Env, idx int) bool {
	rng := sc.table.Entries[idx].Range
	into := -1
	// Prefer the left neighbour: entries are recovered left to right, so it
	// has already been rebuilt this round; absorbing rightward would make
	// the grown entry reprocess (correct — the barriers discard the first
	// replay — but wasteful).
	for _, n := range []int{idx - 1, idx + 1} {
		if n < 0 || n >= len(sc.table.Entries) || into >= 0 {
			continue
		}
		for _, o := range sc.table.Entries[n].Owners {
			if !sc.deadNodes[rt.NodeID(o)] {
				into = n
				break
			}
		}
	}
	if into < 0 {
		return false
	}
	if err := sc.table.MergeEntry(idx, into); err != nil {
		panic("core: " + err.Error()) // into is a neighbour by construction
	}
	if into > idx {
		into--
	}
	// The absorbed span joins each live owner's footprint so a later death
	// of the absorbing node rebuilds it too.
	merged := sc.table.Entries[into]
	for _, o := range merged.Owners {
		n := rt.NodeID(o)
		if sc.deadNodes[n] {
			continue
		}
		f, ok := sc.footprints[n]
		if !ok {
			f = merged.Range
		}
		if rng.Lo < f.Lo {
			f.Lo = rng.Lo
		}
		if rng.Hi > f.Hi {
			f.Hi = rng.Hi
		}
		sc.footprints[n] = f
	}
	sc.table.AddBarrier(hashfn.Barrier{Range: rng, MinVersion: sc.table.Version})
	for i := 0; i < sc.cfg.Sources; i++ {
		env.ChargeCPU(sc.cfg.Cost.ChunkOverheadNs / 4)
		env.Send(sc.cfg.sourceID(i), &replayRange{Range: rng, Table: sc.table.Clone()})
	}
	sc.pendingReplays += sc.cfg.Sources
	return true
}

// degrade handles a death that cannot be recovered exactly: replicated
// ranges fall back to their surviving replicas (the replication and hybrid
// algorithms' free partial fault tolerance), a sole-owner range is lost
// outright, and the run is flagged so conservation checks are skipped.
func (sc *schedActor) degrade(env rt.Env) {
	if sc.phase == phaseProbe {
		sc.degradedProbeRecoveries++
	}
	sc.degraded = true
	for _, node := range sortedDeadNodes(sc.deadNodes) {
		sc.table.RemoveOwner(int32(node))
		for _, e := range sc.table.Entries {
			for _, o := range e.Owners {
				if rt.NodeID(o) == node {
					sc.recoveryFailed = true // sole owner: range data is gone
				}
			}
		}
		// Reshuffle groups must neither wait for nor assign ranges to the
		// dead member.
		for _, lo := range sortedGroupKeys(sc.pendingGroups) {
			g, ok := sc.pendingGroups[lo]
			if !ok {
				continue
			}
			for i, m := range g.members {
				if m == node {
					g.members = append(g.members[:i], g.members[i+1:]...)
					break
				}
			}
			if len(g.members) == 0 {
				delete(sc.pendingGroups, lo)
				continue
			}
			if g.got >= len(g.members) {
				delete(sc.pendingGroups, lo)
				sc.finishGroup(env, g)
			}
		}
	}
	sc.broadcastRoute(env)
}

// maybeFinishRecovery closes the recovery-latency clock once every source
// has acknowledged its replay. Re-streamed chunks may still be draining
// through the transport; the metric measures until regeneration completed.
func (sc *schedActor) maybeFinishRecovery(env rt.Env) {
	if sc.recoveryStartNs < 0 || sc.pendingReplays > 0 {
		return
	}
	sc.recoveryNs += env.Now() - sc.recoveryStartNs
	sc.recoveryStartNs = -1
}

func ownsEntry(e hashfn.Entry, node int32) bool {
	for _, o := range e.Owners {
		if o == node {
			return true
		}
	}
	return false
}

func removeID(list *[]rt.NodeID, id rt.NodeID) {
	for i, n := range *list {
		if n == id {
			*list = append((*list)[:i], (*list)[i+1:]...)
			return
		}
	}
}
