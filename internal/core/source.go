package core

import (
	"ehjoin/internal/datagen"
	"ehjoin/internal/hashfn"
	rt "ehjoin/internal/runtime"
	"ehjoin/internal/tuple"
)

// relationGen generates one relation's tuples by index: Fill writes tuples
// lo, lo+1, ... into dst, a whole sub-batch per call. datagen.Gen,
// datagen.ProbeGen, and datagen.Linked all satisfy it.
type relationGen interface {
	Fill(lo int64, dst []tuple.Tuple)
}

// genBatch is the source loop's sub-batch: its tuples (8 KB) and their
// entry indexes (2 KB) stay L1-resident across the generate, index and
// scatter passes.
const genBatch = 512

// sourceActor is one data source (§4.1.2). It generates its contiguous
// slice of each relation on the fly, keeps a chunk buffer per join process,
// routes tuples by their hash position through the current routing table,
// and ships full chunks under a per-destination flow-control window
// (modelling the bounded buffers of a real cluster transport).
type sourceActor struct {
	cfg   Config
	id    rt.NodeID
	index int // which source this is

	build relationGen
	probe relationGen

	table             *hashfn.Table
	phase             tuple.Relation // which relation is streaming
	started, finished bool

	slice datagen.Slice
	next  int64

	builders map[rt.NodeID]*tuple.Builder
	// free restocks the builders with the chunks a serialising transport
	// released after encoding them; one window's worth is the most that can
	// come back before the next cut.
	free *tuple.FreeList
	// entryDests memoises destsOf per routing-table entry, so the per-tuple
	// path indexes a slice instead of hashing a node id. It is dropped
	// whenever the table, the phase or the builder set changes.
	entryDests [][]destBuilder
	credits    map[rt.NodeID]int
	queue      map[rt.NodeID][]queuedChunk
	stalled    bool // generation paused on backpressure
	doneSent   bool

	// Heavy-key routing state (DESIGN.md §11): the detected heavy set, the
	// per-key round-robin counters spreading each heavy key's probe tuples
	// across its serving group, and a per-key group memo invalidated on
	// every routing-table change.
	heavySet    map[uint64]bool
	heavyRR     map[uint64]int
	heavyGroups map[uint64][]int32

	stats sourceStats // the record statsReq reports, counted into directly

	batch [genBatch]tuple.Tuple // the sub-batch being generated
	idx   [genBatch]int32       // its tuples' routing-table entries
	// uncharged counts the tuples generated since the last GenNs charge.
	// enqueue settles it before a chunk can leave, so every Send happens at
	// the virtual instant a per-tuple charge would have reached.
	uncharged int64
}

// destBuilder is one destination of a routing-table entry's tuples and the
// chunk builder collecting them.
type destBuilder struct {
	dest rt.NodeID
	b    *tuple.Builder
}

// queuedChunk is an undelivered chunk with the routing-table version its
// tuples were routed under, so failure-recovery barriers can tell stale
// copies from re-streamed authoritative ones regardless of when the chunk
// finally leaves the queue.
type queuedChunk struct {
	c *tuple.Chunk
	v uint64
}

func newSource(cfg Config, index int, build, probe relationGen) *sourceActor {
	return &sourceActor{
		cfg:      cfg,
		id:       cfg.sourceID(index),
		index:    index,
		build:    build,
		probe:    probe,
		builders: make(map[rt.NodeID]*tuple.Builder),
		free:     tuple.NewFreeList(cfg.MaxCreditWindow),
		credits:  make(map[rt.NodeID]int),
		queue:    make(map[rt.NodeID][]queuedChunk),
	}
}

// Receive implements runtime.Actor.
func (s *sourceActor) Receive(env rt.Env, from rt.NodeID, m rt.Message) {
	switch msg := m.(type) {
	case *startBuild:
		s.beginPhase(env, tuple.RelR, msg.Table)
	case *startProbe:
		s.beginPhase(env, tuple.RelS, msg.Table)
	case *genStep:
		s.step(env)
	case *chunkAck:
		s.credit(env, from, 1+int(msg.Adjust))
	case *routeUpdate:
		s.adoptTable(env, msg.Table)
	case *replayRange:
		s.onReplay(env, msg)
	case *heavyAssign:
		s.heavySet = make(map[uint64]bool, len(msg.Keys))
		for _, k := range msg.Keys {
			s.heavySet[k] = true
		}
		s.heavyRR = make(map[uint64]int, len(msg.Keys))
		s.heavyGroups = nil
	case *statsReq:
		st := s.stats
		env.Send(from, &st)
	}
}

func (s *sourceActor) beginPhase(env rt.Env, rel tuple.Relation, table *hashfn.Table) {
	s.adoptTable(env, table)
	s.phase = rel
	s.started = true
	s.finished = false
	s.doneSent = false
	s.stalled = false
	s.builders = make(map[rt.NodeID]*tuple.Builder)
	s.entryDests = nil
	var n int64
	if rel == tuple.RelR {
		n = s.cfg.Build.Tuples
	} else {
		n = s.cfg.Probe.Tuples
	}
	s.slice = datagen.SliceFor(n, s.cfg.Sources, s.index)
	s.next = s.slice.Lo
	env.Send(s.id, &genStep{})
}

// step generates up to burstChunks chunks' worth of tuples, then reschedules
// itself (or stalls until credits return). It runs in sub-batches of
// genBatch tuples, each in three passes: generate the batch, look up every
// tuple's routing-table entry, then scatter the tuples into their
// destinations' chunk builders.
func (s *sourceActor) step(env rt.Env) {
	if !s.started || s.finished {
		return
	}
	gen, heavy := s.build, false
	if s.phase != tuple.RelR {
		gen, heavy = s.probe, s.heavySet != nil
	}
	end := min(s.next+int64(burstChunks*s.cfg.ChunkTuples), s.slice.Hi)
	for s.next < end {
		batch := s.batch[:min(genBatch, end-s.next)]
		gen.Fill(s.next, batch)
		s.table.EntryIndexesOf(s.cfg.Space, batch, s.idx[:])
		for k, t := range batch {
			s.uncharged++
			if heavy && s.routeHeavy(env, t) {
				continue
			}
			dests := s.destsOf(int(s.idx[k]))
			for _, d := range dests {
				if c := d.b.Add(t); c != nil {
					s.enqueue(env, d.dest, c)
				}
			}
			s.stats.ProbeExtraCopies += int64(len(dests) - 1) // a build tuple has one destination
		}
		s.chargeGen(env)
		s.next += int64(len(batch))
	}
	if s.next >= s.slice.Hi {
		s.finished = true
		for _, dest := range sortedNodeIDs(s.builders) {
			if c := s.builders[dest].Flush(); c != nil {
				s.enqueue(env, dest, c)
			}
		}
		s.maybeDone(env)
		return
	}
	if s.backpressured() {
		s.stalled = true
		s.stats.CreditStalls++
		return
	}
	env.Send(s.id, &genStep{})
}

// chargeGen charges the generation of the tuples counted in uncharged.
func (s *sourceActor) chargeGen(env rt.Env) {
	if s.uncharged > 0 {
		env.ChargeCPU(s.cfg.Cost.GenNs * s.uncharged)
		s.uncharged = 0
	}
}

// backpressured reports whether any destination has accumulated a queue of
// undeliverable chunks, in which case the source pauses generation — the
// bounded-buffer behaviour of a real data source.
func (s *sourceActor) backpressured() bool {
	for _, q := range s.queue {
		if len(q) >= 2 {
			return true
		}
	}
	return false
}

// routeHeavy routes a probe tuple of a heavy key and reports whether it
// did. The tuple goes to exactly one member of the key's serving group,
// round-robin — every member holds the key's complete build set after the
// replication round, so one copy finds exactly the matches a broadcast
// would have. Everything else broadcasts to its range's probe owners.
func (s *sourceActor) routeHeavy(env rt.Env, t tuple.Tuple) bool {
	if !s.heavySet[t.Key] {
		return false
	}
	group, ok := s.heavyGroups[t.Key]
	if !ok {
		group = heavyGroup(s.table, s.cfg.Space, t.Key)
		if s.heavyGroups == nil {
			s.heavyGroups = make(map[uint64][]int32)
		}
		s.heavyGroups[t.Key] = group
	}
	if len(group) == 0 {
		return false
	}
	i := s.heavyRR[t.Key]
	s.heavyRR[t.Key] = i + 1
	dest := rt.NodeID(group[i%len(group)])
	if c := s.builderFor(dest).Add(t); c != nil {
		s.enqueue(env, dest, c)
	}
	return true
}

// destsOf returns where the tuples of routing-table entry idx go in the
// current phase — to the entry's build owner, or to every probe owner —
// with their chunk builders.
func (s *sourceActor) destsOf(idx int) []destBuilder {
	if s.entryDests != nil && s.entryDests[idx] != nil {
		return s.entryDests[idx]
	}
	return s.newDests(idx)
}

// newDests is destsOf on the first lookup of entry idx since the memo was
// dropped; it fills the memo.
func (s *sourceActor) newDests(idx int) []destBuilder {
	if s.entryDests == nil {
		s.entryDests = make([][]destBuilder, len(s.table.Entries))
	}
	owners := s.table.Entries[idx].Owners
	if s.phase == tuple.RelR {
		owners = owners[len(owners)-1:]
	}
	ds := make([]destBuilder, len(owners))
	for i, o := range owners {
		ds[i] = destBuilder{rt.NodeID(o), s.builderFor(rt.NodeID(o))}
	}
	s.entryDests[idx] = ds
	return ds
}

// builderFor returns dest's chunk builder for the streaming relation,
// creating it on first use.
func (s *sourceActor) builderFor(dest rt.NodeID) *tuple.Builder {
	b := s.builders[dest]
	if b == nil {
		layout := s.cfg.Build.Layout
		if s.phase != tuple.RelR {
			layout = s.cfg.Probe.Layout
		}
		b = s.free.NewBuilder(s.phase, layout, s.cfg.ChunkTuples)
		s.builders[dest] = b
	}
	return b
}

func (s *sourceActor) enqueue(env rt.Env, dest rt.NodeID, c *tuple.Chunk) {
	s.chargeGen(env)
	var v uint64
	if s.table != nil {
		v = s.table.Version
	}
	s.queue[dest] = append(s.queue[dest], queuedChunk{c: c, v: v})
	s.trySend(env, dest)
}

func (s *sourceActor) trySend(env rt.Env, dest rt.NodeID) {
	if s.table != nil && s.table.IsDead(int32(dest)) {
		// The destination died and no replacement took over its range (the
		// environment was exhausted): drop the traffic instead of stalling
		// generation forever behind credits that can never return.
		delete(s.queue, dest)
		delete(s.credits, dest)
		return
	}
	cr, ok := s.credits[dest]
	if !ok {
		cr = creditWindow
	}
	q, sent := s.queue[dest], 0
	for ; cr > 0 && sent < len(q); sent++ {
		cr--
		env.ChargeCPU(s.cfg.Cost.ChunkOverheadNs)
		env.Send(dest, &dataChunk{Chunk: q[sent].c, Origin: s.id, Version: q[sent].v})
		s.stats.ChunksSent++
	}
	s.credits[dest] = cr
	// The rest moves to the front, so a drained queue keeps its array for
	// the next enqueue, and the array must not keep a sent chunk alive.
	n := copy(q, q[sent:])
	clear(q[n:])
	s.queue[dest] = q[:n]
}

// adoptTable replaces the routing table when the version increases and
// applies its failure-recovery side effects: flushing builders before a new
// re-stream barrier (so every chunk's version stamp reflects the table its
// tuples were actually routed under), dropping queued traffic for dead
// destinations, and resuming generation if that traffic was the cause of a
// backpressure stall.
func (s *sourceActor) adoptTable(env rt.Env, t *hashfn.Table) {
	if t == nil || (s.table != nil && t.Version <= s.table.Version) {
		return
	}
	if s.table != nil && len(t.Barriers) > len(s.table.Barriers) {
		for _, dest := range sortedNodeIDs(s.builders) {
			if c := s.builders[dest].Flush(); c != nil {
				s.enqueue(env, dest, c) // stamped with the pre-barrier version
			}
		}
		s.builders = make(map[rt.NodeID]*tuple.Builder)
	}
	t.TakeIndex(s.table)
	s.table = t
	s.heavyGroups = nil // groups derive from the table; recompute lazily
	s.entryDests = nil  // so do the entries' destinations, and builders change below
	for _, d := range t.Dead {
		dest := rt.NodeID(d)
		delete(s.queue, dest)
		delete(s.credits, dest)
		delete(s.builders, dest)
	}
	if s.stalled && !s.backpressured() && !s.finished {
		s.stalled = false
		env.Send(s.id, &genStep{})
	}
	s.maybeDone(env)
}

// onReplay re-generates the already-streamed prefix of this source's build
// slice and re-sends every tuple hashing into the lost range. Generation is
// counter-based and deterministic, so the replay reproduces the original
// tuples exactly; routing under the post-recovery table stamps them at or
// above the barrier version, making them the range's authoritative copies.
func (s *sourceActor) onReplay(env rt.Env, msg *replayRange) {
	s.adoptTable(env, msg.Table)
	slice := datagen.SliceFor(s.cfg.Build.Tuples, s.cfg.Sources, s.index)
	upTo := slice.Lo // nothing streamed yet
	if s.started {
		if s.phase != tuple.RelR || s.finished {
			upTo = slice.Hi // the build relation was fully streamed
		} else {
			upTo = s.next
		}
	}
	var tuples, chunks int64
	builders := make(map[rt.NodeID]*tuple.Builder)
	for lo := slice.Lo; lo < upTo; {
		batch := s.batch[:min(genBatch, upTo-lo)]
		s.build.Fill(lo, batch)
		for _, t := range batch {
			s.uncharged++
			p := s.cfg.Space.PositionOf(t.Key)
			if !msg.Range.Contains(p) {
				continue
			}
			tuples++
			dest := rt.NodeID(s.table.BuildOwnerOf(p))
			b := builders[dest]
			if b == nil {
				b = s.free.NewBuilder(tuple.RelR, s.cfg.Build.Layout, s.cfg.ChunkTuples)
				builders[dest] = b
			}
			if c := b.Add(t); c != nil {
				chunks++
				s.enqueue(env, dest, c)
			}
		}
		s.chargeGen(env)
		lo += int64(len(batch))
	}
	for _, dest := range sortedNodeIDs(builders) {
		if c := builders[dest].Flush(); c != nil {
			chunks++
			s.enqueue(env, dest, c)
		}
	}
	env.Send(s.cfg.schedulerID(), &replayDone{Chunks: chunks, Tuples: tuples})
}

// credit banks what one chunkAck from dest grants: the consumed chunk's
// credit, plus or minus the node's adjustment of its window.
func (s *sourceActor) credit(env rt.Env, dest rt.NodeID, grant int) {
	if _, ok := s.credits[dest]; !ok {
		s.credits[dest] = creditWindow
	}
	s.credits[dest] += grant
	s.trySend(env, dest)
	if s.stalled && !s.backpressured() && !s.finished {
		s.stalled = false
		env.Send(s.id, &genStep{})
	}
	s.maybeDone(env)
}

// maybeDone notifies the scheduler once the slice is fully generated and
// every buffered chunk has been shipped.
func (s *sourceActor) maybeDone(env rt.Env) {
	if !s.finished || s.doneSent {
		return
	}
	for _, q := range s.queue {
		if len(q) > 0 {
			return
		}
	}
	s.doneSent = true
	env.Send(s.cfg.schedulerID(), &sourcePhaseDone{Rel: s.phase, Chunks: s.stats.ChunksSent})
}
