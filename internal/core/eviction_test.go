package core

import (
	"math/rand"
	"testing"

	"ehjoin/internal/hashfn"
	rt "ehjoin/internal/runtime"
	"ehjoin/internal/tuple"
)

// evictionNode is a join node owning the whole position space, budgeted for
// 200 tuples, with the tuples it has been sent so far.
type evictionNode struct {
	cfg   Config
	j     *joinActor
	env   *scriptEnv
	table *hashfn.Table
	rng   *rand.Rand
	sent  []tuple.Tuple // every build tuple delivered and not migrated away
}

func newEvictionNode(t *testing.T, alg Algorithm, seed int64) *evictionNode {
	t.Helper()
	cfg := actorConfig(alg)
	cfg.SpillEnabled = true
	cfg.MemoryBudget = 200 * int64(cfg.Build.Layout.LogicalSize())
	n := &evictionNode{cfg: cfg, j: newJoin(cfg, cfg.joinID(0)), env: &scriptEnv{}, rng: rand.New(rand.NewSource(seed))}
	n.table, _ = hashfn.NewTable(cfg.Space, []int32{int32(cfg.joinID(0))})
	n.j.Receive(n.env, rt.NoNode, &joinInit{Range: n.table.Entries[0].Range, Table: n.table})
	return n
}

// build delivers count build tuples with random distinct-enough keys.
func (n *evictionNode) build(count int) {
	c := &tuple.Chunk{Rel: tuple.RelR, Layout: n.cfg.Build.Layout}
	for i := 0; i < count; i++ {
		c.Tuples = append(c.Tuples, tuple.Tuple{Index: uint64(len(n.sent) + i), Key: n.rng.Uint64()})
	}
	n.sent = append(n.sent, c.Tuples...)
	src := n.cfg.sourceID(0)
	n.j.Receive(n.env, src, &dataChunk{Chunk: c, Origin: src})
}

// spillTwice leaves the node with evictions pending from two orders and, in
// the rung, tuples that streamed to the first order's victims in between —
// so a flush has to put what it extracts ahead of them.
func (n *evictionNode) spillTwice(t *testing.T) {
	t.Helper()
	n.build(300)
	n.j.Receive(n.env, rt.NoNode, &spillOrder{})
	n.build(150)
	n.j.Receive(n.env, rt.NoNode, &spillOrder{})
	if n.j.pending == 0 || n.j.spillRung.StoredBuildTuples() == 0 {
		t.Fatalf("scenario is vacuous: %d tuples pending, %d streamed", n.j.pending, n.j.spillRung.StoredBuildTuples())
	}
	n.env.take()
}

// inRange counts the delivered tuples whose position lies in r.
func (n *evictionNode) inRange(r hashfn.Range) int64 {
	var c int64
	for _, tp := range n.sent {
		if r.Contains(n.cfg.Space.PositionOf(tp.Key)) {
			c++
		}
	}
	return c
}

// dropRange forgets the delivered tuples of r (they were migrated or purged).
func (n *evictionNode) dropRange(r hashfn.Range) {
	kept := n.sent[:0]
	for _, tp := range n.sent {
		if !r.Contains(n.cfg.Space.PositionOf(tp.Key)) {
			kept = append(kept, tp)
		}
	}
	n.sent = kept
}

// check holds the eviction ledger against a fresh walk of the table: the
// node stores every delivered tuple once, the incremental per-partition
// counts are what a recount finds, pending partitions are marked spilled and
// live ones are not, and live bytes are the tuples that are not pending.
func (n *evictionNode) check(t *testing.T, when string) {
	t.Helper()
	j := n.j
	if got, want := j.storedBuildTuples(), int64(len(n.sent)); got != want {
		t.Fatalf("%s: node stores %d build tuples, %d were delivered", when, got, want)
	}
	if j.spillRung == nil {
		return
	}
	recount := make([]int64, j.spillRung.Parts())
	j.table.ForEach(func(tp tuple.Tuple) { recount[j.spillRung.PartOf(tp.Key)]++ })
	var live, pending int64
	for p, c := range recount {
		if c != j.partLive[p]+j.pendingN[p] {
			t.Fatalf("%s: partition %d holds %d tuples in the table, counted %d live + %d pending",
				when, p, c, j.partLive[p], j.pendingN[p])
		}
		if j.partLive[p] > 0 && j.pendingN[p] > 0 {
			t.Fatalf("%s: partition %d counts %d live and %d pending tuples at once", when, p, j.partLive[p], j.pendingN[p])
		}
		if spilled := j.spillRung.Spilled(p); spilled != (j.partLive[p] == 0) && c > 0 {
			t.Fatalf("%s: partition %d spilled=%v with %d live and %d pending tuples",
				when, p, spilled, j.partLive[p], j.pendingN[p])
		}
		live += j.partLive[p]
		pending += j.pendingN[p]
	}
	if pending != j.pending {
		t.Fatalf("%s: pending total %d, per-partition counts sum to %d", when, j.pending, pending)
	}
	if got, want := j.liveBytes(), live*int64(n.cfg.Build.Layout.LogicalSize()); got != want {
		t.Fatalf("%s: live bytes %d, the live partitions hold %d", when, got, want)
	}
}

// checkFlushed asserts a reader found the table flushed: nothing pending and
// no tuple of a spilled partition left in the table.
func (n *evictionNode) checkFlushed(t *testing.T, when string) {
	t.Helper()
	j := n.j
	if j.pending != 0 {
		t.Fatalf("%s: %d tuples still pending", when, j.pending)
	}
	j.table.ForEach(func(tp tuple.Tuple) {
		if p := j.spillRung.PartOf(tp.Key); j.spillRung.Spilled(p) {
			t.Fatalf("%s: tuple %d of evicted partition %d is still in the table", when, tp.Index, p)
		}
	})
}

func TestJoinActorSpillOrderIsADecision(t *testing.T) {
	n := newEvictionNode(t, Replication, 1)
	n.build(300)
	n.j.Receive(n.env, rt.NoNode, &spillOrder{})
	ack := one[*spillAck](t, n.env.take(), n.cfg.schedulerID())
	j := n.j
	if j.table.Count() != 300 {
		t.Errorf("the order moved tuples: table holds %d of 300", j.table.Count())
	}
	if want := j.pending * int64(n.cfg.Build.Layout.LogicalSize()); ack.Bytes != want || j.spillRung.SpillWrittenBytes != want {
		t.Errorf("ack frees %d bytes, rung charged %d written, %d tuples pending (%d bytes)",
			ack.Bytes, j.spillRung.SpillWrittenBytes, j.pending, want)
	}
	if j.liveBytes() > j.budget {
		t.Errorf("live bytes %d over the %d budget after the order", j.liveBytes(), j.budget)
	}
	n.check(t, "after the order")
}

// TestEvictionFlushBeforeRead puts each reader of the table's contents in
// front of a node with evictions pending and checks that it saw the flushed
// table and that no tuple was lost or doubled on the way.
func TestEvictionFlushBeforeRead(t *testing.T) {
	space := actorConfig(Split).Space
	lower := hashfn.Range{Lo: 0, Hi: space.Positions() / 2}
	upper := hashfn.Range{Lo: space.Positions() / 2, Hi: space.Positions()}
	whole := hashfn.Range{Lo: 0, Hi: space.Positions()}

	cases := []struct {
		name     string
		alg      Algorithm
		extracts bool // the reader also takes tuples out of the rung
		// read delivers the message under test and checks what it observed;
		// resident is the number of tuples the flushed table must hold.
		read func(t *testing.T, n *evictionNode, resident int64)
	}{
		{"split of a spilled node", Split, true, func(t *testing.T, n *evictionNode, _ int64) {
			peer := n.cfg.joinID(1)
			want := n.inRange(upper)
			n.j.Receive(n.env, rt.NoNode, &splitOrder{Lower: lower, Upper: upper, NewNode: peer, Table: n.table})
			sends := n.env.take()
			if done := one[*splitDone](t, sends, n.cfg.schedulerID()); done.MovedTuples != want {
				t.Errorf("split moved %d tuples, %d were delivered for the upper half", done.MovedTuples, want)
			}
			var shipped int64
			for _, s := range sends {
				if m, ok := s.msg.(*moveTuples); ok {
					for _, tp := range m.Chunk.Tuples {
						if !upper.Contains(n.cfg.Space.PositionOf(tp.Key)) {
							t.Fatalf("split shipped tuple %d of the lower half", tp.Index)
						}
					}
					shipped += int64(len(m.Chunk.Tuples))
				}
			}
			if shipped != want {
				t.Errorf("split shipped %d tuples, want %d", shipped, want)
			}
			n.dropRange(upper)
		}},
		{"reshuffleAssign", Hybrid, true, func(t *testing.T, n *evictionNode, _ int64) {
			peer := n.cfg.joinID(1)
			want := n.inRange(upper)
			n.j.Receive(n.env, rt.NoNode, &reshuffleAssign{Keep: lower, Table: n.table,
				GroupEntries: []hashfn.Entry{{Range: lower, Owners: []int32{int32(n.j.id)}}, {Range: upper, Owners: []int32{int32(peer)}}}})
			n.env.take()
			if n.j.stats.ReshuffleOut != want {
				t.Errorf("reshuffle moved %d tuples, %d were delivered for the upper half", n.j.stats.ReshuffleOut, want)
			}
			n.dropRange(upper)
		}},
		{"purgeRange", Replication, true, func(t *testing.T, n *evictionNode, _ int64) {
			want := n.inRange(upper)
			n.j.Receive(n.env, rt.NoNode, &purgeRange{Range: upper, NewOwner: n.cfg.joinID(1), Table: n.table})
			if n.j.stats.Purged != want {
				t.Errorf("purge dropped %d tuples, %d were delivered for the range", n.j.stats.Purged, want)
			}
			n.dropRange(upper)
		}},
		{"countReq", Hybrid, false, func(t *testing.T, n *evictionNode, resident int64) {
			n.j.Receive(n.env, n.cfg.schedulerID(), &countReq{Range: whole})
			var sum int64
			for _, c := range one[*countResp](t, n.env.take(), n.cfg.schedulerID()).Counts {
				sum += c
			}
			if sum != resident {
				t.Errorf("counts sum to %d tuples, the flushed table holds %d", sum, resident)
			}
		}},
		{"keyCountReq", Hybrid, false, func(t *testing.T, n *evictionNode, resident int64) {
			req := &keyCountReq{}
			for _, tp := range n.sent {
				req.Positions = append(req.Positions, int32(n.cfg.Space.PositionOf(tp.Key)))
			}
			n.j.Receive(n.env, n.cfg.schedulerID(), req)
			resp := one[*keyCountResp](t, n.env.take(), n.cfg.schedulerID())
			var sum int64
			for i, k := range resp.Keys {
				if n.j.spillRung.Spilled(n.j.spillRung.PartOf(k)) {
					t.Fatalf("key %#x of an evicted partition was counted", k)
				}
				sum += resp.Counts[i]
			}
			if sum != resident {
				t.Errorf("key counts sum to %d tuples, the flushed table holds %d", sum, resident)
			}
			if int64(len(resp.SpilledParts)) != n.j.spillRung.SpilledPartitions() {
				t.Errorf("response names %d spilled partitions of %d", len(resp.SpilledParts), n.j.spillRung.SpilledPartitions())
			}
		}},
		{"heavyAssign", Hybrid, false, func(t *testing.T, n *evictionNode, _ int64) {
			n.j.Receive(n.env, rt.NoNode, &heavyAssign{Keys: []uint64{n.sent[0].Key}})
		}},
		{"cloneTable", Replication, false, func(t *testing.T, n *evictionNode, resident int64) {
			peer := n.cfg.joinID(1)
			n.j.Receive(n.env, rt.NoNode, &cloneTable{To: peer})
			if end := one[*cloneEnd](t, n.env.take(), peer); end.TotalTuples != resident {
				t.Errorf("clone shipped %d tuples, the flushed table holds %d", end.TotalTuples, resident)
			}
		}},
		{"statsReq", Replication, false, func(t *testing.T, n *evictionNode, _ int64) {
			n.j.Receive(n.env, n.cfg.schedulerID(), &statsReq{})
			st := one[*joinStats](t, n.env.take(), n.cfg.schedulerID())
			if st.Stored != int64(len(n.sent)) {
				t.Errorf("stats report %d stored tuples, %d were delivered", st.Stored, len(n.sent))
			}
		}},
		{"first probe chunk, then finishOOC", Replication, false, func(t *testing.T, n *evictionNode, resident int64) {
			c := &tuple.Chunk{Rel: tuple.RelS, Layout: n.cfg.Probe.Layout}
			for i, tp := range n.sent {
				c.Tuples = append(c.Tuples, tuple.Tuple{Index: uint64(i), Key: tp.Key})
			}
			src := n.cfg.sourceID(0)
			n.j.Receive(n.env, src, &dataChunk{Chunk: c, Origin: src})
			n.checkFlushed(t, "after the probe chunk")
			if got := int64(n.j.totalMatches()); got != resident {
				t.Errorf("probing every key matched %d times before the finish phase, the flushed table holds %d tuples", got, resident)
			}
			n.j.Receive(n.env, rt.NoNode, &finishOOC{})
			if got := int64(n.j.totalMatches()); got != int64(len(n.sent)) {
				t.Errorf("%d matches after the finish phase, want one per delivered tuple (%d)", got, len(n.sent))
			}
		}},
		{"finishOOC", Replication, false, func(t *testing.T, n *evictionNode, _ int64) {
			n.j.Receive(n.env, rt.NoNode, &finishOOC{})
			if read, written := n.j.spillRung.SpillReadBytes, n.j.spillRung.SpillWrittenBytes; read != written {
				t.Errorf("finish read %d bytes back, %d were written", read, written)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := newEvictionNode(t, tc.alg, 7)
			n.spillTwice(t)
			n.check(t, "with evictions pending")
			pending, rung := n.j.pending, n.j.spillRung.StoredBuildTuples()
			tc.read(t, n, n.j.table.Count()-pending)
			n.checkFlushed(t, "after "+tc.name)
			// A reader that extracts shrinks the rung in the same Receive
			// that filled it; there the hand-over shows in the moved counts
			// checked above and in the conservation check below.
			if grew := n.j.spillRung.StoredBuildTuples() - rung; !tc.extracts && grew != pending {
				t.Errorf("the flush handed the rung %d tuples, the evictions had counted %d", grew, pending)
			}
			n.check(t, "after "+tc.name)
		})
	}
}

// TestEvictionFlushKeepsStreamOrder pins the order a flush leaves a
// partition's build stream in — what an extraction at the order itself would
// have written: first the tuples that were in memory at the decision, then,
// in arrival order, what streamed since.
func TestEvictionFlushKeepsStreamOrder(t *testing.T) {
	n := newEvictionNode(t, Hybrid, 3)
	j := n.j
	evictedAt := make(map[int]int) // partition -> tuples delivered when it was evicted
	for _, upTo := range []int{300, 450} {
		n.build(upTo - len(n.sent))
		j.Receive(n.env, rt.NoNode, &spillOrder{})
		for p := 0; p < j.spillRung.Parts(); p++ {
			if _, seen := evictedAt[p]; !seen && j.spillRung.Spilled(p) {
				evictedAt[p] = upTo
			}
		}
	}
	n.build(100)
	j.flushEvictions()
	streams := make(map[int][]tuple.Tuple)
	for _, tp := range j.spillRung.ExtractRange(n.env, hashfn.Range{Lo: 0, Hi: n.cfg.Space.Positions()}) {
		p := j.spillRung.PartOf(tp.Key)
		streams[p] = append(streams[p], tp)
	}
	var streamed int
	for p, at := range evictedAt {
		var head map[uint64]bool
		var tail []uint64
		for i, tp := range n.sent {
			switch {
			case j.spillRung.PartOf(tp.Key) != p:
			case i < at:
				if head == nil {
					head = make(map[uint64]bool)
				}
				head[tp.Index] = true
			default:
				tail = append(tail, tp.Index)
			}
		}
		got := streams[p]
		if len(got) != len(head)+len(tail) {
			t.Fatalf("partition %d streams %d tuples, want %d + %d", p, len(got), len(head), len(tail))
		}
		// The table hands the head over segment by segment, so it is
		// compared as a set; the tail is exact.
		for _, tp := range got[:len(head)] {
			if !head[tp.Index] {
				t.Fatalf("partition %d: tuple %d streamed after the eviction sits among the %d that were in memory", p, tp.Index, len(head))
			}
		}
		for k, want := range tail {
			if got[len(head)+k].Index != want {
				t.Fatalf("partition %d: tuple %d after the head is %d, want %d", p, k, got[len(head)+k].Index, want)
			}
		}
		streamed += len(tail)
	}
	if len(evictedAt) < 4 || streamed < 20 {
		t.Errorf("scenario is vacuous: %d partitions evicted, %d tuples streamed behind a head", len(evictedAt), streamed)
	}
}

// TestEvictionCountsMatchRecount interleaves builds, spill orders, range
// extractions and flushes at random and holds the ledger after every step.
func TestEvictionCountsMatchRecount(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		n := newEvictionNode(t, Hybrid, seed)
		peer := n.cfg.joinID(1)
		positions := n.cfg.Space.Positions()
		whole := hashfn.Range{Lo: 0, Hi: positions}
		var orders, extractions, flushes int
		for step := 0; step < 400; step++ {
			var when string
			switch op := n.rng.Intn(10); {
			case op < 5:
				when = "build"
				n.build(1 + n.rng.Intn(60))
			case op < 7:
				when = "spill order"
				orders++
				n.j.Receive(n.env, rt.NoNode, &spillOrder{TargetBytes: int64(n.rng.Intn(4000))})
			case op < 9:
				when = "range extraction"
				extractions++
				lo := n.rng.Intn(positions)
				r := hashfn.Range{Lo: lo, Hi: lo + 1 + n.rng.Intn(positions/8)}
				if r.Hi > positions {
					r.Hi = positions
				}
				n.j.Receive(n.env, rt.NoNode, &reshuffleAssign{Keep: whole, Table: n.table,
					GroupEntries: []hashfn.Entry{{Range: r, Owners: []int32{int32(peer)}}}})
				n.dropRange(r)
			default:
				when = "flush"
				flushes++
				n.j.Receive(n.env, n.cfg.schedulerID(), &countReq{Range: whole})
			}
			n.env.take()
			n.check(t, when)
		}
		if orders < 20 || extractions < 20 || flushes < 10 || n.j.spillRung.SpilledPartitions() == 0 {
			t.Errorf("seed %d: coverage too thin: %d orders, %d extractions, %d flushes, %d partitions spilled",
				seed, orders, extractions, flushes, n.j.spillRung.SpilledPartitions())
		}
	}
}
