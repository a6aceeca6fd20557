package core

import (
	"testing"

	"ehjoin/internal/datagen"
	"ehjoin/internal/hashfn"
	rt "ehjoin/internal/runtime"
	"ehjoin/internal/tuple"
)

// scriptEnv is a synchronous runtime.Env that records outgoing messages so
// actor behaviour can be unit-tested one message at a time.
type scriptEnv struct {
	now  int64
	sent []scriptSend
}

type scriptSend struct {
	to  rt.NodeID
	msg rt.Message
	at  int64 // the env's clock, the CPU charged so far, at the send
}

func (e *scriptEnv) Now() int64 { return e.now }
func (e *scriptEnv) Send(to rt.NodeID, m rt.Message) {
	e.sent = append(e.sent, scriptSend{to, m, e.now})
}
func (e *scriptEnv) ChargeCPU(ns int64)                { e.now += ns }
func (e *scriptEnv) ChargeDisk(bytes int64, read bool) {}

// take removes and returns all sends so far.
func (e *scriptEnv) take() []scriptSend {
	out := e.sent
	e.sent = nil
	return out
}

// one asserts exactly one message of type T went to dest.
func one[T rt.Message](t *testing.T, sends []scriptSend, dest rt.NodeID) T {
	t.Helper()
	var found []T
	for _, s := range sends {
		if m, ok := s.msg.(T); ok && s.to == dest {
			found = append(found, m)
		}
	}
	if len(found) != 1 {
		t.Fatalf("want exactly 1 %T to node %d, got %d (all: %v)", *new(T), dest, len(found), sends)
	}
	return found[0]
}

func actorConfig(alg Algorithm) Config {
	cfg, err := Config{
		Algorithm:    alg,
		InitialNodes: 2,
		MaxNodes:     4,
		Sources:      1,
		MemoryBudget: 10 * 100, // ten 100-byte tuples
		ChunkTuples:  4,
		Build:        datagen.Spec{Dist: datagen.Uniform, Tuples: 100, Seed: 1},
		Probe:        datagen.Spec{Dist: datagen.Uniform, Tuples: 100, Seed: 2},
	}.normalized()
	if err != nil {
		panic(err)
	}
	return cfg
}

func chunkOf(rel tuple.Relation, layout tuple.Layout, keys ...uint64) *tuple.Chunk {
	c := &tuple.Chunk{Rel: rel, Layout: layout}
	for i, k := range keys {
		c.Tuples = append(c.Tuples, tuple.Tuple{Index: uint64(i), Key: k})
	}
	return c
}

func TestJoinActorAcksAndReportsOverflow(t *testing.T) {
	cfg := actorConfig(Replication)
	j := newJoin(cfg, cfg.joinID(0))
	table, _ := hashfn.NewTable(cfg.Space, []int32{int32(cfg.joinID(0)), int32(cfg.joinID(1))})
	env := &scriptEnv{}
	j.Receive(env, rt.NoNode, &joinInit{Range: table.Entries[0].Range, Table: table})

	src := cfg.sourceID(0)
	// First chunk (4 x 100 B): under budget — ack only.
	j.Receive(env, src, &dataChunk{Chunk: chunkOf(tuple.RelR, cfg.Build.Layout, 1, 2, 3, 4), Origin: src})
	sends := env.take()
	one[*chunkAck](t, sends, src)
	for _, s := range sends {
		if _, ok := s.msg.(*memFull); ok {
			t.Fatal("reported overflow below budget")
		}
	}
	// Two more chunks cross the 10-tuple budget: expect a memFull.
	j.Receive(env, src, &dataChunk{Chunk: chunkOf(tuple.RelR, cfg.Build.Layout, 5, 6, 7, 8), Origin: src})
	j.Receive(env, src, &dataChunk{Chunk: chunkOf(tuple.RelR, cfg.Build.Layout, 9, 10, 11, 12), Origin: src})
	one[*memFull](t, env.take(), cfg.schedulerID())
}

func TestJoinActorRetireForwardsWholesale(t *testing.T) {
	cfg := actorConfig(Replication)
	j := newJoin(cfg, cfg.joinID(0))
	table, _ := hashfn.NewTable(cfg.Space, []int32{int32(cfg.joinID(0)), int32(cfg.joinID(1))})
	env := &scriptEnv{}
	j.Receive(env, rt.NoNode, &joinInit{Range: table.Entries[0].Range, Table: table})

	next := cfg.joinID(2)
	table.AddReplica(0, int32(next))
	j.Receive(env, rt.NoNode, &retire{ForwardTo: next, Table: table})
	env.take()

	src := cfg.sourceID(0)
	j.Receive(env, src, &dataChunk{Chunk: chunkOf(tuple.RelR, cfg.Build.Layout, 1, 2), Origin: src})
	sends := env.take()
	one[*chunkAck](t, sends, src) // credit still returns to the source
	fwd := one[*dataChunk](t, sends, next)
	if !fwd.Forwarded || fwd.Origin != rt.NoNode {
		t.Errorf("forwarded chunk flags wrong: %+v", fwd)
	}
	if len(fwd.Chunk.Tuples) != 2 {
		t.Errorf("forwarded %d tuples, want the whole pending buffer", len(fwd.Chunk.Tuples))
	}
	if j.storedBuildTuples() != 0 {
		t.Error("retired node inserted forwarded tuples")
	}
}

func TestJoinActorSplitMigratesUpperRange(t *testing.T) {
	cfg := actorConfig(Split)
	j := newJoin(cfg, cfg.joinID(0))
	table, _ := hashfn.NewTable(cfg.Space, []int32{int32(cfg.joinID(0)), int32(cfg.joinID(1))})
	env := &scriptEnv{}
	j.Receive(env, rt.NoNode, &joinInit{Range: table.Entries[0].Range, Table: table})

	// Keys across the node's range [0, H/2): positions are key>>48 for
	// 16-bit space; pick two keys in the lower quarter, two in the second.
	low1 := uint64(0x0100_0000_0000_0000)
	low2 := uint64(0x0200_0000_0000_0000)
	hi1 := uint64(0x5000_0000_0000_0000)
	hi2 := uint64(0x6000_0000_0000_0000)
	src := cfg.sourceID(0)
	j.Receive(env, src, &dataChunk{Chunk: chunkOf(tuple.RelR, cfg.Build.Layout, low1, low2, hi1, hi2), Origin: src})
	env.take()

	newNode := cfg.joinID(2)
	lower, upper, err := table.SplitEntry(0, int32(newNode))
	if err != nil {
		t.Fatal(err)
	}
	j.Receive(env, rt.NoNode, &splitOrder{Lower: lower, Upper: upper, NewNode: newNode, Table: table})
	sends := env.take()
	mv := one[*moveTuples](t, sends, newNode)
	if len(mv.Chunk.Tuples) != 2 {
		t.Errorf("migrated %d tuples, want 2", len(mv.Chunk.Tuples))
	}
	done := one[*splitDone](t, sends, cfg.schedulerID())
	if done.MovedTuples != 2 {
		t.Errorf("splitDone reports %d moved", done.MovedTuples)
	}
	if j.rng != lower {
		t.Errorf("victim kept range %v, want %v", j.rng, lower)
	}
	if j.storedBuildTuples() != 2 {
		t.Errorf("victim holds %d tuples after split", j.storedBuildTuples())
	}
}

func TestJoinActorStrayForwarding(t *testing.T) {
	cfg := actorConfig(Split)
	j := newJoin(cfg, cfg.joinID(0))
	table, _ := hashfn.NewTable(cfg.Space, []int32{int32(cfg.joinID(0)), int32(cfg.joinID(1))})
	env := &scriptEnv{}
	// The node owns only the lower half of its original entry.
	newNode := cfg.joinID(2)
	lower, _, err := table.SplitEntry(0, int32(newNode))
	if err != nil {
		t.Fatal(err)
	}
	j.Receive(env, rt.NoNode, &joinInit{Range: lower, Table: table})

	// A stale chunk carries one tuple for the migrated upper half.
	mine := uint64(0x0100_0000_0000_0000)
	stray := uint64(0x5000_0000_0000_0000)
	src := cfg.sourceID(0)
	j.Receive(env, src, &dataChunk{Chunk: chunkOf(tuple.RelR, cfg.Build.Layout, mine, stray), Origin: src})
	sends := env.take()
	fwd := one[*dataChunk](t, sends, newNode)
	if len(fwd.Chunk.Tuples) != 1 || fwd.Chunk.Tuples[0].Key != stray {
		t.Errorf("stray forward wrong: %+v", fwd.Chunk.Tuples)
	}
	if j.storedBuildTuples() != 1 {
		t.Errorf("stored %d tuples, want only the owned one", j.storedBuildTuples())
	}
}

func TestJoinActorPreInitBuffering(t *testing.T) {
	cfg := actorConfig(Replication)
	j := newJoin(cfg, cfg.joinID(2)) // recruited node, not yet initialised
	env := &scriptEnv{}
	src := cfg.sourceID(0)
	j.Receive(env, src, &dataChunk{Chunk: chunkOf(tuple.RelR, cfg.Build.Layout, 1, 2, 3), Origin: src})
	one[*chunkAck](t, env.take(), src) // ack flows even pre-init
	if j.storedBuildTuples() != 0 {
		t.Fatal("inserted before initialisation")
	}
	table, _ := hashfn.NewTable(cfg.Space, []int32{int32(cfg.joinID(2))})
	j.Receive(env, rt.NoNode, &joinInit{Range: table.Entries[0].Range, Table: table})
	if j.storedBuildTuples() != 3 {
		t.Errorf("stored %d after init, want the 3 buffered tuples", j.storedBuildTuples())
	}
}

// TestJoinActorCloneBeforeInit: a probe-phase recruit's table clone
// travels the full node's link and its joinInit the scheduler's, so over
// TCP the whole clone can land first. The recruit must then probe at once,
// not hold its probe tuples for a clone that already arrived.
func TestJoinActorCloneBeforeInit(t *testing.T) {
	cfg := actorConfig(Replication)
	j := newJoin(cfg, cfg.joinID(2))
	env := &scriptEnv{}
	full, src := cfg.joinID(0), cfg.sourceID(0)
	j.Receive(env, full, &cloneTuples{Chunk: chunkOf(tuple.RelR, cfg.Build.Layout, 1, 2, 3)})
	j.Receive(env, full, &cloneEnd{TotalTuples: 3})
	j.Receive(env, src, &dataChunk{Chunk: chunkOf(tuple.RelS, cfg.Probe.Layout, 1, 2, 9), Origin: src})
	table, _ := hashfn.NewTable(cfg.Space, []int32{int32(cfg.joinID(2))})
	j.Receive(env, rt.NoNode, &joinInit{Range: table.Entries[0].Range, Table: table, AwaitClone: true})
	if j.awaitClone || len(j.heldProbes) != 0 || j.stats.ProbeTuples != 3 || j.stats.Matches != 2 {
		t.Errorf("after joinInit: awaiting %v, %d chunks held, %d probe tuples, %d matches; want none held, 3 probed, 2 matches",
			j.awaitClone, len(j.heldProbes), j.stats.ProbeTuples, j.stats.Matches)
	}
}

func TestJoinActorNackStopsReporting(t *testing.T) {
	cfg := actorConfig(Replication)
	j := newJoin(cfg, cfg.joinID(0))
	table, _ := hashfn.NewTable(cfg.Space, []int32{int32(cfg.joinID(0))})
	env := &scriptEnv{}
	j.Receive(env, rt.NoNode, &joinInit{Range: table.Entries[0].Range, Table: table})
	j.Receive(env, rt.NoNode, &memFullNack{})
	src := cfg.sourceID(0)
	for i := 0; i < 10; i++ {
		j.Receive(env, src, &dataChunk{Chunk: chunkOf(tuple.RelR, cfg.Build.Layout, 1, 2, 3, 4), Origin: src})
	}
	for _, s := range env.take() {
		if _, ok := s.msg.(*memFull); ok {
			t.Fatal("node kept reporting after NACK")
		}
	}
}

func TestSchedulerReplicatesOnMemFull(t *testing.T) {
	cfg := actorConfig(Replication)
	table, _ := hashfn.NewTable(cfg.Space, []int32{int32(cfg.joinID(0)), int32(cfg.joinID(1))})
	sched := newScheduler(cfg, table,
		[]rt.NodeID{cfg.joinID(0), cfg.joinID(1)},
		[]rt.NodeID{cfg.joinID(2), cfg.joinID(3)})
	env := &scriptEnv{}
	full := cfg.joinID(0)
	sched.Receive(env, full, &memFull{Bytes: 2000})
	sends := env.take()
	init := one[*joinInit](t, sends, cfg.joinID(2))
	if init.Range != table.Entries[0].Range {
		t.Errorf("replica range %v, want %v", init.Range, table.Entries[0].Range)
	}
	ret := one[*retire](t, sends, full)
	if ret.ForwardTo != cfg.joinID(2) {
		t.Errorf("retire forward to %d", ret.ForwardTo)
	}
	if got := sched.table.Entries[0].BuildOwner(); got != int32(cfg.joinID(2)) {
		t.Errorf("build owner now %d", got)
	}
	// A duplicate report from the same node is ignored.
	sched.Receive(env, full, &memFull{Bytes: 3000})
	if len(env.take()) != 0 {
		t.Error("duplicate memFull triggered actions")
	}
}

func TestSchedulerNacksWhenExhausted(t *testing.T) {
	cfg := actorConfig(Replication)
	table, _ := hashfn.NewTable(cfg.Space, []int32{int32(cfg.joinID(0))})
	sched := newScheduler(cfg, table, []rt.NodeID{cfg.joinID(0)}, nil)
	env := &scriptEnv{}
	sched.Receive(env, cfg.joinID(0), &memFull{Bytes: 2000})
	one[*memFullNack](t, env.take(), cfg.joinID(0))
}

func TestSchedulerSplitBarrier(t *testing.T) {
	cfg := actorConfig(Split)
	table, _ := hashfn.NewTable(cfg.Space, []int32{int32(cfg.joinID(0)), int32(cfg.joinID(1))})
	sched := newScheduler(cfg, table,
		[]rt.NodeID{cfg.joinID(0), cfg.joinID(1)},
		[]rt.NodeID{cfg.joinID(2), cfg.joinID(3)})
	env := &scriptEnv{}
	// Two overflow reports arrive back to back; only one split may issue.
	sched.Receive(env, cfg.joinID(0), &memFull{Bytes: 2000})
	sends := env.take()
	order := one[*splitOrder](t, sends, cfg.joinID(0)) // pointer starts at entry 0
	if order.NewNode != cfg.joinID(2) {
		t.Errorf("split recruited %d", order.NewNode)
	}
	sched.Receive(env, cfg.joinID(1), &memFull{Bytes: 2000})
	for _, s := range env.take() {
		if _, ok := s.msg.(*splitOrder); ok {
			t.Fatal("second split issued while barrier held")
		}
	}
	// The victim's done message releases the barrier; the queued overflow
	// is served next.
	sched.Receive(env, cfg.joinID(0), &splitDone{MovedTuples: 5})
	one[*splitOrder](t, env.take(), cfg.joinID(1))
	if sched.splits != 2 || sched.splitMoved != 5 {
		t.Errorf("splits=%d moved=%d", sched.splits, sched.splitMoved)
	}
}

func TestSchedulerNacksProbeMemFull(t *testing.T) {
	// Without MaterializeOutput nothing can relieve probe-phase pressure,
	// but silence would leave the reporter's checkOverflow armed and
	// re-reporting on every chunk: the scheduler must NACK.
	cfg := actorConfig(Replication)
	table, _ := hashfn.NewTable(cfg.Space, []int32{int32(cfg.joinID(0))})
	sched := newScheduler(cfg, table, []rt.NodeID{cfg.joinID(0)}, []rt.NodeID{cfg.joinID(1)})
	env := &scriptEnv{}
	sched.Receive(env, rt.NoNode, &startProbe{})
	env.take()
	sched.Receive(env, cfg.joinID(0), &memFull{Bytes: 2000})
	one[*memFullNack](t, env.take(), cfg.joinID(0))
}

func TestSchedulerNacksProbeMemFullWithoutOwner(t *testing.T) {
	// Probe expansion (MaterializeOutput) from a node that owns no table
	// entry: there is no slot to hand over, and the reporter must be NACKed
	// rather than ignored.
	cfg := actorConfig(Replication)
	cfg.MaterializeOutput = true
	table, _ := hashfn.NewTable(cfg.Space, []int32{int32(cfg.joinID(0))})
	sched := newScheduler(cfg, table,
		[]rt.NodeID{cfg.joinID(0), cfg.joinID(1)}, []rt.NodeID{cfg.joinID(2)})
	env := &scriptEnv{}
	sched.Receive(env, rt.NoNode, &startProbe{})
	env.take()
	sched.Receive(env, cfg.joinID(1), &memFull{Bytes: 2000})
	one[*memFullNack](t, env.take(), cfg.joinID(1))
}

func TestReshuffleMemFullStormStops(t *testing.T) {
	// Regression for the message storm: an overflowing node re-arms its
	// overflow check on every chunk, so an unanswered report outside the
	// build phase used to storm the scheduler for the rest of the run.
	// With the NACK in place the scheduler hears exactly one report.
	cfg := actorConfig(Hybrid)
	table, _ := hashfn.NewTable(cfg.Space, []int32{int32(cfg.joinID(0)), int32(cfg.joinID(1))})
	sched := newScheduler(cfg, table.Clone(),
		[]rt.NodeID{cfg.joinID(0), cfg.joinID(1)}, nil)
	j := newJoin(cfg, cfg.joinID(0))
	env := &scriptEnv{}
	j.Receive(env, rt.NoNode, &joinInit{Range: table.Entries[0].Range, Table: table.Clone()})
	sched.Receive(env, rt.NoNode, &doReshuffle{})
	env.take()

	memFulls := 0
	deliver := func() {
		for {
			sends := env.take()
			if len(sends) == 0 {
				return
			}
			for _, s := range sends {
				switch m := s.msg.(type) {
				case *memFull:
					memFulls++
					sched.Receive(env, cfg.joinID(0), m)
				case *memFullNack:
					j.Receive(env, rt.NoNode, m)
				}
			}
		}
	}
	// Redistribution concentrates load far past the 10-tuple budget.
	for i := 0; i < 10; i++ {
		keys := make([]uint64, 4)
		for k := range keys {
			keys[k] = uint64(4*i + k + 1)
		}
		j.Receive(env, cfg.joinID(1), &moveTuples{Chunk: chunkOf(tuple.RelR, cfg.Build.Layout, keys...)})
		deliver()
	}
	if memFulls != 1 {
		t.Errorf("scheduler heard %d memFull reports, want exactly 1", memFulls)
	}
	if !j.stats.NoMoreNodes {
		t.Error("node did not record the NACK")
	}
}

func TestSchedulerSpillsWhenExhausted(t *testing.T) {
	cfg := actorConfig(Replication)
	cfg.SpillEnabled = true
	table, _ := hashfn.NewTable(cfg.Space, []int32{int32(cfg.joinID(0))})
	sched := newScheduler(cfg, table, []rt.NodeID{cfg.joinID(0)}, nil)
	env := &scriptEnv{}
	sched.Receive(env, cfg.joinID(0), &memFull{Bytes: 2000})
	order := one[*spillOrder](t, env.take(), cfg.joinID(0))
	if want := 2000 - cfg.MemoryBudget; order.TargetBytes != want {
		t.Errorf("spill target %d, want the over-budget %d", order.TargetBytes, want)
	}
	sched.Receive(env, cfg.joinID(0), &spillAck{Partitions: 2, Bytes: 1000})
	found := false
	for _, e := range sched.events {
		if e.Kind == "spill" && e.Node == cfg.joinID(0) && e.Bytes == 1000 {
			found = true
		}
	}
	if !found {
		t.Errorf("spillAck not logged as a spill event: %v", sched.events)
	}
}

func TestSchedulerSpillCostComparison(t *testing.T) {
	run := func(cfg Config) []scriptSend {
		table, _ := hashfn.NewTable(cfg.Space, []int32{int32(cfg.joinID(0)), int32(cfg.joinID(1))})
		sched := newScheduler(cfg, table,
			[]rt.NodeID{cfg.joinID(0), cfg.joinID(1)}, []rt.NodeID{cfg.joinID(2)})
		env := &scriptEnv{}
		sched.Receive(env, cfg.joinID(0), &memFull{Bytes: 2000})
		return env.take()
	}
	cfg := actorConfig(Replication)
	cfg.SpillEnabled = true
	// Testbed model: migrating to the recruit beats the disk's seeks.
	one[*retire](t, run(cfg), cfg.joinID(0))
	// A much slower interconnect flips the comparison.
	slow := cfg
	slow.Cost.NetBandwidthBps = 1e4
	one[*spillOrder](t, run(slow), cfg.joinID(0))
}

func TestJoinActorSpillOrderEvictsAndAcks(t *testing.T) {
	cfg := actorConfig(Replication)
	cfg.SpillEnabled = true
	j := newJoin(cfg, cfg.joinID(0))
	table, _ := hashfn.NewTable(cfg.Space, []int32{int32(cfg.joinID(0))})
	env := &scriptEnv{}
	j.Receive(env, rt.NoNode, &joinInit{Range: table.Entries[0].Range, Table: table})
	src := cfg.sourceID(0)
	for i := 0; i < 3; i++ { // 12 tuples: 200 bytes over the 1000-byte budget
		keys := make([]uint64, 4)
		for k := range keys {
			keys[k] = uint64(4*i+k+1) << 32
		}
		j.Receive(env, src, &dataChunk{Chunk: chunkOf(tuple.RelR, cfg.Build.Layout, keys...), Origin: src})
	}
	env.take()

	j.Receive(env, rt.NoNode, &spillOrder{TargetBytes: 0})
	ack := one[*spillAck](t, env.take(), cfg.schedulerID())
	if ack.Partitions < 1 || ack.Bytes < 200 {
		t.Errorf("spillAck{Partitions: %d, Bytes: %d}, want >=1 partition and >=200 bytes freed",
			ack.Partitions, ack.Bytes)
	}
	if b := j.liveBytes(); b > j.budget {
		t.Errorf("node still holds %d live bytes against a %d budget after spilling", b, j.budget)
	}
	if n := j.storedBuildTuples(); n != 12 {
		t.Errorf("stored %d tuples after eviction, want all 12", n)
	}

	// A key routed to an evicted partition: builds stream to disk, probes
	// divert, and the finish phase joins them.
	spilledKey := uint64(0)
	for k := uint64(1); k < 1<<20; k++ {
		if j.spillRung.Spilled(j.spillRung.PartOf(k)) && j.rng.Contains(cfg.Space.PositionOf(k)) {
			spilledKey = k
			break
		}
	}
	if spilledKey == 0 {
		t.Fatal("no in-range key maps to an evicted partition")
	}
	before := j.table.Count()
	j.Receive(env, src, &dataChunk{Chunk: chunkOf(tuple.RelR, cfg.Build.Layout, spilledKey), Origin: src})
	if j.table.Count() != before {
		t.Error("build tuple of an evicted partition landed in the live table")
	}
	if n := j.storedBuildTuples(); n != 13 {
		t.Errorf("stored %d tuples, want 13", n)
	}
	j.Receive(env, src, &dataChunk{Chunk: chunkOf(tuple.RelS, cfg.Probe.Layout, spilledKey), Origin: src})
	if j.totalMatches() != 0 {
		t.Error("diverted probe matched before the finish phase")
	}
	env.take()
	j.Receive(env, rt.NoNode, &finishOOC{})
	if j.totalMatches() == 0 {
		t.Error("finish phase produced no matches for the spilled pair")
	}
}

func TestJoinActorSpillOptOut(t *testing.T) {
	// A host that did not arm the rung (joind per-host override) declines
	// the order and runs over budget, as a memFullNack would have it.
	cfg := actorConfig(Replication)
	j := newJoin(cfg, cfg.joinID(0))
	table, _ := hashfn.NewTable(cfg.Space, []int32{int32(cfg.joinID(0))})
	env := &scriptEnv{}
	j.Receive(env, rt.NoNode, &joinInit{Range: table.Entries[0].Range, Table: table})
	j.Receive(env, rt.NoNode, &spillOrder{TargetBytes: 500})
	ack := one[*spillAck](t, env.take(), cfg.schedulerID())
	if ack.Partitions != 0 || ack.Bytes != 0 {
		t.Errorf("opt-out ack %+v, want empty", ack)
	}
	if !j.stats.NoMoreNodes {
		t.Error("opt-out must stop further overflow reports")
	}
}
