package core

// Receiver-advertised send window (DESIGN.md §15): the unit behaviour of
// both ends, the pair ledger at every phase barrier across engines,
// algorithms and fault paths, the fixed-window identity, the overshoot
// bound, and the allocation budget of the source's send path.

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"ehjoin/internal/datagen"
	"ehjoin/internal/hashfn"
	rt "ehjoin/internal/runtime"
	"ehjoin/internal/sim"
	"ehjoin/internal/tuple"
	"ehjoin/internal/wire"
)

// windowFixture is an activated, empty join node whose budget is 20 headroom
// units: a unit is what one more chunk per source costs under the
// quarter-of-headroom rule, so 20 is well past the cap of 12.
func windowFixture(t *testing.T, mutate func(*Config)) (*joinActor, Config) {
	t.Helper()
	cfg := Config{
		Algorithm:       Replication,
		InitialNodes:    1,
		MaxNodes:        2,
		Sources:         2,
		ChunkTuples:     10,
		MaxCreditWindow: 12,
		Build:           datagen.Spec{Dist: datagen.Uniform, Tuples: 100, Seed: 1},
		Probe:           datagen.Spec{Dist: datagen.Uniform, Tuples: 100, Seed: 2},
	}
	// One headroom unit = 4 × Sources × (10 tuples × 100 B) = 8000 bytes.
	cfg.MemoryBudget = 20 * 8000
	if mutate != nil {
		mutate(&cfg)
	}
	cfg, err := cfg.normalized()
	if err != nil {
		t.Fatal(err)
	}
	j := newJoin(cfg, cfg.joinID(0))
	table, err := hashfn.NewTable(cfg.Space, []int32{int32(cfg.joinID(0))})
	if err != nil {
		t.Fatal(err)
	}
	j.Receive(&scriptEnv{}, rt.NoNode, &joinInit{Range: table.Entries[0].Range, Table: table})
	return j, cfg
}

// fillTo stores build tuples until the node's table holds at least bytes.
func fillTo(j *joinActor, bytes int64) {
	for i := uint64(0); j.table.Bytes() < bytes; i++ {
		j.insertBatch(&scriptEnv{}, []tuple.Tuple{{Index: i, Key: i}})
	}
}

// TestWindowTargetFollowsHeadroom walks the target rule case by case.
func TestWindowTargetFollowsHeadroom(t *testing.T) {
	j, cfg := windowFixture(t, nil)
	if got := j.windowTarget(tuple.RelR); got != 12 {
		t.Errorf("empty table, 20 units of headroom: build target %d, want the cap 12", got)
	}
	fillTo(j, cfg.MemoryBudget-9*8000) // 9 units left
	if got := j.windowTarget(tuple.RelR); got != 8 && got != 9 {
		t.Errorf("9 units of headroom: build target %d, want 8 or 9", got)
	}
	fillTo(j, cfg.MemoryBudget-3*8000) // below base × unit
	if got := j.windowTarget(tuple.RelR); got != 4 {
		t.Errorf("under 4 units of headroom: build target %d, want the base 4", got)
	}
	fillTo(j, cfg.MemoryBudget+5*8000) // over budget
	if got := j.windowTarget(tuple.RelR); got != 4 {
		t.Errorf("over budget: build target %d, want the base 4", got)
	}
	if got := j.windowTarget(tuple.RelS); got != 12 {
		t.Errorf("probe target %d on a full node, want the cap 12: probing stores nothing", got)
	}

	j, _ = windowFixture(t, nil)
	j.retired = true
	if got := j.windowTarget(tuple.RelR); got != 4 {
		t.Errorf("retired node: build target %d, want 4", got)
	}
	if got := j.windowTarget(tuple.RelS); got != 12 {
		t.Errorf("retired node: probe target %d, want 12 (replicas still serve probes)", got)
	}
	j.active = false
	if b, p := j.windowTarget(tuple.RelR), j.windowTarget(tuple.RelS); b != 4 || p != 4 {
		t.Errorf("uninitialised node: targets %d/%d, want 4/4 (chunks only pile up in preInit)", b, p)
	}

	j, _ = windowFixture(t, func(c *Config) { c.MaterializeOutput = true })
	if got := j.windowTarget(tuple.RelS); got != 4 {
		t.Errorf("materialising probe: target %d, want 4 (output competes for the budget)", got)
	}
	j, _ = windowFixture(t, func(c *Config) { c.Algorithm = OutOfCore })
	if b, p := j.windowTarget(tuple.RelR), j.windowTarget(tuple.RelS); b != 4 || p != 4 {
		t.Errorf("out-of-core baseline: targets %d/%d, want 4/4", b, p)
	}
}

// TestJoinAdvertisesOneChunkPerAck: the window moves one chunk per consumed
// chunk toward the target, per source, and the ack carries exactly that
// step; forwarded chunks (no origin) are not acked and move nothing.
func TestJoinAdvertisesOneChunkPerAck(t *testing.T) {
	j, cfg := windowFixture(t, nil)
	env := &scriptEnv{}
	src0, src1 := cfg.sourceID(0), cfg.sourceID(1)
	send := func(origin rt.NodeID, rel tuple.Relation) *chunkAck {
		t.Helper()
		j.Receive(env, origin, &dataChunk{Chunk: chunkOf(rel, cfg.Build.Layout, 1, 2), Origin: origin})
		return one[*chunkAck](t, env.take(), origin)
	}
	for i := 1; i <= 8; i++ {
		if ack := send(src0, tuple.RelR); ack.Adjust != windowWiden || j.windows[src0] != 4+i {
			t.Fatalf("chunk %d: adjust %d, window %d; want widen to %d", i, ack.Adjust, j.windows[src0], 4+i)
		}
	}
	if ack := send(src0, tuple.RelR); ack.Adjust != windowKeep || j.windows[src0] != 12 {
		t.Fatalf("at the cap: adjust %d, window %d; want keep at 12", ack.Adjust, j.windows[src0])
	}
	if _, moved := j.windows[src1]; moved {
		t.Fatal("source 1's window moved on source 0's traffic")
	}
	fillTo(j, cfg.MemoryBudget) // full: target back at the base
	for i := 1; i <= 8; i++ {
		if ack := send(src0, tuple.RelR); ack.Adjust != windowNarrow || j.windows[src0] != 12-i {
			t.Fatalf("narrowing chunk %d: adjust %d, window %d; want narrow to %d", i, ack.Adjust, j.windows[src0], 12-i)
		}
	}
	if ack := send(src0, tuple.RelR); ack.Adjust != windowKeep || j.windows[src0] != 4 {
		t.Fatalf("back at base: adjust %d, window %d; want keep at 4", ack.Adjust, j.windows[src0])
	}
	if ack := send(src1, tuple.RelS); ack.Adjust != windowWiden || ack.Rel != tuple.RelS {
		t.Fatalf("probe chunk on a full node: ack %+v, want a widening probe ack", ack)
	}
	j.Receive(env, cfg.joinID(1), &dataChunk{Chunk: chunkOf(tuple.RelS, cfg.Probe.Layout, 3), Origin: rt.NoNode, Forwarded: true})
	for _, s := range env.take() {
		if _, ok := s.msg.(*chunkAck); ok {
			t.Fatal("a forwarded chunk was acked")
		}
	}
	if j.stats.WidestWindow != 12 || j.snapshot().WidestWindow != 12 {
		t.Errorf("widest window %d (snapshot %d), want 12", j.stats.WidestWindow, j.snapshot().WidestWindow)
	}
}

// TestSourceBanksWhatTheAckGrants: keep returns one credit, widen two,
// narrow none — a source that has never heard of a node starts it at the
// base window — and a step that parks on an exhausted window is counted.
func TestSourceBanksWhatTheAckGrants(t *testing.T) {
	s, env, table := sourceFixture(t, 1000)
	s.table = table
	dest := s.cfg.joinID(0)
	for _, step := range []struct {
		adjust int8
		want   int
	}{{windowWiden, creditWindow + 2}, {windowKeep, 7}, {windowNarrow, 7}, {windowWiden, 9}} {
		s.Receive(env, dest, &chunkAck{Rel: tuple.RelR, Adjust: step.adjust})
		if s.credits[dest] != step.want {
			t.Fatalf("after an ack adjusting by %d: %d credits, want %d", step.adjust, s.credits[dest], step.want)
		}
	}
	drive(s, env)
	if !s.stalled || s.stats.CreditStalls != 1 {
		t.Errorf("after streaming into the window: stalled %v, %d stalls counted; want true, 1", s.stalled, s.stats.CreditStalls)
	}
	other := s.cfg.joinID(1) // still at its initial four credits, so this is the window that ran out
	if s.credits[other] != 0 || len(s.queue[other]) < 2 {
		t.Errorf("parked with %d credits and %d queued chunks for node %d", s.credits[other], len(s.queue[other]), other)
	}
}

// TestDataChunkReleaseIsTheSourcesAlone pins what a link writer releases
// once it has encoded a chunk: the source's original send goes back to the
// free list; a forward, which a join node handed on, and chunks no free
// list cut, do not.
func TestDataChunkReleaseIsTheSourcesAlone(t *testing.T) {
	fl := tuple.NewFreeList(4)
	cut := func() *tuple.Chunk {
		b := fl.NewBuilder(tuple.RelR, tuple.DefaultLayout(), 2)
		b.Add(tuple.Tuple{Index: 1})
		return b.Add(tuple.Tuple{Index: 2})
	}
	recycled := func(c *tuple.Chunk) bool { return len(c.Tuples) == 0 }

	fwd := &dataChunk{Chunk: cut(), Origin: rt.NoNode, Forwarded: true}
	fwd.Release()
	if recycled(fwd.Chunk) {
		t.Error("a forwarded chunk was released: its receiver may still hold it")
	}
	orig := &dataChunk{Chunk: cut(), Origin: 3}
	orig.Release()
	if !recycled(orig.Chunk) {
		t.Error("the source's own send was not released")
	}
	table := make([]tuple.Tuple, 8)
	alias := &dataChunk{Chunk: &tuple.Chunk{Rel: tuple.RelR, Layout: tuple.DefaultLayout(), Tuples: table[2:6]}, Origin: 3}
	alias.Release()
	if len(alias.Chunk.Tuples) != 4 {
		t.Error("a chunk aliasing an extraction array was released")
	}
	var _ rt.Releaser = orig
}

// TestWindowAdjustmentSurvivesCheckpointLog: chunkAck deliveries are
// write-ahead-logged with their message, and the log's header carries the
// config blob, so a restored coordinator replays the same adjustments under
// the same cap.
func TestWindowAdjustmentSurvivesCheckpointLog(t *testing.T) {
	cfg := testConfig(Hybrid)
	cfg.MaxCreditWindow = 32
	blob, err := EncodeConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var log []byte
	for _, rec := range []*wire.CkptRecord{
		{Kind: wire.CkptHeader, Version: wire.CkptVersion, CfgBlob: blob},
		{Kind: wire.CkptDelivery, From: 9, To: 1, Worker: 0, Seq: 5, Msg: &chunkAck{Rel: tuple.RelR, Adjust: windowWiden}},
		{Kind: wire.CkptDelivery, From: 9, To: 1, Worker: 0, Seq: 6, Msg: &chunkAck{Rel: tuple.RelR, Adjust: windowNarrow}},
	} {
		if log, err = wire.AppendCheckpointRecord(log, rec); err != nil {
			t.Fatal(err)
		}
	}
	recs, torn, err := wire.ReadCheckpoint(bytes.NewReader(log))
	if err != nil || torn || len(recs) != 3 {
		t.Fatalf("read back %d records, torn %v, err %v", len(recs), torn, err)
	}
	rs, err := PrepareResume(recs[0].CfgBlob)
	if err != nil {
		t.Fatal(err)
	}
	if got := rs.Config().MaxCreditWindow; got != 32 {
		t.Errorf("restored config has MaxCreditWindow %d, want 32", got)
	}
	for i, want := range []int8{windowWiden, windowNarrow} {
		if got := recs[1+i].Msg.(*chunkAck).Adjust; got != want {
			t.Errorf("logged ack %d replays adjustment %d, want %d", i, got, want)
		}
	}
}

func TestMaxCreditWindowValidation(t *testing.T) {
	cfg := testConfig(Split)
	n, err := cfg.normalized()
	if err != nil || n.MaxCreditWindow != creditWindow {
		t.Fatalf("default MaxCreditWindow %d (err %v), want the base window %d", n.MaxCreditWindow, err, creditWindow)
	}
	cfg.MaxCreditWindow = creditWindow - 1
	if _, err := cfg.normalized(); err == nil {
		t.Error("a cap below the base window was accepted")
	}
}

// ledgerEngine wraps an engine to check the flow-control pair invariant
// whenever the run is quiescent: at every phase barrier, for every source
// and every live join node, the credits the source holds equal the window
// the node advertises to it, inside [creditWindow, MaxCreditWindow]. With
// nothing in flight that is the whole ledger — credits held + chunks in
// flight + acks in flight = window. It can also kill one join node after it
// has absorbed a given number of build chunks; the dying node reports its
// own death, standing in for a failure detector on either engine.
//
// On the simulator every actor registers here. On tcpnet the coordinator
// discards the join actors Execute registers, and each worker builds its
// own through the factory, which hands them to host; a barrier reads them
// after Drain, and the socket reads and writes that carried the workers'
// reports order those reads after the workers' writes.
type ledgerEngine struct {
	rt.Engine
	t     *testing.T
	label string
	cfg   Config

	sched       *schedActor
	sources     []*sourceActor
	remoteJoins bool // the join actors run on workers: host records them

	mu    sync.Mutex // host runs on the worker goroutines
	joins []*joinActor

	victim      rt.NodeID // rt.NoNode: nobody dies
	killAfter   int
	barriers    int
	everWide    bool // some window stood above the base at a barrier
	everShrunk  bool // some node stood below the widest window it had advertised
	buildWidest int  // widest window any node advertised during the build phase
}

func (e *ledgerEngine) Register(id rt.NodeID, a rt.Actor) {
	switch act := a.(type) {
	case *schedActor:
		e.sched = act
	case *sourceActor:
		e.sources = append(e.sources, act)
	case *joinActor:
		if !e.remoteJoins {
			a = e.host(id, act)
		}
	}
	e.Engine.Register(id, a)
}

// host records join node id's actor and returns what should run in its
// place: the actor itself, or the victim's mortal wrapper.
func (e *ledgerEngine) host(id rt.NodeID, j *joinActor) rt.Actor {
	e.mu.Lock()
	e.joins = append(e.joins, j)
	e.mu.Unlock()
	if id == e.victim {
		return &mortalActor{inner: j, id: id, sched: e.cfg.schedulerID(), after: e.killAfter}
	}
	return j
}

func (e *ledgerEngine) Drain() error {
	if err := e.Engine.Drain(); err != nil {
		return err
	}
	e.barriers++
	base, limit := creditWindow, e.cfg.MaxCreditWindow
	e.mu.Lock()
	joins := e.joins
	e.mu.Unlock()
	for _, s := range e.sources {
		for _, j := range joins {
			if e.sched.deadNodes[j.id] {
				continue // both ends forgot it
			}
			credits, ok := s.credits[j.id]
			if !ok {
				credits = base
			}
			window, ok := j.windows[s.id]
			if !ok {
				window = base
			}
			if credits != window || window < base || window > limit {
				e.t.Errorf("%s: barrier %d: source %d holds %d credits for node %d, which advertises %d (bounds %d..%d)",
					e.label, e.barriers, s.id, credits, j.id, window, base, limit)
			}
			e.everWide = e.everWide || window > base
			e.everShrunk = e.everShrunk || int64(window) < j.stats.WidestWindow
			if e.barriers == 1 {
				e.buildWidest = max(e.buildWidest, int(j.stats.WidestWindow))
			}
		}
	}
	return nil
}

// mortalActor is a join node that dies — stops processing, loses whatever
// is sent to it — upon its after+1-th build chunk.
type mortalActor struct {
	inner rt.Actor
	id    rt.NodeID
	sched rt.NodeID
	after int
	dead  bool
}

func (m *mortalActor) Receive(env rt.Env, from rt.NodeID, msg rt.Message) {
	if m.dead {
		return
	}
	if dc, ok := msg.(*dataChunk); ok && dc.Chunk.Rel == tuple.RelR {
		if m.after == 0 {
			m.dead = true
			env.Send(m.sched, &nodeDead{Node: m.id})
			return
		}
		m.after--
	}
	m.inner.Receive(env, from, msg)
}

// TestWindowLedgerAcrossEnginesAndFaultPaths is the pair-invariant sweep:
// the simulator and a loopback tcpnet cluster × the three expanding
// algorithms × spill rung × heavy routing × a join node dying mid-build,
// every cell on randomised sizes, budgets, windows and seeds, every run
// checked at every barrier and against the reference join.
func TestWindowLedgerAcrossEnginesAndFaultPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(20260928))
	var widened, shrunk, died, spilled, heavy int
	for _, engine := range []string{"sim", "tcp"} {
		for _, alg := range []Algorithm{Split, Replication, Hybrid} {
			for cell := 0; cell < 8; cell++ {
				withSpill, withHeavy, withDeath := cell&1 != 0, cell&2 != 0, cell&4 != 0
				if raceEnabled && engine == "sim" && withHeavy {
					continue // the tcp half keeps every cell under the detector
				}
				cfg := Config{
					Algorithm:       alg,
					InitialNodes:    2,
					MaxNodes:        8,
					Sources:         1 + rng.Intn(3),
					ChunkTuples:     50 + rng.Intn(150),
					MaxCreditWindow: creditWindow + 1 + rng.Intn(30),
					MatchFraction:   0.5,
					Build:           datagen.Spec{Dist: datagen.Uniform, Tuples: int64(15_000 + rng.Intn(10_000)), Seed: rng.Uint64()},
					Probe:           datagen.Spec{Dist: datagen.Uniform, Tuples: int64(15_000 + rng.Intn(10_000)), Seed: rng.Uint64()},
				}
				// Two nodes' budgets hold 50–90 % of the build relation, so
				// every run overflows after its windows had room to widen.
				cfg.MemoryBudget = cfg.Build.Tuples * 100 / 2 * int64(50+rng.Intn(40)) / 100
				if withHeavy {
					cfg.Build.Dist, cfg.Build.ZipfS = datagen.Zipf, 1.1+0.3*rng.Float64()
					cfg.Probe.Dist = datagen.Correlated
					cfg.Build.Tuples, cfg.Probe.Tuples = cfg.Build.Tuples/3, cfg.Probe.Tuples/3
					cfg.MemoryBudget /= 3
					cfg.HeavyThreshold = 0.01
				}
				if withSpill {
					cfg.SpillEnabled = true
					cfg.MaxNodes = 3
				}
				victim := rt.NoNode
				if withDeath {
					cfg.MaxNodes++ // the replacement must not cost an expansion
				}
				label := fmt.Sprintf("%s/%v/spill=%v/heavy=%v/death=%v", engine, alg, withSpill, withHeavy, withDeath)
				ncfg, err := cfg.normalized()
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if withDeath {
					victim = ncfg.joinID(rng.Intn(2))
				}
				wantMatches, wantChecksum := referenceJoin(t, cfg)

				eng := &ledgerEngine{t: t, label: label, cfg: ncfg,
					victim: victim, killAfter: 2 + rng.Intn(6)}
				stop := func() {}
				if engine == "sim" {
					eng.Engine = sim.New(ncfg.Cost)
				} else {
					eng.remoteJoins = true
					eng.Engine, stop = StartTCP(t, ncfg, func(id rt.NodeID, a rt.Actor) rt.Actor {
						return eng.host(id, a.(*joinActor))
					})
				}
				rep, err := Execute(ncfg, eng)
				stop()
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if rep.Degraded {
					t.Fatalf("%s: a build-phase death must recover exactly, got a degraded run: %v", label, rep)
				}
				if rep.Matches != wantMatches || rep.Checksum != wantChecksum {
					t.Errorf("%s: result %d/%#x, want %d/%#x", label, rep.Matches, rep.Checksum, wantMatches, wantChecksum)
				}
				if eng.barriers < 3 { // build, probe and the statistics round at the least
					t.Errorf("%s: only %d barriers were checked", label, eng.barriers)
				}
				if withDeath && rep.NodesLost != 1 {
					t.Errorf("%s: %d nodes lost, want the victim", label, rep.NodesLost)
				}
				if rep.WidestWindow < creditWindow || rep.WidestWindow > int64(ncfg.MaxCreditWindow) {
					t.Errorf("%s: report says widest window %d, outside %d..%d", label, rep.WidestWindow, creditWindow, ncfg.MaxCreditWindow)
				}
				if eng.everWide {
					widened++
				}
				if eng.everShrunk {
					shrunk++
				}
				if rep.NodesLost > 0 {
					died++
				}
				if rep.SpilledPartitions > 0 {
					spilled++
				}
				if rep.HeavyKeys > 0 {
					heavy++
				}
			}
		}
	}
	// The sweep only pins the invariant if the mechanism and the fault paths
	// actually ran.
	if widened < 20 || shrunk < 10 || died < 10 || spilled < 6 || heavy < 6 {
		t.Errorf("coverage too thin: %d runs widened a window, %d narrowed one, %d lost a node, %d spilled, %d routed heavy keys",
			widened, shrunk, died, spilled, heavy)
	}
}

// TestExplicitCapEqualToBaseChangesNothing: a cap equal to the base window is
// the default, and the default is the fixed window — the simulator's report
// is identical field for field, expansion log, timings and wire totals
// included.
func TestExplicitCapEqualToBaseChangesNothing(t *testing.T) {
	for _, alg := range Algorithms() {
		for _, withSpill := range []bool{false, true} {
			cfg := testConfig(alg)
			if withSpill {
				cfg.MaxNodes = 3
				cfg.SpillEnabled = true
			}
			def, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.MaxCreditWindow = creditWindow
			explicit, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(def, explicit) {
				t.Errorf("%v spill=%v: explicit cap 4 changed the report:\n default %+v\nexplicit %+v", alg, withSpill, def, explicit)
			}
			if def.WidestWindow != 4 {
				t.Errorf("%v spill=%v: fixed-window run reports widest window %d, want 4", alg, withSpill, def.WidestWindow)
			}
		}
	}
}

// TestDeepWindowDoesNotDeepenOvershoot is the constraint the headroom rule
// exists for: on an undersized cluster that ends up spilling, a cap of 32
// must not change how much is evicted, nor let any node stand further over
// its budget when it reports overflow than the fixed window does
// (DESIGN.md §15).
func TestDeepWindowDoesNotDeepenOvershoot(t *testing.T) {
	for _, alg := range []Algorithm{Split, Replication, Hybrid} {
		cfg := testConfig(alg)
		cfg.MaxNodes = 3
		cfg.SpillEnabled = true
		cfg.ChunkTuples = 100 // 2 MiB of budget is 13 chunks per source at the quarter rule
		cfg.Build.Tuples, cfg.Probe.Tuples = 120_000, 60_000
		cfg.MemoryBudget = 2 << 20
		run := func(limit int) (*Report, int64, int) {
			t.Helper()
			c := cfg
			c.MaxCreditWindow = limit
			c, err := c.normalized()
			if err != nil {
				t.Fatal(err)
			}
			eng := &ledgerEngine{Engine: sim.New(c.Cost), t: t, label: alg.String(), cfg: c, victim: rt.NoNode}
			r, err := Execute(c, eng)
			if err != nil {
				t.Fatal(err)
			}
			var worst int64
			for _, ev := range r.Events {
				if ev.Kind == "memfull" && ev.Bytes > worst {
					worst = ev.Bytes
				}
			}
			return r, worst - c.MemoryBudget, eng.buildWidest
		}
		fixed, fixedOver, _ := run(creditWindow)
		deep, deepOver, deepWidest := run(32)
		if fixed.SpilledPartitions == 0 || deepWidest < 8 {
			t.Fatalf("%v: scenario is vacuous: %d partitions spilled, build-phase windows reached %d",
				alg, fixed.SpilledPartitions, deepWidest)
		}
		if deep.Matches != fixed.Matches || deep.Checksum != fixed.Checksum {
			t.Errorf("%v: result changed: %d/%#x vs %d/%#x", alg, deep.Matches, deep.Checksum, fixed.Matches, fixed.Checksum)
		}
		if deep.SpilledPartitions != fixed.SpilledPartitions || deep.FinalNodes != fixed.FinalNodes {
			t.Errorf("%v: cap 32 spilled %d partitions on %d nodes, the fixed window %d on %d",
				alg, deep.SpilledPartitions, deep.FinalNodes, fixed.SpilledPartitions, fixed.FinalNodes)
		}
		// Overflow is noticed a chunk at a time and the two runs interleave
		// their sources differently, so "no more" is to within one chunk.
		chunkBytes := int64(cfg.ChunkTuples * 100)
		if deepOver > fixedOver+chunkBytes {
			t.Errorf("%v: cap 32 stood %d bytes over budget at its worst overflow report, the fixed window %d",
				alg, deepOver, fixedOver)
		}
		t.Logf("%v: build windows reached %d; worst overshoot fixed %d, cap 32 %d bytes; spilled %d / %d partitions",
			alg, deepWidest, fixedOver, deepOver, fixed.SpilledPartitions, deep.SpilledPartitions)
	}
}

// encodingEnv stands in for the TCP coordinator on the source's side of the
// wire: every data chunk is serialised with the message codec session.encode
// calls (into one reused buffer, as the session's slabs are), released as
// the writer goroutine releases it, and acknowledged at once.
type encodingEnv struct {
	t       *testing.T
	src     *sourceActor
	buf     []byte
	pending []rt.NodeID // chunk destinations not yet acknowledged
	steps   int
	chunks  int
	ack     chunkAck
}

func (e *encodingEnv) Now() int64             { return 0 }
func (e *encodingEnv) ChargeCPU(int64)        {}
func (e *encodingEnv) ChargeDisk(int64, bool) {}
func (e *encodingEnv) Send(to rt.NodeID, m rt.Message) {
	switch msg := m.(type) {
	case *genStep:
		e.steps++
	case *dataChunk:
		var err error
		if e.buf, err = wire.AppendMessage(e.buf[:0], msg); err != nil {
			e.t.Fatal(err)
		}
		msg.Release()
		e.chunks++
		e.pending = append(e.pending, to)
	}
}

// pump runs the source until it has nothing left to do, returning credits
// as a prompt receiver would.
func (e *encodingEnv) pump() {
	for e.steps > 0 || len(e.pending) > 0 {
		for len(e.pending) > 0 {
			to := e.pending[0]
			e.pending = e.pending[1:]
			e.src.Receive(e, to, &e.ack)
		}
		if e.steps > 0 {
			e.steps--
			e.src.Receive(e, e.src.id, &genStep{})
		}
	}
}

// TestSourceSendPathAllocations is the coordinator-side allocation budget:
// from sourceActor.step through the message codec, a streaming source
// allocates at most 0.01 times per tuple — the per-chunk message header and
// queue bookkeeping, never a tuple array. (The parent commit allocated a
// 16 KB array per 1000-tuple chunk here and a 16 KB frame copy in
// session.encode; the session's half of the budget is pinned by
// TestSessionEncodeSteadyStateAllocatesNothing in internal/tcpnet.)
func TestSourceSendPathAllocations(t *testing.T) {
	const tuples = 400_000
	cfg, err := Config{
		Algorithm:       Hybrid,
		InitialNodes:    2,
		MaxNodes:        2,
		Sources:         1,
		MemoryBudget:    1 << 30,
		ChunkTuples:     1000,
		MaxCreditWindow: 32,
		Build:           datagen.Spec{Dist: datagen.Uniform, Tuples: tuples, Seed: 1},
		Probe:           datagen.Spec{Dist: datagen.Uniform, Tuples: tuples, Seed: 2},
		MatchFraction:   1,
	}.normalized()
	if err != nil {
		t.Fatal(err)
	}
	build, err := datagen.New(cfg.Build)
	if err != nil {
		t.Fatal(err)
	}
	probe, err := datagen.NewProbe(cfg.Probe, build, cfg.MatchFraction)
	if err != nil {
		t.Fatal(err)
	}
	table, err := hashfn.NewTable(cfg.Space, []int32{int32(cfg.joinID(0)), int32(cfg.joinID(1))})
	if err != nil {
		t.Fatal(err)
	}
	src := newSource(cfg, 0, build, probe)
	env := &encodingEnv{t: t, src: src}
	// The build relation warms the free list, the maps and the queues; the
	// probe relation is the measured steady state.
	src.Receive(env, rt.NoNode, &startBuild{Table: table})
	env.pump()
	env.chunks = 0
	probeTable := table.Clone()
	allocs := testing.AllocsPerRun(1, func() {
		src.Receive(env, rt.NoNode, &startProbe{Table: probeTable})
		env.pump()
	})
	if env.chunks < tuples/cfg.ChunkTuples {
		t.Fatalf("measured run shipped %d chunks, want at least %d", env.chunks, tuples/cfg.ChunkTuples)
	}
	perTuple := allocs / tuples
	t.Logf("%.0f allocations for %d tuples in %d chunks: %.4f per tuple", allocs, tuples, env.chunks, perTuple)
	if perTuple > 0.01 {
		t.Errorf("send path allocates %.4f times per tuple, budget is 0.01", perTuple)
	}
}
