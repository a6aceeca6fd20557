package core

import (
	"testing"

	"ehjoin/internal/datagen"
	"ehjoin/internal/hashfn"
	rt "ehjoin/internal/runtime"
	"ehjoin/internal/tuple"
)

// sourceFixture builds a source with a two-node routing table and drives it
// through the scripted env.
func sourceFixture(t *testing.T, tuples int64) (*sourceActor, *scriptEnv, *hashfn.Table) {
	t.Helper()
	cfg := Config{
		Algorithm:    Replication,
		InitialNodes: 2,
		MaxNodes:     4,
		Sources:      1,
		MemoryBudget: 1 << 30,
		ChunkTuples:  10,
		Build:        datagen.Spec{Dist: datagen.Uniform, Tuples: tuples, Seed: 5},
		Probe:        datagen.Spec{Dist: datagen.Uniform, Tuples: tuples, Seed: 6},
	}
	cfg, err := cfg.normalized()
	if err != nil {
		t.Fatal(err)
	}
	build, err := datagen.New(cfg.Build)
	if err != nil {
		t.Fatal(err)
	}
	probe, err := datagen.NewProbe(cfg.Probe, build, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := newSource(cfg, 0, build, probe)
	table, err := hashfn.NewTable(cfg.Space, []int32{int32(cfg.joinID(0)), int32(cfg.joinID(1))})
	if err != nil {
		t.Fatal(err)
	}
	return s, &scriptEnv{}, table
}

// drive pumps genStep self-messages until the source stops rescheduling.
func drive(s *sourceActor, env *scriptEnv) []scriptSend {
	var all []scriptSend
	s.Receive(env, rt.NoNode, &startBuild{Table: s.table})
	for {
		sends := env.take()
		all = append(all, sends...)
		again := false
		for _, snd := range sends {
			if _, ok := snd.msg.(*genStep); ok && snd.to == s.id {
				again = true
			}
		}
		if !again {
			return all
		}
		s.Receive(env, s.id, &genStep{})
	}
}

func TestSourceRespectsCreditWindow(t *testing.T) {
	s, env, table := sourceFixture(t, 1000) // 100 chunks' worth of tuples
	s.table = table
	sends := drive(s, env)
	// At most creditWindow data chunks per destination may be in flight.
	counts := map[rt.NodeID]int{}
	for _, snd := range sends {
		if _, ok := snd.msg.(*dataChunk); ok {
			counts[snd.to]++
		}
	}
	for dest, n := range counts {
		if n > creditWindow {
			t.Errorf("destination %d received %d chunks without credit", dest, n)
		}
	}
	if !s.stalled {
		t.Error("source should be stalled on backpressure")
	}
	if s.doneSent {
		t.Error("done sent while chunks still queued")
	}
}

func TestSourceResumesOnCredit(t *testing.T) {
	s, env, table := sourceFixture(t, 1000)
	s.table = table
	shipped := 0
	for _, snd := range drive(s, env) {
		if m, ok := snd.msg.(*dataChunk); ok {
			shipped += len(m.Chunk.Tuples)
		}
	}
	// Feed credits until the relation fully ships.
	for i := 0; i < 1000 && !s.doneSent; i++ {
		for _, dest := range []rt.NodeID{s.cfg.joinID(0), s.cfg.joinID(1)} {
			s.Receive(env, dest, &chunkAck{Rel: tuple.RelR})
		}
		for _, snd := range env.take() {
			switch m := snd.msg.(type) {
			case *dataChunk:
				shipped += len(m.Chunk.Tuples)
			case *genStep:
				s.Receive(env, s.id, &genStep{})
			}
		}
	}
	if !s.doneSent {
		t.Fatal("source never finished")
	}
	if shipped != 1000 {
		t.Errorf("shipped %d tuples, want the whole 1000-tuple slice", shipped)
	}
}

func TestSourceProbeBroadcastCountsExtraCopies(t *testing.T) {
	s, env, table := sourceFixture(t, 200)
	table.AddReplica(0, int32(s.cfg.joinID(2)))
	table.AddReplica(0, int32(s.cfg.joinID(3)))
	s.table = table
	s.Receive(env, rt.NoNode, &startProbe{Table: table})
	for {
		sends := env.take()
		again := false
		for _, snd := range sends {
			if _, ok := snd.msg.(*genStep); ok {
				again = true
			}
		}
		if !again {
			break
		}
		s.Receive(env, s.id, &genStep{})
	}
	// Entry 0 has three owners: every probe tuple hashed there counts two
	// extra copies.
	if s.stats.ProbeExtraCopies == 0 {
		t.Error("no extra probe copies counted for a replicated range")
	}
	if s.stats.ProbeExtraCopies%2 != 0 {
		t.Errorf("extra copies %d not a multiple of 2 (replica count - 1)", s.stats.ProbeExtraCopies)
	}
}

func TestSourceIgnoresStaleRouteUpdate(t *testing.T) {
	s, env, table := sourceFixture(t, 100)
	s.table = table
	newer := table.Clone()
	newer.AddReplica(0, 99)
	s.Receive(env, rt.NoNode, &routeUpdate{Table: newer})
	if s.table != newer {
		t.Fatal("newer table not adopted")
	}
	s.Receive(env, rt.NoNode, &routeUpdate{Table: table}) // stale
	if s.table != newer {
		t.Error("stale table overwrote newer one")
	}
}

func TestSourceStatsReply(t *testing.T) {
	s, env, table := sourceFixture(t, 100)
	s.table = table
	s.Receive(env, rt.NoNode, &statsReq{})
	one[*sourceStats](t, env.take(), rt.NoNode)
}

// pinRun delivers m to s, then every genStep and chunk credit the source
// asks for until it is quiet, and checks that each data chunk leaves at the
// instant charging GenNs per tuple, before generating it, gives it:
// GenNs × the tuples generated so far, plus ChunkOverheadNs per chunk sent,
// on top of what was charged before the run. The tuples of the run are
// lo, lo+1, ...; generated reports how many of them exist after a Receive.
// A full chunk that leaves in the Receive generating its last tuple was
// cut by that tuple; any other chunk leaves after everything generated so
// far. pinRun returns the chunks sent.
func pinRun(t *testing.T, what string, s *sourceActor, env *scriptEnv, m rt.Message, lo int64, generated func() int64) []scriptSend {
	t.Helper()
	type delivery struct {
		from rt.NodeID
		msg  rt.Message
	}
	base := env.now
	var chunks []scriptSend
	inbox := []delivery{{rt.NoNode, m}}
	genBefore := int64(0)
	for len(inbox) > 0 {
		in := inbox[0]
		inbox = inbox[1:]
		s.Receive(env, in.from, in.msg)
		genAfter := generated()
		for _, snd := range env.take() {
			switch msg := snd.msg.(type) {
			case *genStep:
				inbox = append(inbox, delivery{s.id, &genStep{}})
			case *dataChunk:
				chunks = append(chunks, snd)
				gen := genAfter
				ts := msg.Chunk.Tuples
				if last := int64(ts[len(ts)-1].Index) - lo + 1; len(ts) == s.cfg.ChunkTuples && last > genBefore {
					gen = last
				}
				want := base + s.cfg.Cost.GenNs*gen + s.cfg.Cost.ChunkOverheadNs*int64(len(chunks))
				if snd.at != want {
					t.Fatalf("%s: chunk %d to node %d (%d tuples, last %d) left at %d ns, want %d (%d tuples generated, %d chunks)",
						what, len(chunks), snd.to, len(ts), ts[len(ts)-1].Index, snd.at, want, gen, len(chunks))
				}
				inbox = append(inbox, delivery{snd.to, &chunkAck{Rel: msg.Chunk.Rel}})
			}
		}
		genBefore = genAfter
	}
	return chunks
}

// TestSourceChargesEveryTupleBeforeItsChunkLeaves pins the virtual instant
// at which every data chunk leaves a source, across sub-batch and burst
// boundaries: the build phase, a replay of a lost range, and a probe phase
// that broadcasts to replicas and routes heavy keys round-robin.
func TestSourceChargesEveryTupleBeforeItsChunkLeaves(t *testing.T) {
	const tuples = 6000
	cfg, err := Config{
		Algorithm:    Hybrid,
		InitialNodes: 4,
		MaxNodes:     8,
		Sources:      1,
		MemoryBudget: 1 << 30,
		ChunkTuples:  300, // a burst is 600 tuples: one full sub-batch and part of another
		Build:        datagen.Spec{Dist: datagen.Zipf, ZipfS: 1.1, Tuples: tuples, Seed: 5},
		Probe:        datagen.Spec{Dist: datagen.Correlated, Tuples: tuples, Seed: 6},
	}.normalized()
	if err != nil {
		t.Fatal(err)
	}
	build, err := datagen.New(cfg.Build)
	if err != nil {
		t.Fatal(err)
	}
	probe, err := datagen.NewProbe(cfg.Probe, build, 0)
	if err != nil {
		t.Fatal(err)
	}
	owners := make([]int32, cfg.InitialNodes)
	for i := range owners {
		owners[i] = int32(cfg.joinID(i))
	}
	table, err := hashfn.NewTable(cfg.Space, owners)
	if err != nil {
		t.Fatal(err)
	}
	s := newSource(cfg, 0, build, probe)
	env := &scriptEnv{}
	slice := datagen.SliceFor(tuples, 1, 0)
	next := func() int64 { return s.next - slice.Lo }

	sent := pinRun(t, "build", s, env, &startBuild{Table: table}, slice.Lo, next)
	if len(sent) < tuples/cfg.ChunkTuples || !s.doneSent {
		t.Fatalf("build phase sent %d chunks, done %v", len(sent), s.doneSent)
	}

	lost := table.Clone()
	lost.ReplaceOwner(0, 0, int32(cfg.joinID(4)))
	replay := &replayRange{Range: lost.Entries[0].Range, Table: lost}
	sent = pinRun(t, "replay", s, env, replay, slice.Lo, func() int64 { return slice.Hi - slice.Lo })
	if len(sent) < 2 {
		t.Fatalf("replay sent %d chunks, want several", len(sent))
	}

	// Heavy keys: the most frequent probe keys.
	freq := map[uint64]int{}
	ts := make([]tuple.Tuple, tuples)
	probe.Fill(0, ts)
	for _, tp := range ts {
		freq[tp.Key]++
	}
	var heavy []uint64
	for k, n := range freq {
		if n >= tuples/100 {
			heavy = append(heavy, k)
		}
	}
	if len(heavy) == 0 {
		t.Fatal("no probe key carries 1% of the relation")
	}
	s.Receive(env, rt.NoNode, &heavyAssign{Keys: heavy})
	replicated := lost.Clone()
	replicated.AddReplica(1, int32(cfg.joinID(5)))
	replicated.AddReplica(1, int32(cfg.joinID(6)))
	sent = pinRun(t, "probe", s, env, &startProbe{Table: replicated}, slice.Lo, next)
	heavyTo := map[uint64]map[rt.NodeID]bool{}
	for _, snd := range sent {
		for _, tp := range snd.msg.(*dataChunk).Chunk.Tuples {
			if freq[tp.Key] >= tuples/100 {
				if heavyTo[tp.Key] == nil {
					heavyTo[tp.Key] = map[rt.NodeID]bool{}
				}
				heavyTo[tp.Key][snd.to] = true
			}
		}
	}
	spread := 0
	for _, to := range heavyTo {
		spread = max(spread, len(to))
	}
	if spread < 3 {
		t.Errorf("heavy keys reached at most %d nodes, want round-robin over the table's", spread)
	}
	if s.stats.ProbeExtraCopies == 0 {
		t.Error("no probe tuple was broadcast to a replica")
	}
	if !s.doneSent {
		t.Error("probe phase never finished")
	}
}
