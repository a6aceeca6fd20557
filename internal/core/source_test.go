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
