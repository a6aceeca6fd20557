package core

import (
	"runtime"
	"testing"

	"ehjoin/internal/datagen"
	"ehjoin/internal/hashfn"
	rt "ehjoin/internal/runtime"
)

// creditEnv is a no-op env to a source: it releases every chunk, as a
// serialising transport does once the chunk is encoded, and keeps the
// chunk's credit for the next round of acks.
type creditEnv struct {
	acks, next []rt.NodeID
	steps      int
	chunks     int64
}

func (e *creditEnv) Now() int64             { return 0 }
func (e *creditEnv) ChargeCPU(int64)        {}
func (e *creditEnv) ChargeDisk(int64, bool) {}
func (e *creditEnv) Send(to rt.NodeID, m rt.Message) {
	switch msg := m.(type) {
	case *genStep:
		e.steps++
	case *dataChunk:
		msg.Release()
		e.chunks++
		e.acks = append(e.acks, to)
	}
}

// stream runs s until it has generated n more tuples, acknowledging every
// chunk before the next burst, and returns how many it generated.
func (e *creditEnv) stream(s *sourceActor, n int64) int64 {
	from := s.next
	ack := &chunkAck{Rel: s.phase}
	for s.next-from < n && (e.steps > 0 || len(e.acks) > 0) {
		e.acks, e.next = e.next[:0], e.acks
		for _, to := range e.next {
			s.Receive(e, to, ack)
		}
		if e.steps > 0 {
			e.steps--
			s.Receive(e, s.id, &genStep{})
		}
	}
	return s.next - from
}

// BenchmarkSourceStep times the source loop — generate, index, scatter
// into chunk builders, cut and ship — for each phase, with 16 destinations
// and the command lines' MatchFraction 1. An op is one tuple, so ns/op is
// the cost per tuple; allocs/chunk counts every allocation the steady state
// makes per chunk it ships, the chunk's message included.
func BenchmarkSourceStep(b *testing.B) {
	for _, phase := range []string{"build", "probe"} {
		b.Run(phase, func(b *testing.B) {
			const nodes = 16
			cfg, err := Config{
				Algorithm:     Hybrid,
				InitialNodes:  nodes,
				MaxNodes:      nodes,
				Sources:       1,
				MemoryBudget:  1 << 30,
				Build:         datagen.Spec{Dist: datagen.Uniform, Tuples: 1 << 40, Seed: 1},
				Probe:         datagen.Spec{Dist: datagen.Uniform, Tuples: 1 << 40, Seed: 2},
				MatchFraction: 1,
			}.normalized()
			if err != nil {
				b.Fatal(err)
			}
			build, err := datagen.New(cfg.Build)
			if err != nil {
				b.Fatal(err)
			}
			probe, err := datagen.NewProbe(cfg.Probe, build, cfg.MatchFraction)
			if err != nil {
				b.Fatal(err)
			}
			owners := make([]int32, nodes)
			for i := range owners {
				owners[i] = int32(cfg.joinID(i))
			}
			table, err := hashfn.NewTable(cfg.Space, owners)
			if err != nil {
				b.Fatal(err)
			}
			s := newSource(cfg, 0, build, probe)
			env := &creditEnv{}
			start := rt.Message(&startBuild{Table: table})
			if phase == "probe" {
				start = &startProbe{Table: table}
			}
			s.Receive(env, rt.NoNode, start)
			// Warm up: every builder cut, the free list stocked.
			env.stream(s, int64(64*nodes*cfg.ChunkTuples))

			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			chunks := env.chunks
			b.ResetTimer()
			tuples := env.stream(s, int64(b.N))
			b.StopTimer()
			runtime.ReadMemStats(&after)
			if tuples < int64(b.N) {
				b.Fatalf("source stopped after %d of %d tuples", tuples, b.N)
			}
			if shipped := env.chunks - chunks; shipped > 0 {
				b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(shipped), "allocs/chunk")
			}
		})
	}
}
