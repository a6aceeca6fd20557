package core

import (
	"runtime"
	"testing"

	"ehjoin/internal/hashfn"
	rt "ehjoin/internal/runtime"
	"ehjoin/internal/tuple"
)

// BenchmarkSpillOrders times what a join node does on a spill order: 20
// orders, one victim partition each, against a node holding 250 k staged
// build tuples whose rung is already engaged. An order is a decision over
// the 32 per-partition counts — a fraction of a microsecond and no
// allocation beyond the ack — so an order that walks the table again
// (≈ 1 ms per pass at this size) shows as a jump of three orders of
// magnitude, not as noise.
func BenchmarkSpillOrders(b *testing.B) {
	const tuples, orders = 250_000, 20
	cfg := actorConfig(Replication)
	cfg.SpillEnabled = true
	cfg.MemoryBudget = 1 << 40 // never over budget: each order's target decides
	table, _ := hashfn.NewTable(cfg.Space, []int32{int32(cfg.joinID(0))})
	chunk := &tuple.Chunk{Rel: tuple.RelR, Layout: cfg.Build.Layout, Tuples: make([]tuple.Tuple, tuples)}
	for i := range chunk.Tuples {
		chunk.Tuples[i] = tuple.Tuple{Index: uint64(i), Key: uint64(i) * 0x9E3779B97F4A7C15}
	}
	var before, after runtime.MemStats
	var mallocs uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		j := newJoin(cfg, cfg.joinID(0))
		env := &scriptEnv{}
		j.Receive(env, rt.NoNode, &joinInit{Range: table.Entries[0].Range, Table: table})
		j.Receive(env, rt.NoNode, &dataChunk{Chunk: chunk, Origin: rt.NoNode})
		j.Receive(env, rt.NoNode, &spillOrder{TargetBytes: 1}) // engages the rung: the one table walk
		runtime.ReadMemStats(&before)
		b.StartTimer()
		for o := 0; o < orders; o++ {
			j.Receive(env, rt.NoNode, &spillOrder{TargetBytes: 1})
		}
		b.StopTimer()
		runtime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs
		if got := j.spillRung.SpilledPartitions(); got != orders+1 || j.table.Count() != tuples {
			b.Fatalf("%d partitions evicted by %d orders, table holds %d of %d tuples", got, orders+1, j.table.Count(), tuples)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*orders), "ns/order")
	b.ReportMetric(float64(mallocs)/float64(b.N*orders), "allocs/order")
}
