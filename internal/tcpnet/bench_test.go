package tcpnet_test

import (
	"testing"

	"ehjoin/internal/cluster"
	"ehjoin/internal/core"
	"ehjoin/internal/datagen"
)

// BenchmarkTCPJoinThroughput runs a full distributed hybrid join over real
// localhost sockets — two worker loops, coordinator-hosted sources and
// scheduler — and reports end-to-end tuple throughput.
func BenchmarkTCPJoinThroughput(b *testing.B) {
	cfg := core.Config{
		Algorithm:     core.Hybrid,
		InitialNodes:  2,
		MaxNodes:      4,
		Sources:       2,
		MemoryBudget:  64 << 20,
		ChunkTuples:   10_000,
		Build:         datagen.Spec{Dist: datagen.Uniform, Tuples: 200_000, Seed: 920},
		Probe:         datagen.Spec{Dist: datagen.Uniform, Tuples: 200_000, Seed: 921},
		MatchFraction: 1.0,
	}
	tuples := cfg.Build.Tuples + cfg.Probe.Tuples
	for i := 0; i < b.N; i++ {
		l, conns, ws := startWorkers(b, 2)
		res, err := runCluster(b, cfg, l, conns, ws, cluster.Setup{})
		if err != nil {
			b.Fatal(err)
		}
		if res.Matches == 0 {
			b.Fatal("join produced no matches")
		}
	}
	b.ReportMetric(float64(tuples)*float64(b.N)/b.Elapsed().Seconds(), "tuples/sec")
}
