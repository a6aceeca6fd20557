package core

import (
	"runtime"
	"testing"

	"ehjoin/internal/datagen"
)

// TestSimulatorRunAllocationCeiling pins the heap bytes a small simulator
// join allocates per tuple (ROADMAP item 14). The simulator hands each
// chunk to its join node, which releases it once stored or probed, so the
// sources cut their next chunks into the same arrays. The run measures
// 24.0 bytes per tuple; without the join node's releases it allocates
// 36.8, so the ceiling sits in between. (Both read 7 bytes more when the
// table's seal allocated every slot page new instead of reusing staging
// blocks.)
func TestSimulatorRunAllocationCeiling(t *testing.T) {
	const ceiling = 30.0 // bytes per build or probe tuple
	cfg := Config{
		Algorithm:     Hybrid,
		InitialNodes:  2,
		MaxNodes:      2,
		Sources:       4,
		MemoryBudget:  1 << 30,
		ChunkTuples:   1000,
		Build:         datagen.Spec{Dist: datagen.Uniform, Tuples: 200_000, Seed: 101},
		Probe:         datagen.Spec{Dist: datagen.Uniform, Tuples: 200_000, Seed: 202},
		MatchFraction: 1,
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	rep, err := Run(cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Matches != uint64(cfg.Probe.Tuples) {
		t.Fatalf("%d matches, want %d", rep.Matches, cfg.Probe.Tuples)
	}
	perTuple := float64(after.TotalAlloc-before.TotalAlloc) / float64(cfg.Build.Tuples+cfg.Probe.Tuples)
	if perTuple > ceiling {
		t.Errorf("the run allocated %.1f bytes per tuple, ceiling %.0f: are consumed chunks still released?", perTuple, ceiling)
	}
}
