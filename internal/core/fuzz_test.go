package core

import (
	"math/rand"
	"testing"

	"ehjoin/internal/datagen"
	"ehjoin/internal/hashfn"
	rt "ehjoin/internal/runtime"
	"ehjoin/internal/spill"
	"ehjoin/internal/tuple"
)

// TestRandomizedConfigurations drives the whole protocol through random
// parameter space — algorithm, node counts, budgets, chunk sizes, source
// counts, distributions, tuple sizes, match fractions, hash modes, spill
// policies — and requires every run to (a) complete, (b) satisfy the
// conservation invariants enforced inside Execute, and (c) produce exactly
// the reference join result.
func TestRandomizedConfigurations(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized sweep skipped in -short mode")
	}
	const iterations = 60
	rng := rand.New(rand.NewSource(20260704))
	for it := 0; it < iterations; it++ {
		fuzzOneConfig(t, rng, it)
	}
}

// TestRandomizedHeavyConfigurations sweeps the skew matrix: Zipf builds at
// random exponents, Zipf or fully correlated probes, random heavy
// thresholds — every run must still produce exactly the reference join
// result, whatever mix of splits, replication chains, reshuffles, and
// heavy replication the draw provokes.
func TestRandomizedHeavyConfigurations(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized sweep skipped in -short mode")
	}
	iterations := 30
	if raceEnabled {
		iterations = 12
	}
	rng := rand.New(rand.NewSource(20260704 + 2))
	for it := 0; it < iterations; it++ {
		algs := []Algorithm{Split, Replication, Hybrid}
		alg := algs[rng.Intn(len(algs))]
		maxNodes := 2 + rng.Intn(10)
		zipfS := 1.05 + 0.7*rng.Float64()
		build := datagen.Spec{
			Dist: datagen.Zipf, ZipfS: zipfS,
			Tuples: int64(5_000 + rng.Intn(25_000)), Seed: uint64(3000 + it),
		}
		probe := datagen.Spec{
			Dist:   datagen.Correlated,
			Tuples: int64(5_000 + rng.Intn(25_000)), Seed: uint64(4000 + it),
		}
		if rng.Intn(2) == 0 {
			probe.Dist, probe.ZipfS = datagen.Zipf, zipfS
		}
		cfg := Config{
			Algorithm:      alg,
			InitialNodes:   1 + rng.Intn(maxNodes),
			MaxNodes:       maxNodes,
			Sources:        1 + rng.Intn(4),
			MemoryBudget:   int64(128<<10 + rng.Intn(1<<20)),
			ChunkTuples:    64 + rng.Intn(2000),
			Build:          build,
			Probe:          probe,
			MatchFraction:  rng.Float64(),
			HeavyThreshold: []float64{0.005, 0.01, 0.02, 0.05}[rng.Intn(4)],
		}
		if rng.Intn(3) == 0 {
			cfg.SpillEnabled = true
		}
		// These two draws used to pick Config.Cores; they stay so that every
		// later draw, and so every iteration's configuration, is unchanged.
		if rng.Intn(4) == 0 {
			rng.Intn(2)
		}
		wantMatches, wantChecksum := referenceJoin(t, cfg)
		r, err := Run(cfg)
		if err != nil {
			t.Fatalf("iteration %d (%v, J=%d/%d, s=%.2f, thr=%g): %v",
				it, alg, cfg.InitialNodes, maxNodes, zipfS, cfg.HeavyThreshold, err)
		}
		if r.Matches != wantMatches || r.Checksum != wantChecksum {
			t.Fatalf("iteration %d (%v, J=%d/%d, s=%.2f, thr=%g): result %d/%#x, want %d/%#x",
				it, alg, cfg.InitialNodes, maxNodes, zipfS, cfg.HeavyThreshold,
				r.Matches, r.Checksum, wantMatches, wantChecksum)
		}
	}
}

func fuzzOneConfig(t *testing.T, rng *rand.Rand, it int) {
	t.Helper()
	{
		algs := Algorithms()
		alg := algs[rng.Intn(len(algs))]
		maxNodes := 2 + rng.Intn(14)
		initial := 1 + rng.Intn(maxNodes)
		rTuples := int64(1_000 + rng.Intn(40_000))
		sTuples := int64(1_000 + rng.Intn(40_000))
		tupleSize := 16 + rng.Intn(400)
		spec := func(seed uint64) datagen.Spec {
			s := datagen.Spec{
				Dist: datagen.Uniform, Tuples: rTuples, Seed: seed,
				Layout: tuple.LayoutForTupleSize(tupleSize),
			}
			if rng.Intn(2) == 0 {
				s.Dist = datagen.Gaussian
				s.Mean = 0.2 + 0.6*rng.Float64()
				s.Sigma = []float64{0.1, 0.01, 0.001, 0.0001}[rng.Intn(4)]
			}
			return s
		}
		cfg := Config{
			Algorithm:     alg,
			InitialNodes:  initial,
			MaxNodes:      maxNodes,
			Sources:       1 + rng.Intn(6),
			MemoryBudget:  int64(64<<10 + rng.Intn(2<<20)),
			Space:         hashfn.Space{Bits: uint(8 + rng.Intn(9))},
			ChunkTuples:   64 + rng.Intn(2000),
			Build:         spec(uint64(1000 + it)),
			Probe:         spec(uint64(2000 + it)),
			MatchFraction: rng.Float64(),
		}
		cfg.Probe.Tuples = sTuples
		if rng.Intn(2) == 0 {
			cfg.OOCPolicy = spill.HybridHash
		}
		if rng.Intn(4) == 0 {
			cfg.Cost = rt.OSUMed()
			cfg.Cost.BlockingMigration = true
		}
		if alg != OutOfCore && rng.Intn(3) == 0 {
			cfg.MaterializeOutput = true
		}

		wantMatches, wantChecksum := referenceJoin(t, cfg)
		r, err := Run(cfg)
		if err != nil {
			t.Fatalf("iteration %d (%v, J=%d/%d, budget=%d): %v",
				it, alg, initial, maxNodes, cfg.MemoryBudget, err)
		}
		if r.Matches != wantMatches || r.Checksum != wantChecksum {
			t.Fatalf("iteration %d (%v, J=%d/%d): result %d/%#x, want %d/%#x",
				it, alg, initial, maxNodes, r.Matches, r.Checksum, wantMatches, wantChecksum)
		}
	}
}
