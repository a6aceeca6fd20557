package core

import (
	"testing"

	"ehjoin/internal/datagen"
	"ehjoin/internal/live"
	"ehjoin/internal/spill"
)

// TestLiveEngineMatchesSimulator runs every algorithm, and the out-of-core
// baseline under both policies, on the goroutine engine (real concurrency,
// nondeterministic interleaving) and checks the join result is
// bit-identical to the simulator's and to the reference join.
// Timing-dependent statistics (node loads, forwarded chunks) may
// legitimately differ; the result must not.
func TestLiveEngineMatchesSimulator(t *testing.T) {
	var cfgs []Config
	for _, alg := range Algorithms() {
		cfgs = append(cfgs, testConfig(alg))
	}
	hybridHash := testConfig(OutOfCore)
	hybridHash.OOCPolicy = spill.HybridHash
	for _, cfg := range append(cfgs, hybridHash) {
		name := cfg.Algorithm.String()
		if cfg.OOCPolicy == spill.HybridHash {
			name += "-hybrid-hash"
		}
		t.Run(name, func(t *testing.T) {
			wantMatches, wantChecksum := referenceJoin(t, cfg)

			simRep, err := Run(cfg)
			if err != nil {
				t.Fatalf("sim: %v", err)
			}
			eng := live.New()
			defer eng.Close()
			liveRep, err := Execute(cfg, eng)
			if err != nil {
				t.Fatalf("live: %v", err)
			}
			if liveRep.Matches != wantMatches || liveRep.Checksum != wantChecksum {
				t.Errorf("live result %d/%#x, want %d/%#x",
					liveRep.Matches, liveRep.Checksum, wantMatches, wantChecksum)
			}
			if liveRep.Matches != simRep.Matches || liveRep.Checksum != simRep.Checksum {
				t.Errorf("live and sim disagree: %d/%#x vs %d/%#x",
					liveRep.Matches, liveRep.Checksum, simRep.Matches, simRep.Checksum)
			}
			if cfg.Algorithm == OutOfCore && liveRep.SpillWrittenBytes == 0 {
				t.Error("the out-of-core run never spilled: the case is vacuous")
			}
		})
	}
}

// TestLiveEngineSpillMatchesSimulator runs the undersized spill scenario on
// the goroutine engine: eviction orders, spilled build/probe streams, and
// the disk-side finish must produce the simulator's exact result under real
// concurrency too.
func TestLiveEngineSpillMatchesSimulator(t *testing.T) {
	for _, alg := range []Algorithm{Split, Replication, Hybrid} {
		t.Run(alg.String(), func(t *testing.T) {
			cfg := testConfig(alg)
			cfg.MaxNodes = 3
			cfg.SpillEnabled = true
			wantMatches, wantChecksum := referenceJoin(t, cfg)

			simRep, err := Run(cfg)
			if err != nil {
				t.Fatalf("sim: %v", err)
			}
			if simRep.SpilledPartitions == 0 {
				t.Fatal("scenario did not engage the spill rung")
			}
			eng := live.New()
			defer eng.Close()
			liveRep, err := Execute(cfg, eng)
			if err != nil {
				t.Fatalf("live: %v", err)
			}
			if liveRep.Matches != wantMatches || liveRep.Checksum != wantChecksum {
				t.Errorf("live result %d/%#x, want %d/%#x",
					liveRep.Matches, liveRep.Checksum, wantMatches, wantChecksum)
			}
			if liveRep.Matches != simRep.Matches || liveRep.Checksum != simRep.Checksum {
				t.Errorf("live and sim disagree: %d/%#x vs %d/%#x",
					liveRep.Matches, liveRep.Checksum, simRep.Matches, simRep.Checksum)
			}
			if liveRep.SpilledPartitions == 0 || liveRep.ExhaustedResources {
				t.Errorf("live spill state wrong: partitions=%d exhausted=%v",
					liveRep.SpilledPartitions, liveRep.ExhaustedResources)
			}
		})
	}
}

// TestLiveEngineSkewed exercises the live engine under the extreme-skew
// workload, where replication chains and reshuffling are deepest.
func TestLiveEngineSkewed(t *testing.T) {
	for _, alg := range Algorithms() {
		cfg := testConfig(alg)
		cfg.Build = datagen.Spec{Dist: datagen.Gaussian, Mean: 0.5, Sigma: 0.0001, Tuples: 30_000, Seed: 77}
		cfg.Probe = datagen.Spec{Dist: datagen.Gaussian, Mean: 0.5, Sigma: 0.0001, Tuples: 30_000, Seed: 88}
		t.Run(alg.String(), func(t *testing.T) {
			wantMatches, wantChecksum := referenceJoin(t, cfg)
			eng := live.New()
			defer eng.Close()
			rep, err := Execute(cfg, eng)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Matches != wantMatches || rep.Checksum != wantChecksum {
				t.Errorf("result %d/%#x, want %d/%#x", rep.Matches, rep.Checksum, wantMatches, wantChecksum)
			}
		})
	}
}

// TestLiveEngineRepeated runs the live engine several times to shake out
// interleaving-dependent protocol bugs.
func TestLiveEngineRepeated(t *testing.T) {
	if testing.Short() {
		t.Skip("repetition loop skipped in -short mode")
	}
	cfg := testConfig(Hybrid)
	cfg.Build.Tuples = 20_000
	cfg.Probe.Tuples = 20_000
	wantMatches, wantChecksum := referenceJoin(t, cfg)
	for i := 0; i < 5; i++ {
		eng := live.New()
		rep, err := Execute(cfg, eng)
		if err != nil {
			eng.Close()
			t.Fatalf("iteration %d: %v", i, err)
		}
		if rep.Matches != wantMatches || rep.Checksum != wantChecksum {
			t.Errorf("iteration %d: result %d/%#x, want %d/%#x",
				i, rep.Matches, rep.Checksum, wantMatches, wantChecksum)
		}
		eng.Close()
	}
}
