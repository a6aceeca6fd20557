package core

import (
	"testing"

	"ehjoin/internal/datagen"
	"ehjoin/internal/metrics"
	rt "ehjoin/internal/runtime"
)

// Heavy-hitter routing tests (DESIGN.md §11): the Zipf/correlated scenario
// matrix. Heavy routing is a pure routing transformation — replicate a
// heavy key's build tuples across its serving group, then partition its
// probe tuples round-robin instead of broadcasting — so every scenario
// must produce the exact Matches/Checksum of the heavy-off run, and of the
// map-based reference join.

// heavyScenarios is the skew matrix: probe-side Zipf at two exponents plus
// the fully build-correlated stream.
var heavyScenarios = []struct {
	name  string
	probe datagen.Dist
	zipfS float64
}{
	{"zipf1.1", datagen.Zipf, 1.1},
	{"zipf1.5", datagen.Zipf, 1.5},
	{"correlated", datagen.Correlated, 1.5},
}

// heavyConfig builds a skewed workload: the build relation is Zipf (so
// heavy keys exist to detect) and the probe relation follows the scenario.
// The cluster is small (2→10 nodes, 3 sources, 400 KB budget), so expansion
// protocols engage under the skew.
func heavyConfig(alg Algorithm, probe datagen.Dist, zipfS float64, seed uint64) Config {
	cfg := Config{
		Algorithm:     alg,
		InitialNodes:  2,
		MaxNodes:      10,
		Sources:       3,
		MemoryBudget:  400 << 10,
		ChunkTuples:   1000,
		Build:         datagen.Spec{Dist: datagen.Zipf, ZipfS: zipfS, Tuples: 30_000, Seed: seed},
		Probe:         datagen.Spec{Dist: probe, Tuples: 30_000, Seed: seed + 1},
		MatchFraction: 0.5,
	}
	if probe == datagen.Zipf {
		cfg.Probe.ZipfS = zipfS
	}
	return cfg
}

// TestHeavyRoutingOracle runs every expanding algorithm × scenario × seed
// with heavy routing off and on, and demands bit-identical join results —
// against each other and against the map-based reference — plus identical
// per-node build loads (replicated copies must stay out of the
// conservation ledger).
func TestHeavyRoutingOracle(t *testing.T) {
	seedMax := uint64(33)
	if raceEnabled {
		seedMax = 11 // one seed per cell keeps the race run inside CI's budget
	}
	for _, alg := range []Algorithm{Split, Replication, Hybrid} {
		for _, sc := range heavyScenarios {
			for seed := uint64(11); seed <= seedMax; seed += 11 {
				alg, sc, seed := alg, sc, seed
				t.Run(alg.String()+"/"+sc.name, func(t *testing.T) {
					cfg := heavyConfig(alg, sc.probe, sc.zipfS, seed)
					wantMatches, wantChecksum := referenceJoin(t, cfg)

					off, err := Run(cfg)
					if err != nil {
						t.Fatalf("heavy off: %v", err)
					}
					if off.Matches != wantMatches || off.Checksum != wantChecksum {
						t.Fatalf("heavy-off run wrong before comparing: %d/%#x, want %d/%#x",
							off.Matches, off.Checksum, wantMatches, wantChecksum)
					}
					if off.HeavyKeys != 0 || off.HeavyProbeTuples != 0 {
						t.Fatalf("heavy-off run reports heavy activity: %d keys, %d probes",
							off.HeavyKeys, off.HeavyProbeTuples)
					}

					cfg.HeavyThreshold = 0.02
					on, err := Run(cfg)
					if err != nil {
						t.Fatalf("heavy on: %v", err)
					}
					if on.Matches != wantMatches || on.Checksum != wantChecksum {
						t.Errorf("heavy-on result %d/%#x, want %d/%#x",
							on.Matches, on.Checksum, wantMatches, wantChecksum)
					}
					if on.HeavyKeys == 0 {
						t.Error("no heavy keys detected on a Zipf build — detection never fired")
					}
					if on.HeavyProbeTuples == 0 {
						t.Error("heavy keys detected but no probe tuples took the partitioned path")
					}
					if got, want := int64sSum(on.NodeLoads), int64sSum(off.NodeLoads); got != want {
						t.Errorf("heavy-on stores %d build tuples, heavy-off %d — copies leaked into the ledger",
							got, want)
					}
				})
			}
		}
	}
}

func int64sSum(xs []int64) int64 {
	var s int64
	for _, x := range xs {
		s += x
	}
	return s
}

// TestHeavyRoutingSpillComposition runs heavy routing on an undersized
// cluster where the spill rung engages. Keys living in spilled partitions
// are exempt from heavy routing (their probes must keep flowing to the
// rung's probe files), and the join result must stay exact either way.
func TestHeavyRoutingSpillComposition(t *testing.T) {
	for _, alg := range []Algorithm{Split, Replication, Hybrid} {
		t.Run(alg.String(), func(t *testing.T) {
			cfg := heavyConfig(alg, datagen.Zipf, 1.5, 11)
			cfg.MaxNodes = 3 // undersized: the rung must engage
			cfg.SpillEnabled = true
			wantMatches, wantChecksum := referenceJoin(t, cfg)
			off, err := Run(cfg)
			if err != nil {
				t.Fatalf("heavy off: %v", err)
			}
			if off.Matches != wantMatches || off.Checksum != wantChecksum {
				t.Fatalf("heavy-off run wrong before comparing: %d/%#x, want %d/%#x",
					off.Matches, off.Checksum, wantMatches, wantChecksum)
			}
			if off.SpilledPartitions == 0 {
				t.Fatal("scenario did not engage the spill rung")
			}
			cfg.HeavyThreshold = 0.02
			on, err := Run(cfg)
			if err != nil {
				t.Fatalf("heavy on: %v", err)
			}
			if on.Matches != wantMatches || on.Checksum != wantChecksum {
				t.Errorf("heavy-on result %d/%#x, want %d/%#x",
					on.Matches, on.Checksum, wantMatches, wantChecksum)
			}
		})
	}
}

// TestHeavyRoutingMaterializedComposition composes heavy routing with
// materialised output (probe-phase expansion): probe recruits take over
// slots mid-probe, so heavy groups must survive routing-table changes.
func TestHeavyRoutingMaterializedComposition(t *testing.T) {
	for _, alg := range []Algorithm{Split, Replication, Hybrid} {
		t.Run(alg.String(), func(t *testing.T) {
			cfg := heavyConfig(alg, datagen.Correlated, 1.5, 55)
			cfg.MaterializeOutput = true
			cfg.MatchFraction = 1.0
			off, err := Run(cfg)
			if err != nil {
				t.Fatalf("heavy off: %v", err)
			}
			cfg.HeavyThreshold = 0.02
			on, err := Run(cfg)
			if err != nil {
				t.Fatalf("heavy on: %v", err)
			}
			if on.Matches != off.Matches || on.Checksum != off.Checksum {
				t.Errorf("heavy-on result %d/%#x, want %d/%#x",
					on.Matches, on.Checksum, off.Matches, off.Checksum)
			}
		})
	}
}

// TestHeavyRecoveryMatchesFaultFree kills a join node partway through the
// build on a Zipf workload with heavy routing armed. The death precedes
// detection, so recovery must leave a cluster on which detection then
// finds the same content-determined heavy set and the run finishes with
// the fault-free run's exact result.
func TestHeavyRecoveryMatchesFaultFree(t *testing.T) {
	for _, alg := range []Algorithm{Split, Replication, Hybrid} {
		t.Run(alg.String(), func(t *testing.T) {
			cfg := heavyConfig(alg, datagen.Zipf, 1.5, 11)
			cfg.HeavyThreshold = 0.02
			want, err := Run(cfg)
			if err != nil {
				t.Fatalf("fault-free run: %v", err)
			}
			if want.HeavyKeys == 0 {
				t.Fatal("scenario detected no heavy keys")
			}
			ref, err := Run(cfg)
			if err != nil {
				t.Fatalf("reference timing run: %v", err)
			}
			plan := FaultPlan{Faults: []Fault{{
				JoinNode:  0,
				AtSec:     ref.BuildSec * 0.4,
				DetectSec: 0.01,
			}}}
			got, err := RunWithFaults(cfg, plan)
			if err != nil {
				t.Fatalf("faulted run: %v", err)
			}
			if got.Degraded {
				t.Fatalf("build-phase death should recover exactly, got degraded (report: %v)", got)
			}
			if got.Matches != want.Matches || got.Checksum != want.Checksum {
				t.Errorf("result diverged: matches %d checksum %#x, want %d / %#x",
					got.Matches, got.Checksum, want.Matches, want.Checksum)
			}
			if got.NodesLost != 1 || got.NodesRecovered != 1 {
				t.Errorf("lost/recovered = %d/%d, want 1/1", got.NodesLost, got.NodesRecovered)
			}
			if got.HeavyKeys != want.HeavyKeys {
				t.Errorf("faulted run detected %d heavy keys, fault-free %d",
					got.HeavyKeys, want.HeavyKeys)
			}
			if got.HeavyProbeTuples == 0 {
				t.Error("no probe tuples took the partitioned path after recovery")
			}
		})
	}
}

// TestHeavyRoutingBalance is the acceptance experiment: Zipf 1.5 build
// with a fully correlated probe stream on four equal workers. Heavy-off,
// the node owning the top key's position absorbs ~45% of all probe
// tuples; heavy-on, the hot keys are served by the whole cluster and the
// max/mean per-node probe load must improve by at least 2×.
func TestHeavyRoutingBalance(t *testing.T) {
	cfg := Config{
		Algorithm:     Split,
		InitialNodes:  4,
		MaxNodes:      4,
		Sources:       4,
		MemoryBudget:  64 << 20, // roomy: no expansion, pure routing comparison
		ChunkTuples:   1000,
		Build:         datagen.Spec{Dist: datagen.Zipf, ZipfS: 1.5, Tuples: 40_000, Seed: 7},
		Probe:         datagen.Spec{Dist: datagen.Correlated, Tuples: 40_000, Seed: 8},
		MatchFraction: 1.0,
	}
	cfg.Cost = rt.OSUMed()

	off, err := Run(cfg)
	if err != nil {
		t.Fatalf("heavy off: %v", err)
	}
	cfg.HeavyThreshold = 0.005
	on, err := Run(cfg)
	if err != nil {
		t.Fatalf("heavy on: %v", err)
	}
	if on.Matches != off.Matches || on.Checksum != off.Checksum {
		t.Fatalf("heavy-on result %d/%#x, want %d/%#x",
			on.Matches, on.Checksum, off.Matches, off.Checksum)
	}
	offRatio := metrics.MaxMeanRatio(off.NodeProbeLoads)
	onRatio := metrics.MaxMeanRatio(on.NodeProbeLoads)
	t.Logf("probe max/mean: off %.3f (%v), on %.3f (%v), heavy keys %d",
		offRatio, off.NodeProbeLoads, onRatio, on.NodeProbeLoads, on.HeavyKeys)
	if on.HeavyKeys == 0 {
		t.Fatal("no heavy keys detected")
	}
	if offRatio < 1.5 {
		t.Fatalf("heavy-off run is not skewed enough to measure (max/mean %.3f)", offRatio)
	}
	if improvement := offRatio / onRatio; improvement < 2 {
		t.Errorf("max/mean probe-load improvement %.2fx (off %.3f, on %.3f), want >= 2x",
			improvement, offRatio, onRatio)
	}
}
