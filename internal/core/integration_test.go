package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"ehjoin/internal/datagen"
	rt "ehjoin/internal/runtime"
	"ehjoin/internal/spill"
	"ehjoin/internal/tuple"
)

// testConfig returns a small but expansion-triggering workload: ~50k
// 100-byte tuples (5 MB) against a 600 KB per-node budget.
func testConfig(alg Algorithm) Config {
	return Config{
		Algorithm:     alg,
		InitialNodes:  2,
		MaxNodes:      12,
		Sources:       4,
		MemoryBudget:  600 << 10,
		ChunkTuples:   1000,
		Build:         datagen.Spec{Dist: datagen.Uniform, Tuples: 50_000, Seed: 101},
		Probe:         datagen.Spec{Dist: datagen.Uniform, Tuples: 50_000, Seed: 202},
		MatchFraction: 0.5,
	}
}

// referenceJoin computes the exact expected match count and checksum with
// a plain map-based join over the same generated relations.
func referenceJoin(t *testing.T, cfg Config) (uint64, uint64) {
	t.Helper()
	cfg, err := cfg.normalized()
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
	byKey := make(map[uint64][]uint64)
	for i := int64(0); i < cfg.Build.Tuples; i++ {
		tp := build.At(i)
		byKey[tp.Key] = append(byKey[tp.Key], tp.Index)
	}
	var matches, checksum uint64
	for i := int64(0); i < cfg.Probe.Tuples; i++ {
		sp := probe.At(i)
		for _, rIdx := range byKey[sp.Key] {
			matches++
			checksum ^= spill.MixPair(rIdx, sp.Index)
		}
	}
	return matches, checksum
}

// totalNs is a simulator report's total virtual time in whole nanoseconds,
// the unit the pinned runs compare in.
func totalNs(r *Report) int64 { return int64(math.Round(r.TotalSec * 1e9)) }

func runAndVerify(t *testing.T, cfg Config) *Report {
	t.Helper()
	wantMatches, wantChecksum := referenceJoin(t, cfg)
	r, err := Run(cfg)
	if err != nil {
		t.Fatalf("%v: %v", cfg.Algorithm, err)
	}
	if r.Matches != wantMatches {
		t.Errorf("%v: matches = %d, want %d", cfg.Algorithm, r.Matches, wantMatches)
	}
	if r.Checksum != wantChecksum {
		t.Errorf("%v: checksum = %#x, want %#x", cfg.Algorithm, r.Checksum, wantChecksum)
	}
	if r.TotalSec <= 0 || r.BuildSec <= 0 || r.ProbeSec <= 0 {
		t.Errorf("%v: nonpositive phase times: %+v", cfg.Algorithm, r)
	}
	return r
}

func TestAllAlgorithmsMatchReferenceUniform(t *testing.T) {
	for _, alg := range Algorithms() {
		t.Run(alg.String(), func(t *testing.T) {
			r := runAndVerify(t, testConfig(alg))
			switch alg {
			case Split:
				if r.Splits == 0 {
					t.Error("expected bucket splits under memory pressure")
				}
				if r.FinalNodes <= r.InitialNodes {
					t.Error("split algorithm did not expand")
				}
			case Replication, Hybrid:
				if r.Replications == 0 {
					t.Error("expected replications under memory pressure")
				}
				if r.FinalNodes <= r.InitialNodes {
					t.Error("expanding algorithm did not expand")
				}
			case OutOfCore:
				if r.FinalNodes != r.InitialNodes {
					t.Errorf("OOC expanded from %d to %d nodes", r.InitialNodes, r.FinalNodes)
				}
				if r.SpillWrittenBytes == 0 {
					t.Error("OOC under memory pressure spilled nothing")
				}
			}
		})
	}
}

func TestAllAlgorithmsMatchReferenceSkewed(t *testing.T) {
	for _, sigma := range []float64{0.001, 0.0001} {
		for _, alg := range Algorithms() {
			cfg := testConfig(alg)
			cfg.Build = datagen.Spec{Dist: datagen.Gaussian, Mean: 0.5, Sigma: sigma, Tuples: 50_000, Seed: 303}
			cfg.Probe = datagen.Spec{Dist: datagen.Gaussian, Mean: 0.5, Sigma: sigma, Tuples: 50_000, Seed: 404}
			t.Run(alg.String(), func(t *testing.T) {
				runAndVerify(t, cfg)
			})
		}
	}
}

func TestNoExpansionWhenMemorySuffices(t *testing.T) {
	for _, alg := range Algorithms() {
		cfg := testConfig(alg)
		cfg.MemoryBudget = 64 << 20 // plenty
		r := runAndVerify(t, cfg)
		if r.FinalNodes != cfg.InitialNodes {
			t.Errorf("%v: expanded to %d nodes with ample memory", alg, r.FinalNodes)
		}
		if r.Splits != 0 || r.Replications != 0 {
			t.Errorf("%v: splits=%d repl=%d with ample memory", alg, r.Splits, r.Replications)
		}
		if r.SpillWrittenBytes != 0 {
			t.Errorf("%v: spilled %d bytes with ample memory", alg, r.SpillWrittenBytes)
		}
	}
}

func TestSingleInitialNode(t *testing.T) {
	for _, alg := range Algorithms() {
		cfg := testConfig(alg)
		cfg.InitialNodes = 1
		t.Run(alg.String(), func(t *testing.T) {
			runAndVerify(t, cfg)
		})
	}
}

func TestResourceExhaustion(t *testing.T) {
	// Only 3 nodes total for a workload needing ~9: algorithms must finish
	// correctly over budget.
	for _, alg := range []Algorithm{Split, Replication, Hybrid} {
		cfg := testConfig(alg)
		cfg.MaxNodes = 3
		t.Run(alg.String(), func(t *testing.T) {
			r := runAndVerify(t, cfg)
			if !r.ExhaustedResources {
				t.Error("expected resource exhaustion to be reported")
			}
			if r.FinalNodes != 3 {
				t.Errorf("final nodes = %d, want 3", r.FinalNodes)
			}
		})
	}
}

func TestSpillRungCompletesExhaustedScenarios(t *testing.T) {
	// The TestResourceExhaustion workload with the spill rung armed: every
	// previously exhausted run must complete within budget, producing the
	// same tuples as the out-of-core baseline on the same cluster.
	base := testConfig(OutOfCore)
	base.MaxNodes = 3
	ooc, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	// The simulator is deterministic: which partitions each node evicts and
	// what the rung writes and reads back are pinned, so a change to victim
	// selection or to when an eviction is charged shows here.
	pinned := map[Algorithm]struct {
		parts, written, read int64
		totalNs              int64
	}{
		Split:       {58, 6699100, 6699100, 1034399312},
		Replication: {48, 7095600, 7095600, 1089160182},
		Hybrid:      {66, 7941800, 7941800, 1255331269},
	}
	for _, alg := range []Algorithm{Split, Replication, Hybrid} {
		cfg := testConfig(alg)
		cfg.MaxNodes = 3
		cfg.SpillEnabled = true
		t.Run(alg.String(), func(t *testing.T) {
			r := runAndVerify(t, cfg)
			if r.ExhaustedResources {
				t.Error("spill rung armed but run still reports exhaustion")
			}
			want := pinned[alg]
			if r.SpilledPartitions != want.parts || r.SpillBytes != want.written ||
				r.SpillReadBytes != want.read || totalNs(r) != want.totalNs {
				t.Errorf("spill activity moved: %d partitions, %d B written, %d B read, %d ns; pinned %+v",
					r.SpilledPartitions, r.SpillBytes, r.SpillReadBytes, totalNs(r), want)
			}
			if r.Matches != ooc.Matches || r.Checksum != ooc.Checksum {
				t.Errorf("spill output differs from OOC baseline: matches %d/%d checksum %#x/%#x",
					r.Matches, ooc.Matches, r.Checksum, ooc.Checksum)
			}
			if r.SpilledPartitions == 0 || r.SpillBytes == 0 {
				t.Errorf("no spill activity recorded: partitions=%d bytes=%d",
					r.SpilledPartitions, r.SpillBytes)
			}
			if r.SpillReadBytes == 0 {
				t.Error("finish phase read nothing back from disk")
			}
			if r.DegradationRung != 4 {
				t.Errorf("degradation rung %d, want 4", r.DegradationRung)
			}
			if r.FinalNodes != 3 {
				t.Errorf("final nodes = %d, want 3", r.FinalNodes)
			}
		})
	}
}

// TestSpilledNodesAreSplit pins a run in which nodes that have evicted
// partitions are later split, so a split's extraction has to take tuples out
// of the live table and out of the rung. The scheduler prefers the rung to a
// recruit only when the cost model prices the disk below the network, which
// no command-line flag reaches: the interconnect here is 1 MB/s, where a
// large enough overshoot spills although recruits remain.
func TestSpilledNodesAreSplit(t *testing.T) {
	cfg, err := testConfig(Split).normalized()
	if err != nil {
		t.Fatal(err)
	}
	cfg.SpillEnabled = true
	cfg.Cost.NetBandwidthBps = 1e6
	r := runAndVerify(t, cfg)
	spilled := make(map[rt.NodeID]bool)
	var splitAfterSpill int
	for _, e := range r.Events {
		switch {
		case e.Kind == "spill":
			spilled[e.Node] = true
		case e.Kind == "split" && spilled[e.Node]:
			splitAfterSpill++
		}
	}
	if splitAfterSpill != 8 {
		t.Errorf("%d splits of a node that had spilled, want 8", splitAfterSpill)
	}
	got := fmt.Sprintf("%d ns, %d splits, %d partitions, %d B written, %d B read, %d moved, %d stray, %d messages, %d B on the wire",
		totalNs(r), r.Splits, r.SpilledPartitions, r.SpillBytes, r.SpillReadBytes,
		r.SplitMovedTuples, r.StrayBuildTuples, r.Messages, r.WireBytes)
	const want = "5627620437 ns, 10 splits, 62 partitions, 4010900 B written, 4010900 B read, 48962 moved, 13486 stray, 625 messages, 16317852 B on the wire"
	if got != want {
		t.Errorf("report moved:\n got %s\nwant %s", got, want)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	for _, alg := range Algorithms() {
		a, err := Run(testConfig(alg))
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(testConfig(alg))
		if err != nil {
			t.Fatal(err)
		}
		if a.TotalSec != b.TotalSec || a.Matches != b.Matches || a.Checksum != b.Checksum ||
			a.FinalNodes != b.FinalNodes || a.ExtraBuildChunks != b.ExtraBuildChunks {
			t.Errorf("%v: nondeterministic reports:\n%v\n%v", alg, a, b)
		}
	}
}

func TestHybridReshuffleRestoresDisjointRanges(t *testing.T) {
	cfg := testConfig(Hybrid)
	r := runAndVerify(t, cfg)
	if r.Replications == 0 {
		t.Fatal("workload did not trigger replication")
	}
	if r.ReshuffleTuples == 0 {
		t.Error("reshuffle moved no tuples despite replications")
	}
	if r.ReshuffleSec <= 0 {
		t.Error("reshuffle took no time")
	}
	// After reshuffling, probing is unicast: no broadcast duplication.
	if r.ProbeExtraChunks != 0 {
		t.Errorf("hybrid probe duplicated %.1f chunks; reshuffle should restore unicast", r.ProbeExtraChunks)
	}
}

func TestReplicationBroadcastsProbes(t *testing.T) {
	r := runAndVerify(t, testConfig(Replication))
	if r.Replications == 0 {
		t.Fatal("workload did not trigger replication")
	}
	if r.ProbeExtraChunks <= 0 {
		t.Error("replication-based probe phase shows no broadcast duplication")
	}
}

func TestSplitProbeIsUnicast(t *testing.T) {
	r := runAndVerify(t, testConfig(Split))
	if r.ProbeExtraChunks != 0 {
		t.Errorf("split probe duplicated %.1f chunks", r.ProbeExtraChunks)
	}
	if r.SplitMovedTuples == 0 {
		t.Error("splits moved no tuples")
	}
}

func TestMatchFractionOneEveryProbeMatches(t *testing.T) {
	cfg := testConfig(Hybrid)
	cfg.MatchFraction = 1.0
	r := runAndVerify(t, cfg)
	if r.Matches < uint64(cfg.Probe.Tuples) {
		t.Errorf("matches %d below probe cardinality %d with q=1", r.Matches, cfg.Probe.Tuples)
	}
}

func TestDifferentTupleSizes(t *testing.T) {
	for _, size := range []int{100, 200, 400} {
		cfg := testConfig(Split)
		cfg.Build.Layout = tuple.LayoutForTupleSize(size)
		cfg.Probe.Layout = tuple.LayoutForTupleSize(size)
		cfg.Build.Tuples = 20_000
		cfg.Probe.Tuples = 20_000
		runAndVerify(t, cfg)
	}
}

func TestAsymmetricRelationSizes(t *testing.T) {
	// Build from the larger relation (the paper's Figures 8-9 scenario).
	for _, alg := range Algorithms() {
		cfg := testConfig(alg)
		cfg.Build.Tuples = 60_000
		cfg.Probe.Tuples = 6_000
		t.Run(alg.String()+"/largeBuild", func(t *testing.T) {
			runAndVerify(t, cfg)
		})
		cfg2 := testConfig(alg)
		cfg2.Build.Tuples = 6_000
		cfg2.Probe.Tuples = 60_000
		t.Run(alg.String()+"/largeProbe", func(t *testing.T) {
			runAndVerify(t, cfg2)
		})
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Algorithm: Split, InitialNodes: 0, Build: datagen.Spec{Tuples: 10}, Probe: datagen.Spec{Tuples: 10}},
		{Algorithm: Split, InitialNodes: 30, MaxNodes: 24, Build: datagen.Spec{Tuples: 10}, Probe: datagen.Spec{Tuples: 10}},
		{Algorithm: Algorithm(99), InitialNodes: 1, Build: datagen.Spec{Tuples: 10}, Probe: datagen.Spec{Tuples: 10}},
		{Algorithm: Split, InitialNodes: 1, MatchFraction: 2, Build: datagen.Spec{Tuples: 10}, Probe: datagen.Spec{Tuples: 10}},
		{Algorithm: Split, InitialNodes: 1, Build: datagen.Spec{Tuples: 0}, Probe: datagen.Spec{Tuples: 10}},
	}
	for i, cfg := range bad {
		if _, err := Run(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	// Config.Cores is a vestige: 0 and 1 are accepted, anything else is
	// refused with the reason.
	for _, cores := range []int{0, 1, 2, -1} {
		cfg := testConfig(Split)
		cfg.Cores = cores
		_, err := Run(cfg)
		if cores == 0 || cores == 1 {
			if err != nil {
				t.Errorf("Cores %d rejected: %v", cores, err)
			}
		} else if err == nil || !strings.Contains(err.Error(), "intra-node parallelism was removed") {
			t.Errorf("Cores %d: error %v does not say intra-node parallelism was removed", cores, err)
		}
	}
}

func TestAlgorithmString(t *testing.T) {
	want := map[Algorithm]string{
		OutOfCore: "out-of-core", Split: "split", Replication: "replication", Hybrid: "hybrid",
	}
	for a, w := range want {
		if a.String() != w {
			t.Errorf("%d.String() = %q, want %q", a, a.String(), w)
		}
	}
	if Algorithm(42).String() != "Algorithm(42)" {
		t.Error("unknown algorithm string")
	}
}
