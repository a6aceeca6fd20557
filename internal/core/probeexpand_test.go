package core

import (
	"testing"

	"ehjoin/internal/datagen"
)

// probeExpandConfig: ample build-side memory, but every probe tuple matches
// and output is materialised, so output volume (~3x the table size at
// q=1 with 216-byte output tuples) overflows nodes during the probe phase.
func probeExpandConfig(alg Algorithm) Config {
	return Config{
		Algorithm:         alg,
		InitialNodes:      2,
		MaxNodes:          12,
		Sources:           4,
		MemoryBudget:      2 << 20,
		ChunkTuples:       1000,
		Build:             datagen.Spec{Dist: datagen.Uniform, Tuples: 30_000, Seed: 601},
		Probe:             datagen.Spec{Dist: datagen.Uniform, Tuples: 60_000, Seed: 602},
		MatchFraction:     1.0,
		MaterializeOutput: true,
	}
}

func TestProbePhaseExpansion(t *testing.T) {
	for _, alg := range []Algorithm{Split, Replication, Hybrid} {
		t.Run(alg.String(), func(t *testing.T) {
			cfg := probeExpandConfig(alg)
			r := runAndVerify(t, cfg)
			if r.ProbeExpansions == 0 {
				t.Error("materialised output pressure triggered no probe expansions")
			}
			if r.OutputBytes == 0 {
				t.Error("no output accounted")
			}
			wantOutput := int64(r.Matches) * int64(cfg.normalizedOutputSize(t))
			if r.OutputBytes != wantOutput {
				t.Errorf("output bytes %d, want %d", r.OutputBytes, wantOutput)
			}
		})
	}
}

// normalizedOutputSize exposes the output tuple size for assertions.
func (c Config) normalizedOutputSize(t *testing.T) int {
	t.Helper()
	n, err := c.normalized()
	if err != nil {
		t.Fatal(err)
	}
	return n.outputLayout().LogicalSize()
}

func TestProbeExpansionDisabledByDefault(t *testing.T) {
	cfg := probeExpandConfig(Hybrid)
	cfg.MaterializeOutput = false
	r := runAndVerify(t, cfg)
	if r.ProbeExpansions != 0 {
		t.Errorf("probe expansions %d with materialisation off", r.ProbeExpansions)
	}
	if r.OutputBytes != 0 {
		t.Errorf("output bytes %d with materialisation off", r.OutputBytes)
	}
}

func TestProbeExpansionExhaustion(t *testing.T) {
	cfg := probeExpandConfig(Hybrid)
	cfg.MaxNodes = 3
	r := runAndVerify(t, cfg)
	if !r.ExhaustedResources && r.ProbeExpansions == 0 {
		t.Skip("workload fits 3 nodes; nothing to check")
	}
	// Correctness already verified by runAndVerify; exhaustion must be
	// survivable.
}

func TestProbeExpansionRejectsOOC(t *testing.T) {
	cfg := probeExpandConfig(OutOfCore)
	if _, err := Run(cfg); err == nil {
		t.Error("MaterializeOutput with the out-of-core baseline accepted")
	}
}

func TestProbeExpansionDeterministic(t *testing.T) {
	cfg := probeExpandConfig(Replication)
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.ProbeExpansions != b.ProbeExpansions || a.TotalSec != b.TotalSec || a.Checksum != b.Checksum {
		t.Errorf("nondeterministic probe expansion: %v vs %v expansions", a.ProbeExpansions, b.ProbeExpansions)
	}
}
