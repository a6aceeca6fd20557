package core

import (
	"strings"
	"testing"
)

// TestNormalizedRejectsNegativeInputs: a negative count or size is an
// error naming the field, never a default and never a run. Unchecked, a
// negative Sources overlaps the scheduler's and the join nodes' ids, a
// negative MemoryBudget recruits every node and ends exhausted, and a
// negative ChunkTuples never finishes generating. (Negative node budgets
// and windows have their own tests.)
func TestNormalizedRejectsNegativeInputs(t *testing.T) {
	for _, tc := range []struct {
		field  string
		mutate func(*Config)
	}{
		{"Sources", func(c *Config) { c.Sources = -1 }},
		{"MemoryBudget", func(c *Config) { c.MemoryBudget = -1 }},
		{"ChunkTuples", func(c *Config) { c.ChunkTuples = -1 }},
	} {
		cfg := testConfig(Hybrid)
		tc.mutate(&cfg)
		_, err := cfg.normalized()
		if err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: normalized() = %v, want an error naming the field", tc.field, err)
			continue
		}
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s: Run accepted the configuration", tc.field)
		}
	}
}

// TestParseAlgorithmNames: every algorithm parses back from its String, the
// command-line short names map to theirs, and an unknown name is an error
// that lists the choices.
func TestParseAlgorithmNames(t *testing.T) {
	for _, a := range Algorithms() {
		if got, err := ParseAlgorithm(a.String()); got != a || err != nil {
			t.Errorf("ParseAlgorithm(%q) = %v, %v; want %v", a.String(), got, err, a)
		}
	}
	for name, want := range map[string]Algorithm{"repl": Replication, "ooc": OutOfCore} {
		if got, err := ParseAlgorithm(name); got != want || err != nil {
			t.Errorf("ParseAlgorithm(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	for _, name := range []string{"", "bogus", "Split", "Algorithm(1)"} {
		if _, err := ParseAlgorithm(name); err == nil || !strings.Contains(err.Error(), "split|replication|hybrid|ooc") {
			t.Errorf("ParseAlgorithm(%q): err %v, want one listing the choices", name, err)
		}
	}
}
