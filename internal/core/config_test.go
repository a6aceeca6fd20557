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
