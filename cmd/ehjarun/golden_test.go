package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// golden is an ehjarun command line whose complete report — virtual times,
// expansion log, per-node CPU and disk seconds — is pinned in
// testdata/<name>.golden. The simulator is deterministic, so any change to
// what a node charges, when it charges it, or what it decides moves some
// byte of these files. To capture them again after an intended change of
// behaviour:
//
//	go build -o /tmp/ehjarun ./cmd/ehjarun
//	/tmp/ehjarun <args> > cmd/ehjarun/testdata/<name>.golden
type golden struct {
	name string
	args string
}

// spillGoldens pin the spill rung: which partitions it evicts, what it
// charges, how the expanding algorithms reach it.
var spillGoldens = []golden{
	// The three expanding algorithms on an exhausted 3-node cluster; the
	// hybrid run reshuffles tuples out of a spilled node's rung.
	{"hybrid_uniform", "-alg hybrid -r 200000 -s 200000 -initial 2 -max 3 -budget 1048576 -spill -v"},
	{"split_uniform", "-alg split -r 200000 -s 200000 -initial 2 -max 3 -budget 1048576 -spill -v"},
	{"replication_uniform", "-alg replication -r 200000 -s 200000 -initial 2 -max 3 -budget 1048576 -spill -v"},
	// Zipf keys: spilled partitions larger than the budget finish in
	// block-nested-loop passes.
	{"hybrid_zipf_bnl", "-alg hybrid -r 100000 -s 100000 -initial 2 -max 3 -budget 524288 -spill -dist zipf -zipf-s 1.1 -v"},
	{"split_zipf_bnl", "-alg split -r 100000 -s 100000 -initial 2 -max 3 -budget 524288 -spill -dist zipf -zipf-s 1.1 -v"},
	{"replication_zipf_bnl", "-alg replication -r 100000 -s 100000 -initial 2 -max 4 -budget 524288 -spill -dist zipf -zipf-s 1.3 -v"},
	// A crash during the build: surviving spilled nodes purge their copies
	// of the re-streamed range, live table and rung alike.
	{"hybrid_faults", "-alg hybrid -r 200000 -s 200000 -initial 2 -max 4 -budget 1048576 -spill -faults 1@0.6 -v"},
	{"split_faults", "-alg split -r 200000 -s 200000 -initial 3 -max 4 -budget 1048576 -spill -faults 1@0.7 -v"},
}

// reportGoldens pin runs that never spill: routing, expansion, reshuffle,
// failure recovery and heavy-key routing.
var reportGoldens = []golden{
	// The benchmark's sim_hybrid workload at two seeds: 4 -> 16 nodes, 12
	// replications, four 4-member reshuffle groups.
	{"sim_hybrid_seed1", "-alg hybrid -initial 4 -max 24 -r 1500000 -s 1500000 -budget 10000000 -seed 1 -v"},
	{"sim_hybrid_seed7", "-alg hybrid -initial 4 -max 24 -r 1500000 -s 1500000 -budget 10000000 -seed 7 -v"},
	{"replication_expand", "-alg replication -r 200000 -s 200000 -initial 2 -max 12 -budget 1048576 -v"},
	// Splits with stray re-routing through each node's routing table.
	{"split_expand", "-alg split -r 200000 -s 200000 -initial 2 -max 12 -budget 1048576 -v"},
	// Zipf 1.5 build, correlated probes: heavy keys replicated across their
	// serving group, their probes routed round-robin.
	{"split_zipf_heavy", "-alg split -initial 4 -max 4 -sources 4 -r 40000 -s 40000 -dist zipf -probe-dist correlated -budget 67108864 -heavy-threshold 0.125 -v"},
	// A crash during the hybrid build: the range is rebuilt at a new sole
	// owner and re-streamed, then reshuffled.
	{"hybrid_expand_faults", "-alg hybrid -r 200000 -s 200000 -initial 2 -max 12 -budget 1048576 -faults 0@0.5 -v"},
	// Two crashes and no spare node: the orphaned entries merge into their
	// live neighbours.
	{"split_faults_merge", "-alg split -initial 4 -max 4 -sources 4 -r 200000 -s 200000 -budget 4194304 -faults 1@0.2,2@0.3 -v"},
	// Materialised output (the paper's §4 footnote 1): accumulated matches
	// overflow nodes during the probe, whose tables clone onto recruits.
	{"hybrid_materialize", "-alg hybrid -r 200000 -s 200000 -initial 2 -max 24 -budget 4194304 -materialize -v"},
	// A narrow Gaussian build: the hot ranges replicate 4 -> 12 nodes and
	// reshuffle into disjoint sub-ranges before the probe.
	{"hybrid_gaussian", "-alg hybrid -initial 4 -max 24 -r 400000 -s 400000 -dist gaussian -sigma 0.0001 -budget 4194304 -v"},
}

// oocGoldens pin the out-of-core baseline: when each policy evicts, which
// partitions, and what the finish phase reads back.
var oocGoldens = []golden{
	// Grace sends a node fully out of core at its first overflow; hybrid
	// hash evicts the largest partitions until the rest fits.
	{"ooc_grace_uniform", "-alg ooc -r 200000 -s 200000 -initial 2 -max 2 -budget 1048576 -v"},
	{"ooc_hybrid_uniform", "-alg ooc -r 200000 -s 200000 -initial 2 -max 2 -budget 1048576 -ooc-hybrid -v"},
	// Zipf keys: spilled partitions larger than the budget finish in three
	// block-nested-loop passes.
	{"ooc_grace_zipf_bnl", "-alg ooc -r 100000 -s 100000 -initial 2 -max 2 -budget 524288 -dist zipf -zipf-s 1.1 -v"},
	{"ooc_hybrid_zipf_bnl", "-alg ooc -r 100000 -s 100000 -initial 2 -max 2 -budget 524288 -dist zipf -zipf-s 1.1 -ooc-hybrid -v"},
	// A crash on the baseline degrades: the survivors finish what they hold.
	{"ooc_grace_faults", "-alg ooc -r 200000 -s 200000 -initial 3 -max 4 -budget 1048576 -faults 1@0.5 -v"},
}

var wallClock = regexp.MustCompile(`wall clock [0-9.]+s`)

func TestOOCReportsMatchGolden(t *testing.T) { checkGoldens(t, oocGoldens) }

func TestSpillReportsMatchGolden(t *testing.T) { checkGoldens(t, spillGoldens) }

func TestReportsMatchGolden(t *testing.T) { checkGoldens(t, reportGoldens) }

// checkGoldens runs every command line in-process and compares its report
// with the pinned one byte for byte, wall clock aside.
func checkGoldens(t *testing.T, goldens []golden) {
	for _, g := range goldens {
		t.Run(g.name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", g.name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			var stdout, stderr bytes.Buffer
			if code := run(strings.Fields(g.args), &stdout, &stderr); code != 0 {
				t.Fatalf("ehjarun %s: exit %d: %s", g.args, code, stderr.String())
			}
			got := wallClock.ReplaceAll(stdout.Bytes(), []byte("wall clock -"))
			want = wallClock.ReplaceAll(want, []byte("wall clock -"))
			if !bytes.Equal(got, want) {
				t.Errorf("ehjarun %s: report differs from testdata/%s.golden\n%s", g.args, g.name, firstDiff(got, want))
			}
		})
	}
}

// firstDiff names the first line on which two reports disagree.
func firstDiff(got, want []byte) string {
	g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d:\n got: %s\nwant: %s", i+1, gl, wl)
		}
	}
	return "no differing line"
}
