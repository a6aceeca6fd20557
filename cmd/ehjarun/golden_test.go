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

// spillGoldens are ehjarun -spill command lines whose complete reports —
// virtual times, expansion log, per-node CPU and disk seconds — are pinned
// in testdata/<name>.golden. The simulator is deterministic, so any change
// to what the spill rung charges, when it charges it, or which partitions it
// evicts moves some byte of these files. To capture them again after an
// intended change of behaviour:
//
//	go build -o /tmp/ehjarun ./cmd/ehjarun
//	/tmp/ehjarun <args> > cmd/ehjarun/testdata/<name>.golden
var spillGoldens = []struct {
	name string
	args string
}{
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

var wallClock = regexp.MustCompile(`wall clock [0-9.]+s`)

func TestSpillReportsMatchGolden(t *testing.T) {
	for _, g := range spillGoldens {
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
