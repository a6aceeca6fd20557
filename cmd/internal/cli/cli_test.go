package cli

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ehjoin/internal/core"
	"ehjoin/internal/datagen"
)

func parse(t *testing.T, args string) *Workload {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	w := BindWorkload(fs, Defaults{Initial: 2, Max: 8, Tuples: 200_000, Budget: 4 << 20})
	if err := fs.Parse(strings.Fields(args)); err != nil {
		t.Fatalf("parse %q: %v", args, err)
	}
	return w
}

// TestConfigFromFlags: the flags fill the join's configuration field for
// field, and the seed derivation gives the build seed and the probe
// seed+1 (ehjarun -seed 1 and ehjadist's pinned 1 and 2).
func TestConfigFromFlags(t *testing.T) {
	spec := datagen.Spec{Dist: datagen.Uniform, ZipfS: 1.5, Mean: 0.5, Sigma: 0.001}
	build, probe := spec, spec
	build.Tuples, build.Seed = 200_000, 1
	probe.Tuples, probe.Seed = 200_000, 2
	want := core.Config{Algorithm: core.Hybrid, InitialNodes: 2, MaxNodes: 8, MemoryBudget: 4 << 20,
		Build: build, Probe: probe, MatchFraction: 1}
	if got, err := parse(t, "").Config(1); err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("defaults: got %+v, %v\nwant %+v", got, err, want)
	}

	w := parse(t, "-alg repl -initial 3 -max 5 -r 10 -s 20 -budget 1000 -dist zipf -zipf-s 1.1 -heavy-threshold 0.25 -spill")
	spec = datagen.Spec{Dist: datagen.Zipf, ZipfS: 1.1, Mean: 0.5, Sigma: 0.001}
	build, probe = spec, spec
	build.Tuples, build.Seed = 10, 7
	probe.Tuples, probe.Seed = 20, 8
	want = core.Config{Algorithm: core.Replication, InitialNodes: 3, MaxNodes: 5, MemoryBudget: 1000,
		SpillEnabled: true, HeavyThreshold: 0.25, Build: build, Probe: probe, MatchFraction: 1}
	if got, err := w.Config(7); err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("every flag set: got %+v, %v\nwant %+v", got, err, want)
	}
}

// TestConfigUsageErrors: a name neither parser knows, and a build side
// that can only follow another stream, are refused.
func TestConfigUsageErrors(t *testing.T) {
	for _, args := range []string{"-alg bogus", "-dist bogus", "-dist correlated"} {
		if _, err := parse(t, args).Config(1); err == nil {
			t.Errorf("%s: accepted", args)
		}
	}
}

// TestStartCPUProfile: an empty path profiles nothing; a path gets a
// profile once stop returns; a second profile while one runs is an error.
func TestStartCPUProfile(t *testing.T) {
	stop, err := StartCPUProfile("")
	if err != nil {
		t.Fatal(err)
	}
	stop()
	path := filepath.Join(t.TempDir(), "cpu.prof")
	if stop, err = StartCPUProfile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := StartCPUProfile(path + "2"); err == nil {
		t.Error("a second concurrent profile started")
	}
	stop()
	if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
		t.Errorf("profile %s: %v, %v", path, fi, err)
	}
}
