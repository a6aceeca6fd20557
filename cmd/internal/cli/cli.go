// Package cli is the command-line front end the ehjoin commands share: the
// workload flags that ehjarun and ehjadist both take, and the CPU profiler
// behind every command's -cpuprofile.
package cli

import (
	"errors"
	"flag"
	"os"
	"runtime/pprof"

	"ehjoin/internal/core"
	"ehjoin/internal/datagen"
)

// Defaults are one command's defaults for the workload flags: the
// simulator models a large cluster, the real engine runs on one host.
type Defaults struct {
	Initial, Max int   // -initial, -max
	Tuples       int64 // -r and -s
	Budget       int64 // -budget, bytes per node
}

// Workload is the workload flag set, bound on a command's FlagSet: the
// flags that are numbers land in cfg directly, the names in alg and dist.
type Workload struct {
	cfg       core.Config
	alg, dist string
	s         int64
}

// BindWorkload declares -alg -initial -max -r -s -budget -dist -zipf-s
// -heavy-threshold -spill on fs with the command's defaults.
func BindWorkload(fs *flag.FlagSet, d Defaults) *Workload {
	w := new(Workload)
	fs.StringVar(&w.alg, "alg", "hybrid", "join algorithm: split|replication|hybrid|ooc")
	fs.IntVar(&w.cfg.InitialNodes, "initial", d.Initial, "initial number of join nodes")
	fs.IntVar(&w.cfg.MaxNodes, "max", d.Max, "total join nodes in the environment")
	fs.Int64Var(&w.cfg.Build.Tuples, "r", d.Tuples, "build relation cardinality")
	fs.Int64Var(&w.s, "s", d.Tuples, "probe relation cardinality")
	fs.Int64Var(&w.cfg.MemoryBudget, "budget", d.Budget, "per-node hash memory budget in bytes")
	fs.StringVar(&w.dist, "dist", "uniform", "build-side join-attribute distribution: uniform|gaussian|zipf")
	fs.Float64Var(&w.cfg.Build.ZipfS, "zipf-s", 1.5, "zipf exponent s (rank r has mass proportional to r^-s)")
	fs.Float64Var(&w.cfg.HeavyThreshold, "heavy-threshold", 0, "heavy-hitter mass threshold as a fraction of the build relation (0 = off): "+
		"replicate heavy build keys across their serving group, partition their probes instead of broadcasting (DESIGN.md §11)")
	fs.BoolVar(&w.cfg.SpillEnabled, "spill", false, "evict partitions to node-local disk instead of aborting when the cluster is exhausted (fourth degradation rung)")
	return w
}

// Config is the join the parsed flags describe: both relations take the
// build distribution, mean 0.5 and sigma 0.001, the build seed and the
// probe seed+1. Every error is a usage error: an unknown algorithm or
// distribution, or -dist correlated, which only a probe can follow.
func (w *Workload) Config(seed uint64) (core.Config, error) {
	cfg := w.cfg
	var err error
	if cfg.Algorithm, err = core.ParseAlgorithm(w.alg); err != nil {
		return core.Config{}, err
	}
	if cfg.Build.Dist, err = datagen.ParseDist(w.dist); err != nil {
		return core.Config{}, err
	}
	if cfg.Build.Dist == datagen.Correlated {
		return core.Config{}, errors.New("-dist correlated: correlated is probe-only; pick the build distribution")
	}
	cfg.Build.Mean, cfg.Build.Sigma, cfg.Build.Seed = 0.5, 0.001, seed
	cfg.Probe = cfg.Build
	cfg.Probe.Tuples, cfg.Probe.Seed = w.s, seed+1
	cfg.MatchFraction = 1
	return cfg, nil
}

// StartCPUProfile starts profiling this process's CPU into the file at
// path and returns the function that stops the profile and closes the
// file. An empty path profiles nothing.
func StartCPUProfile(path string) (stop func(), err error) {
	if path == "" {
		return func() {}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}
