package main

import (
	"fmt"
	"strconv"

	"ehjoin"
	"ehjoin/internal/datagen"
)

// workload is one fixed input and configuration of the engine. It is kept
// as data so that the command line handed to the CLI (args) and the
// in-process configuration used by the oracle and the traced run (config)
// cannot drift apart; the oracle check on every CLI run proves they agree.
type workload struct {
	name string
	why  string
	// sim selects ehjarun (the single-process simulator) over ehjadist
	// (coordinator plus two spawned worker processes).
	sim          bool
	initial, max int
	r, s         int64
	// deltaR/deltaS say which cardinalities the seed perturbs. ehjadist
	// pins its generator seeds and has no -seed flag, so the seed moves
	// the input by moving its size: every chunk boundary and overflow
	// point shifts, while the amount of work changes by under half a
	// percent.
	deltaR, deltaS bool
	budget         int64
	spill, wal     bool
	zipfS          float64 // 0 = uniform keys
	heavy          float64 // heavy-hitter threshold, 0 = off
	// expect checks the decisions the workload exists to provoke; a run
	// that computed the right join by a different route is still a
	// failure, because its timing would describe another workload.
	expect func(d distOut) error
}

// Sizes are a quarter to a half of the issue's 4 M ⋈ 4 M so that ten
// rounds of every workload fit the per-run time the benchmark contract
// allows; budgets shrink in proportion, which keeps the expansion (2 -> 6
// nodes) and spill (~45 partitions) decisions the same.
var workloads = []workload{
	{
		name:    "uniform_fit",
		why:     "nothing overflows: the steady pipeline datagen, chunking, tcpnet, table insert and probe, with expansion, spill and WAL idle",
		initial: 2, max: 8, r: 1_500_000, s: 1_500_000, deltaR: true, deltaS: true,
		budget: 1 << 30,
		expect: func(d distOut) error {
			if d.FinalNodes != 2 || d.Replications != 0 || d.Spilled != 0 {
				return fmt.Errorf("expected no expansion, got nodes %d replications %d spilled %d",
					d.FinalNodes, d.Replications, d.Spilled)
			}
			return nil
		},
	},
	{
		name:    "hybrid_expand",
		why:     "same input with a 24 MiB budget: the paper's hybrid expansion 2 to 6 nodes, replication forwarding and the reshuffle over peer links",
		initial: 2, max: 8, r: 1_500_000, s: 1_500_000, deltaR: true, deltaS: true,
		budget: 24 << 20,
		expect: func(d distOut) error {
			if d.FinalNodes <= 2 || d.Replications == 0 {
				return fmt.Errorf("expected expansion, got nodes %d replications %d", d.FinalNodes, d.Replications)
			}
			return nil
		},
	},
	{
		name:    "spill_wal",
		why:     "exhausted 2-node cluster: the spill rung evicts partitions and finishes Grace-style, with WAL-gated acks on the control plane",
		initial: 2, max: 2, r: 1_500_000, s: 1_500_000, deltaR: true, deltaS: true,
		budget: 24 << 20, spill: true, wal: true,
		expect: func(d distOut) error {
			if d.FinalNodes != 2 || d.Spilled == 0 {
				return fmt.Errorf("expected spill on 2 nodes, got nodes %d spilled %d", d.FinalNodes, d.Spilled)
			}
			return nil
		},
	},
	{
		name:    "zipf_heavy",
		why:     "zipf 1.1 keys: 20 k inserts then ~2e8 matches from long-chain probes, heavy-hitter detection and round-robin probe routing",
		initial: 2, max: 8, r: 20_000, s: 400_000, deltaS: true,
		budget: 1 << 30, zipfS: 1.1, heavy: 0.005,
		expect: func(d distOut) error {
			if d.HeavyKeys == 0 || d.FinalNodes != 2 {
				return fmt.Errorf("expected heavy keys on 2 nodes, got %d heavy keys, nodes %d", d.HeavyKeys, d.FinalNodes)
			}
			return nil
		},
	},
	{
		name: "sim_hybrid",
		why:  "the paper-reproduction simulator, one single-threaded process with zero tcpnet: a transport change must not move it, a table change must",
		sim:  true, initial: 4, max: 24, r: 1_500_000, s: 1_500_000,
		budget: 10_000_000,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// seedDelta maps a seed to the cardinality shift described on workload.
func seedDelta(seed int64) int64 { return 101 * (((seed % 64) + 64) % 64) }

func (w workload) sizes(seed int64) (r, s int64) {
	r, s = w.r, w.s
	if w.deltaR {
		r += seedDelta(seed)
	}
	if w.deltaS {
		s += seedDelta(seed)
	}
	return r, s
}

// bin names the CLI program that runs the workload.
func (w workload) bin() string {
	if w.sim {
		return "ehjarun"
	}
	return "ehjadist"
}

// args is the command line for one run. Only flags that describe the
// workload are passed — never -p2p, -wire, -resume or -cores, which
// ROADMAP.md marks for deletion — so a transport refactor cannot break it.
func (w workload) args(seed int64, walPath string) []string {
	r, s := w.sizes(seed)
	a := []string{"-alg", "hybrid",
		"-initial", strconv.Itoa(w.initial), "-max", strconv.Itoa(w.max),
		"-r", strconv.FormatInt(r, 10), "-s", strconv.FormatInt(s, 10),
		"-budget", strconv.FormatInt(w.budget, 10)}
	if w.sim {
		return append(a, "-seed", strconv.FormatUint(uint64(seed), 10))
	}
	a = append(a, "-workers", "2")
	if w.zipfS > 0 {
		a = append(a, "-dist", "zipf", "-zipf-s", strconv.FormatFloat(w.zipfS, 'g', -1, 64))
	}
	if w.heavy > 0 {
		a = append(a, "-heavy-threshold", strconv.FormatFloat(w.heavy, 'g', -1, 64))
	}
	if w.spill {
		a = append(a, "-spill")
	}
	if w.wal {
		a = append(a, "-wal", walPath)
	}
	return a
}

// config is the same workload as an in-process configuration, mirroring
// how cmd/ehjadist and cmd/ehjarun turn their flags into a Config.
func (w workload) config(seed int64) ehjoin.Config {
	r, s := w.sizes(seed)
	build := ehjoin.Spec{Dist: ehjoin.Uniform, Mean: 0.5, Sigma: 0.001, ZipfS: 1.5, Tuples: r, Seed: 1}
	probe := build
	probe.Tuples, probe.Seed = s, 2
	if w.zipfS > 0 {
		build.Dist, build.ZipfS = datagen.Zipf, w.zipfS
		probe.Dist, probe.ZipfS = datagen.Correlated, w.zipfS
	}
	cfg := ehjoin.Config{
		Algorithm:      ehjoin.Hybrid,
		InitialNodes:   w.initial,
		MaxNodes:       w.max,
		MemoryBudget:   w.budget,
		SpillEnabled:   w.spill,
		HeavyThreshold: w.heavy,
		MatchFraction:  1.0,
		Cores:          1,
	}
	if w.sim {
		build.Seed, probe.Seed = uint64(seed), uint64(seed)+1
		build.Layout = ehjoin.LayoutForTupleSize(100)
		probe.Layout = build.Layout
		cfg.Sources = 8
	} else {
		cfg.Sources = 2
		cfg.ChunkTuples = 1000
	}
	cfg.Build, cfg.Probe = build, probe
	return cfg
}
