// Command ehjarun executes a single parallel hash-join run on the emulated
// cluster and prints the measured report.
//
// Example:
//
//	ehjarun -alg hybrid -initial 4 -r 10000000 -s 10000000 -dist gaussian -sigma 0.0001
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"ehjoin/internal/core"
	"ehjoin/internal/datagen"
	rt "ehjoin/internal/runtime"
	"ehjoin/internal/sim"
	"ehjoin/internal/spill"
	"ehjoin/internal/trace"
	"ehjoin/internal/tuple"
)

// parseFaults parses the -faults value: a comma-separated list of
// "NODE@ATSEC" or "NODE@ATSEC:DETECTSEC" crash specs, e.g. "0@1.5,3@2:0.05".
func parseFaults(s string) (core.FaultPlan, error) {
	var plan core.FaultPlan
	for _, part := range strings.Split(s, ",") {
		spec := strings.TrimSpace(part)
		node, rest, ok := strings.Cut(spec, "@")
		if !ok {
			return plan, fmt.Errorf("fault %q: want NODE@ATSEC[:DETECTSEC]", spec)
		}
		n, err := strconv.Atoi(node)
		if err != nil {
			return plan, fmt.Errorf("fault %q: bad node index: %v", spec, err)
		}
		atStr, detStr, hasDet := strings.Cut(rest, ":")
		at, err := strconv.ParseFloat(atStr, 64)
		if err != nil {
			return plan, fmt.Errorf("fault %q: bad crash time: %v", spec, err)
		}
		var det float64
		if hasDet {
			if det, err = strconv.ParseFloat(detStr, 64); err != nil {
				return plan, fmt.Errorf("fault %q: bad detection delay: %v", spec, err)
			}
		}
		plan.Faults = append(plan.Faults, core.Fault{JoinNode: n, AtSec: at, DetectSec: det})
	}
	return plan, nil
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command behind main: it parses args, executes the run and
// writes the report to stdout. It returns the process exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ehjarun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		algName     = fs.String("alg", "hybrid", "join algorithm: split|replication|hybrid|ooc")
		initial     = fs.Int("initial", 4, "initial number of join nodes")
		maxNodes    = fs.Int("max", 24, "total join nodes in the environment")
		sources     = fs.Int("sources", 8, "number of data-source nodes")
		rTuples     = fs.Int64("r", 1_000_000, "build relation cardinality")
		sTuples     = fs.Int64("s", 1_000_000, "probe relation cardinality")
		tupleSize   = fs.Int("tuple", 100, "logical tuple size in bytes")
		distName    = fs.String("dist", "uniform", "join-attribute distribution: uniform|gaussian|zipf")
		probeDist   = fs.String("probe-dist", "", "probe-side distribution override: uniform|gaussian|zipf|correlated (default: same as -dist; correlated mirrors the build stream)")
		sigma       = fs.Float64("sigma", 0.001, "gaussian standard deviation (mean 0.5)")
		zipfS       = fs.Float64("zipf-s", 1.5, "zipf exponent s (rank r has mass proportional to r^-s)")
		budget      = fs.Int64("budget", 64<<20, "per-node hash memory budget in bytes")
		seed        = fs.Uint64("seed", 1, "generation seed")
		verbose     = fs.Bool("v", false, "print per-node loads and utilisation")
		blocking    = fs.Bool("blocking", false, "model split migrations as blocking sends (ablation A1)")
		oocHybrid   = fs.Bool("ooc-hybrid", false, "use the hybrid-hash out-of-core policy instead of Grace (ablation A2)")
		timeline    = fs.Bool("timeline", false, "render a per-node virtual-time utilisation timeline")
		materialize = fs.Bool("materialize", false, "retain join output in memory; probe-phase expansion applies (paper footnote 1)")
		faults      = fs.String("faults", "", "crash join nodes at virtual times: NODE@ATSEC[:DETECTSEC],... (e.g. 0@1.5,3@2:0.05)")
		spillRung   = fs.Bool("spill", false, "evict partitions to node-local disk instead of aborting when the cluster is exhausted (fourth degradation rung)")
		heavyThresh = fs.Float64("heavy-threshold", 0, "heavy-hitter mass threshold as a fraction of the build relation (0 = off): replicate heavy build keys across their serving group, partition their probes instead of broadcasting (DESIGN.md §11)")
		cpuProfile  = fs.String("cpuprofile", "", "write a CPU profile of the run to FILE")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(stderr, "ehjarun:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(stderr, "ehjarun:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}

	alg, err := core.ParseAlgorithm(*algName)
	if err != nil {
		fmt.Fprintln(stderr, "ehjarun:", err)
		return 2
	}
	dist, err := datagen.ParseDist(*distName)
	if err != nil {
		fmt.Fprintln(stderr, "ehjarun:", err)
		return 2
	}
	if dist == datagen.Correlated {
		fmt.Fprintln(stderr, "ehjarun: correlated is probe-only; use -probe-dist correlated")
		return 2
	}
	pDist := dist
	if *probeDist != "" {
		if pDist, err = datagen.ParseDist(*probeDist); err != nil {
			fmt.Fprintln(stderr, "ehjarun:", err)
			return 2
		}
	}
	if *tupleSize < tuple.PhysicalSize {
		fmt.Fprintf(stderr, "ehjarun: -tuple %d is below the %d-byte physical tuple\n", *tupleSize, tuple.PhysicalSize)
		return 2
	}
	cost := rt.OSUMed()
	cost.BlockingMigration = *blocking
	policy := spill.Grace
	if *oocHybrid {
		policy = spill.HybridHash
	}

	layout := tuple.LayoutForTupleSize(*tupleSize)
	cfg := core.Config{
		Algorithm:         alg,
		InitialNodes:      *initial,
		MaxNodes:          *maxNodes,
		Sources:           *sources,
		MemoryBudget:      *budget,
		Cost:              cost,
		OOCPolicy:         policy,
		MaterializeOutput: *materialize,
		SpillEnabled:      *spillRung,
		HeavyThreshold:    *heavyThresh,
		Build: datagen.Spec{
			Dist: dist, Mean: 0.5, Sigma: *sigma, ZipfS: *zipfS,
			Tuples: *rTuples, Seed: *seed, Layout: layout,
		},
		Probe: datagen.Spec{
			Dist: pDist, Mean: 0.5, Sigma: *sigma, ZipfS: *zipfS,
			Tuples: *sTuples, Seed: *seed + 1, Layout: layout,
		},
		MatchFraction: 1,
	}

	wall := time.Now()
	var rec *trace.Recorder
	eng := sim.New(cost)
	if *timeline {
		rec = trace.NewRecorder()
		eng.Trace = rec
	}
	if *faults != "" {
		plan, err := parseFaults(*faults)
		if err != nil {
			fmt.Fprintln(stderr, "ehjarun:", err)
			return 2
		}
		if err := core.ApplyFaultPlan(cfg, eng, plan); err != nil {
			fmt.Fprintln(stderr, "ehjarun:", err)
			return 2
		}
	}
	r, err := core.Execute(cfg, eng)
	if err != nil {
		fmt.Fprintln(stderr, "ehjarun:", err)
		return 1
	}
	fmt.Fprintln(stdout, r)
	fmt.Fprintf(stdout, "wire: %.1f MB in %d messages; spill: %d MB written, %d MB read, %d BNL pass(es); wall clock %.1fs\n",
		float64(r.WireBytes)/(1<<20), r.Messages,
		r.SpillWrittenBytes>>20, r.SpillReadBytes>>20, r.BNLPasses, time.Since(wall).Seconds())
	fmt.Fprintf(stdout, "comm: %d tuples split-moved, %d reshuffled, %d stray re-routed; %d chunks forwarded; "+
		"%d probe tuples processed\n",
		r.SplitMovedTuples, r.ReshuffleTuples, r.StrayBuildTuples, r.ForwardedChunks,
		r.ProbeTuplesProcessed)
	if r.NodesLost > 0 {
		fmt.Fprintf(stdout, "recovery: %d node(s) lost, %d recovered exactly in %.3fs; "+
			"re-streamed %d chunks (%d tuples), purged %d surviving copies, dropped %d stale in-flight\n",
			r.NodesLost, r.NodesRecovered, r.RecoverySec,
			r.RestreamedChunks, r.RestreamedTuples, r.PurgedTuples, r.DroppedStaleTuples)
		if r.Degraded {
			fmt.Fprintln(stdout, "recovery: DEGRADED — some losses were unrecoverable; result may be incomplete")
		}
	}
	if r.SpilledPartitions > 0 {
		fmt.Fprintf(stdout, "spill rung: %d partition(s) evicted to disk (%d KB); degradation rung %d\n",
			r.SpilledPartitions, r.SpillBytes>>10, r.DegradationRung)
	}
	if r.RecoveryRung > 0 {
		fmt.Fprintf(stdout, "recovery: rung %d engaged (1 = session resume, 2 = purge + re-stream, 3 = degraded); "+
			"%d resume(s), %d/%d frames retransmitted\n",
			r.RecoveryRung, r.Resumes, r.RetransmittedFrames, r.SessionFrames)
	}
	if *verbose && len(r.Events) > 0 {
		fmt.Fprintln(stdout, "expansion log:")
		for _, ev := range r.Events {
			fmt.Fprintf(stdout, "  %-12s node %2d peer %2d range [%d,%d) bytes %d\n",
				ev.Kind, ev.Node, ev.Peer, ev.Range.Lo, ev.Range.Hi, ev.Bytes)
		}
	}
	if *verbose {
		for i, l := range r.NodeLoads {
			var util string
			if i < len(r.NodeCPUSecs) {
				util = fmt.Sprintf("  cpu %6.2fs  disk %6.2fs", r.NodeCPUSecs[i], r.NodeDiskSecs[i])
			}
			var probes string
			if i < len(r.NodeProbeLoads) {
				probes = fmt.Sprintf("  probes %9d", r.NodeProbeLoads[i])
			}
			fmt.Fprintf(stdout, "  node %2d: %9d tuples%s%s\n", i, l, probes, util)
		}
	}
	if rec != nil {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, rec.Timeline(100))
		fmt.Fprintln(stdout, "\nbusiest message kinds:")
		for i, kb := range rec.BusyByKind() {
			if i == 6 {
				break
			}
			fmt.Fprintf(stdout, "  %-28s %8.2fs\n", kb.Kind, kb.Seconds)
		}
	}
	return 0
}
