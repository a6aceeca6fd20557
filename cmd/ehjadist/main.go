// Command ehjadist runs a parallel hash join distributed across real OS
// processes: this process hosts the scheduler and the data sources, and
// joind workers (or self-spawned worker copies of this binary) host the
// join nodes.
//
// Self-contained local demo (spawns its own workers):
//
//	ehjadist -workers 3 -alg hybrid -r 1000000 -s 1000000
//
// Multi-host: start `joind -connect HOST:PORT` on each worker machine,
// then:
//
//	ehjadist -listen :7420 -workers 3 -spawn=false ...
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"os/exec"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"ehjoin/internal/core"
	"ehjoin/internal/datagen"
	"ehjoin/internal/metrics"
	rt "ehjoin/internal/runtime"
	"ehjoin/internal/tcpnet"
	"ehjoin/internal/tuple"
	"ehjoin/internal/wire"
)

const (
	chunkTuples = 1000
	// sendWindowBytes bounds the physical chunk bytes one data source may
	// have in flight toward one join node while that node has the memory
	// headroom for it (core.Config.MaxCreditWindow, DESIGN.md §15). The
	// default fixed window is 4 chunks — 64 KB, a credit round trip per few
	// hundred microseconds of work — and starves the pipeline between three
	// processes; EXPERIMENTS.md "Receiver-advertised window" has the sweep.
	sendWindowBytes = 512 << 10
)

func main() {
	var (
		listen       = flag.String("listen", "127.0.0.1:0", "address to accept workers on")
		workers      = flag.Int("workers", 2, "number of worker processes")
		spawn        = flag.Bool("spawn", true, "spawn local worker copies of this binary")
		worker       = flag.Bool("worker", false, "run as a worker (internal, used by -spawn)")
		connect      = flag.String("connect", "", "coordinator address (worker mode)")
		algName      = flag.String("alg", "hybrid", "join algorithm: split|replication|hybrid|ooc")
		initial      = flag.Int("initial", 2, "initial number of join nodes")
		maxNodes     = flag.Int("max", 8, "total join nodes in the environment")
		rTuples      = flag.Int64("r", 200_000, "build relation cardinality")
		sTuples      = flag.Int64("s", 200_000, "probe relation cardinality")
		budget       = flag.Int64("budget", 4<<20, "per-node hash memory budget in bytes")
		distName     = flag.String("dist", "uniform", "build-side key distribution: uniform|gaussian|zipf (probe mirrors the build via the correlated stream when zipf)")
		zipfS        = flag.Float64("zipf-s", 1.5, "zipf exponent s")
		heavyThresh  = flag.Float64("heavy-threshold", 0, "heavy-hitter mass threshold as a fraction of the build relation (0 = off): replicate heavy build keys, partition their probes")
		kill         = flag.String("kill", "", "kill spawned worker W at T seconds wall time, format W@T (fault-injection demo; needs -spawn)")
		recover_     = flag.Bool("recover", false, "survive worker deaths: re-stream lost state via the scheduler instead of aborting")
		wireMode     = flag.String("wire", "binary", "message encoding on the wire: binary|gob")
		spillRung    = flag.Bool("spill", false, "evict partitions to worker-local disk instead of aborting when the cluster is exhausted (fourth degradation rung)")
		chaos        = flag.String("chaos", "", "deterministic network fault injection on worker connections: a PRNG seed, or a schedule like corrupt@4096;tear@9000;dup@3;drop@20000;stallr@8000:50")
		resume       = flag.Bool("resume", true, "recover broken worker connections by ack-based session resume (retransmit only unacked frames) before falling back to re-streaming")
		resumeWindow = flag.Duration("resume-window", tcpnet.DefaultResumeWindow,
			"how long a disconnected worker may take to redial before the next recovery rung")
		wal          = flag.String("wal", "", "write-ahead checkpoint log for the coordinator control plane (DESIGN.md §12); enables crash recovery via -coord-restart")
		coordKill    = flag.String("coord-kill", "", "kill the coordinator after record N of phase P, format P@N (P=-1 counts whole-log records); fault-injection demo, needs -wal")
		coordRestart = flag.Bool("coord-restart", false, "on coordinator death, restart in-process: replay the -wal log, rebind the listener, and resume the run where it died")
		park         = flag.Bool("park", false, "workers ride out a coordinator crash parked in their redial loop instead of treating EOF as shutdown (implied for spawned workers by -coord-restart)")
		cpuProfile   = flag.String("cpuprofile", "", "write a CPU profile of the coordinator to FILE and of each spawned worker i to FILE.w<i>")
	)
	flag.Parse()

	switch *wireMode {
	case "binary":
		wire.SetBinary(true)
	case "gob":
		wire.SetBinary(false)
	default:
		fmt.Fprintf(os.Stderr, "ehjadist: unknown wire mode %q (want binary or gob)\n", *wireMode)
		os.Exit(2)
	}
	startCPUProfile(*cpuProfile)
	defer stopCPUProfile()

	if *worker {
		runWorker(*connect, *chaos, *resume, *park)
		return
	}

	if *workers < 1 || *workers > tcpnet.MaxWorkers {
		fmt.Fprintf(os.Stderr, "ehjadist: -workers %d: want 1 to %d\n", *workers, tcpnet.MaxWorkers)
		stopCPUProfile()
		os.Exit(2)
	}

	var alg core.Algorithm
	switch *algName {
	case "split":
		alg = core.Split
	case "replication", "repl":
		alg = core.Replication
	case "hybrid":
		alg = core.Hybrid
	case "ooc", "out-of-core":
		alg = core.OutOfCore
	default:
		fmt.Fprintf(os.Stderr, "ehjadist: unknown algorithm %q\n", *algName)
		stopCPUProfile()
		os.Exit(2)
	}

	dist, err := datagen.ParseDist(*distName)
	if err != nil {
		fatal(err)
	}
	build := datagen.Spec{Dist: dist, ZipfS: *zipfS, Mean: 0.5, Sigma: 0.001, Tuples: *rTuples, Seed: 1}
	probe := datagen.Spec{Dist: dist, ZipfS: *zipfS, Mean: 0.5, Sigma: 0.001, Tuples: *sTuples, Seed: 2}
	if dist == datagen.Zipf {
		// Mirror the build stream so probe skew lands on the keys the
		// build actually made heavy.
		probe.Dist = datagen.Correlated
	} else if dist == datagen.Correlated {
		fatal(fmt.Errorf("correlated is probe-only; pick the build distribution (-dist zipf implies a correlated probe)"))
	}
	cfg := core.Config{
		Algorithm:       alg,
		InitialNodes:    *initial,
		MaxNodes:        *maxNodes,
		Sources:         2,
		MemoryBudget:    *budget,
		ChunkTuples:     chunkTuples,
		MaxCreditWindow: sendWindowBytes / (chunkTuples * tuple.PhysicalSize),
		SpillEnabled:    *spillRung,
		HeavyThreshold:  *heavyThresh,
		Build:           build,
		Probe:           probe,
		MatchFraction:   1.0,
	}

	if _, err := tcpnet.ParseChaos(*chaos); err != nil {
		fatal(err) // reject a bad schedule before spawning anything
	}

	killWorker, killAfter := -1, time.Duration(0)
	if *kill != "" {
		w, after, err := parseKill(*kill)
		if err != nil {
			fatal(err)
		}
		if !*spawn {
			fatal(fmt.Errorf("-kill %s: needs -spawn (only self-spawned workers can be killed)", *kill))
		}
		if w < 0 || w >= *workers {
			fatal(fmt.Errorf("-kill %s: no spawned worker %d (have %d)", *kill, w, *workers))
		}
		killWorker, killAfter = w, after
	}

	crashPhase, crashRecs := 0, int64(0)
	if *coordKill != "" {
		if *wal == "" {
			fatal(fmt.Errorf("-coord-kill: nothing would survive the crash without -wal"))
		}
		p, n, err := parseCrashPoint(*coordKill)
		if err != nil {
			fatal(err)
		}
		crashPhase, crashRecs = p, n
	}
	if *coordRestart && *wal == "" {
		fatal(fmt.Errorf("-coord-restart: needs -wal to restart from"))
	}
	if *wal != "" && !*resume {
		fatal(fmt.Errorf("-wal: crash recovery is worker-initiated re-attachment; it needs -resume"))
	}
	var walF *os.File
	if *wal != "" {
		f, err := os.Create(*wal)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		walF = f
	}
	// Spawned workers must survive the coordinator's death to re-attach.
	*park = *park || (*coordRestart && *spawn)

	l, err := net.Listen("tcp", *listen)
	if err != nil {
		fatal(err)
	}
	defer l.Close()
	fmt.Printf("ehjadist: coordinator on %s, waiting for %d worker(s)\n", l.Addr(), *workers)

	var procs []*exec.Cmd
	if *spawn {
		self, err := os.Executable()
		if err != nil {
			fatal(err)
		}
		for i := 0; i < *workers; i++ {
			args := []string{"-worker", "-connect", l.Addr().String(), "-wire", *wireMode,
				"-resume=" + strconv.FormatBool(*resume), "-park=" + strconv.FormatBool(*park)}
			if *chaos != "" {
				args = append(args, "-chaos", *chaos)
			}
			if *cpuProfile != "" {
				args = append(args, "-cpuprofile", *cpuProfile+".w"+strconv.Itoa(i))
			}
			cmd := exec.Command(self, args...)
			cmd.Stderr = os.Stderr
			if err := cmd.Start(); err != nil {
				fatal(err)
			}
			procs = append(procs, cmd)
		}
	}

	conns := make([]net.Conn, *workers)
	for i := range conns {
		c, err := l.Accept()
		if err != nil {
			fatal(err)
		}
		conns[i] = c
		fmt.Printf("ehjadist: worker %d connected from %s\n", i, c.RemoteAddr())
	}

	blob, err := core.EncodeConfig(cfg)
	if err != nil {
		fatal(err)
	}
	ids, err := core.JoinNodeIDs(cfg)
	if err != nil {
		fatal(err)
	}
	assignment := make(map[rt.NodeID]int)
	for i, id := range ids {
		assignment[id] = i % *workers
	}

	schedID, err := core.SchedulerNodeID(cfg)
	if err != nil {
		fatal(err)
	}
	var coord *tcpnet.Coordinator
	// baseOpts builds the option set shared by the first coordinator and
	// any crash restarts; each instance gets its own listener and a
	// failure handler closed over its own *Coordinator (the handler runs
	// inside that coordinator's Drain loop, so the closure is safe).
	baseOpts := func(l net.Listener, target **tcpnet.Coordinator) []tcpnet.Option {
		var opts []tcpnet.Option
		if *resume {
			// The coordinator takes over the listener: disconnected workers
			// redial it and resume their session in place.
			opts = append(opts, tcpnet.WithResume(l, *resumeWindow))
		}
		if walF != nil {
			opts = append(opts, tcpnet.WithCheckpoint(walF))
		}
		if *recover_ || *coordRestart {
			opts = append(opts, tcpnet.WithFailureHandler(func(w int, nodes []rt.NodeID, cause error) {
				fmt.Fprintf(os.Stderr, "ehjadist: worker %d failed (%v); recovering %d node(s)\n",
					w, cause, len(nodes))
				for _, n := range nodes {
					(*target).Inject(schedID, core.NodeDeadMessage(n))
				}
			}))
		}
		return opts
	}
	opts := baseOpts(l, &coord)
	if crashRecs > 0 {
		opts = append(opts, tcpnet.WithCrashPoint(crashPhase, crashRecs))
	}
	coord, err = tcpnet.NewCoordinator(blob, assignment, conns, opts...)
	if err != nil {
		fatal(err)
	}
	if killWorker >= 0 {
		w := killWorker
		time.AfterFunc(killAfter, func() {
			fmt.Fprintf(os.Stderr, "ehjadist: killing worker %d (fault injection)\n", w)
			_ = procs[w].Process.Kill()
		})
	}
	start := time.Now()
	report, err := core.Execute(cfg, coord)
	if err != nil && errors.Is(err, tcpnet.ErrCoordKilled) && *coordRestart {
		// The supervisor path (DESIGN.md §12): the old process state is
		// gone — only the write-ahead log and the parked workers survive.
		// Rebind the workers' dial address, replay the log into a restored
		// coordinator, and pick the run up at the exact phase step where
		// the old one died. The restored coordinator keeps appending to
		// the same log, so a second crash would replay the whole history.
		fmt.Fprintf(os.Stderr, "ehjadist: coordinator died (%v); restarting from %s\n", err, *wal)
		coord.Close()
		l2, lerr := net.Listen("tcp", l.Addr().String())
		if lerr != nil {
			fatal(fmt.Errorf("rebinding %s: %w", l.Addr(), lerr))
		}
		defer l2.Close()
		logged, rerr := os.ReadFile(*wal)
		if rerr != nil {
			fatal(rerr)
		}
		snap, rerr := tcpnet.ReadSnapshot(bytes.NewReader(logged))
		if rerr != nil {
			fatal(rerr)
		}
		rs, rerr := core.PrepareResume(snap.CfgBlob())
		if rerr != nil {
			fatal(rerr)
		}
		var coord2 *tcpnet.Coordinator
		coord2, rerr = tcpnet.RestoreCoordinator(snap, rs.Actors(), baseOpts(l2, &coord2)...)
		if rerr != nil {
			fatal(fmt.Errorf("restoring from checkpoint: %w", rerr))
		}
		coord = coord2
		report, err = core.ResumeExecute(rs, coord, coord.DrainsDone(), coord.RootInjects())
	}
	stats := coord.TransportStats()
	coord.Close()
	for _, p := range procs {
		_ = p.Wait()
	}
	if err != nil {
		fatal(err)
	}
	elapsed := time.Since(start).Seconds()
	fmt.Printf("ehjadist: %d matches (checksum %#x) across %d worker process(es) in %.2fs wall time\n",
		report.Matches, report.Checksum, *workers, elapsed)
	fmt.Printf("ehjadist: %.0f tuples/sec over the %s wire\n",
		float64(*rTuples+*sTuples)/elapsed, *wireMode)
	fmt.Printf("ehjadist: nodes %d -> %d, splits %d, replications %d\n",
		report.InitialNodes, report.FinalNodes, report.Splits, report.Replications)
	fmt.Printf("ehjadist: p2p topology, coordinator relayed %d worker-to-worker message(s) (%d KB)\n",
		stats.RelayedMessages, stats.RelayedBytes>>10)
	if report.HeavyKeys > 0 {
		fmt.Printf("ehjadist: %d heavy key(s): %d build tuples replicated, %d probes partitioned, probe max/mean %.2f\n",
			report.HeavyKeys, report.HeavyCopies, report.HeavyProbeTuples,
			metrics.MaxMeanRatio(report.NodeProbeLoads))
	}
	if report.SpilledPartitions > 0 {
		fmt.Printf("ehjadist: spilled %d partition(s) to disk (%d KB), degradation rung %d\n",
			report.SpilledPartitions, report.SpillBytes>>10, report.DegradationRung)
	}
	fmt.Printf("ehjadist: flow control: send window reached %d chunk(s), sources parked on an exhausted window %d time(s)\n",
		report.WidestWindow, report.CreditStalls)
	if report.NodesLost > 0 {
		fmt.Printf("ehjadist: lost %d node(s), recovered %d in %.3fs, re-streamed %d chunks (%d tuples)\n",
			report.NodesLost, report.NodesRecovered, report.RecoverySec,
			report.RestreamedChunks, report.RestreamedTuples)
		if report.Degraded {
			fmt.Println("ehjadist: DEGRADED — result may be incomplete")
		}
	}
	if report.RecoveryRung > 0 || report.Resumes > 0 ||
		report.ChecksumFailures > 0 || report.DuplicateFrames > 0 {
		fmt.Printf("ehjadist: recovery rung %d: %d session resume(s), %d/%d frames retransmitted, %d checksum failure(s), %d duplicate(s) shed\n",
			report.RecoveryRung, report.Resumes, report.RetransmittedFrames,
			report.SessionFrames, report.ChecksumFailures, report.DuplicateFrames)
	}
}

// parseKill parses a "W@T" fault spec: worker index and wall-clock seconds.
func parseKill(s string) (worker int, after time.Duration, err error) {
	w, t, ok := strings.Cut(s, "@")
	if !ok {
		return 0, 0, fmt.Errorf("-kill %q: want W@T (e.g. 1@0.5)", s)
	}
	worker, err = strconv.Atoi(w)
	if err != nil {
		return 0, 0, fmt.Errorf("-kill %q: bad worker index: %v", s, err)
	}
	sec, err := strconv.ParseFloat(t, 64)
	if err != nil || sec < 0 {
		return 0, 0, fmt.Errorf("-kill %q: bad kill time %q", s, t)
	}
	return worker, time.Duration(sec * float64(time.Second)), nil
}

// parseCrashPoint parses a "P@N" coordinator crash spec: kill after log
// record N of phase P, or of the whole log when P is -1.
func parseCrashPoint(s string) (phase int, records int64, err error) {
	p, n, ok := strings.Cut(s, "@")
	if !ok {
		return 0, 0, fmt.Errorf("-coord-kill %q: want P@N (e.g. 1@40, or -1@120 for whole-log records)", s)
	}
	phase, err = strconv.Atoi(p)
	if err != nil {
		return 0, 0, fmt.Errorf("-coord-kill %q: bad phase: %v", s, err)
	}
	records, err = strconv.ParseInt(n, 10, 64)
	if err != nil || records <= 0 {
		return 0, 0, fmt.Errorf("-coord-kill %q: bad record count %q", s, n)
	}
	return phase, records, nil
}

func runWorker(connect, chaos string, resume, park bool) {
	plan, err := tcpnet.ParseChaos(chaos)
	if err != nil {
		fatal(err)
	}
	// All connections — initial and redialed — go through the same chaos
	// plan, so a scheduled fault fires exactly once per worker process no
	// matter how many reconnects it takes to get past it.
	dial := func() (net.Conn, error) {
		c, err := net.Dial("tcp", connect)
		if err != nil {
			return nil, err
		}
		return plan.Wrap(c), nil
	}
	conn, err := dial()
	if err != nil {
		fatal(err)
	}
	defer conn.Close()
	factory := func(blob []byte, id rt.NodeID) (rt.Actor, error) {
		cfg, err := core.DecodeConfig(blob)
		if err != nil {
			return nil, err
		}
		return core.NewJoinActor(cfg, id)
	}
	var opts []tcpnet.WorkerOption
	if resume {
		opts = append(opts, tcpnet.WithWorkerResume(dial, 0, 0))
		if park {
			opts = append(opts, tcpnet.WithWorkerPark())
		}
	}
	if chaos != "" {
		// Peer links share the process's one chaos plan, so a scheduled
		// fault fires once per worker whichever link it lands on.
		opts = append(opts, tcpnet.WithWorkerPeerChaos(plan.Wrap))
	}
	if err := tcpnet.RunWorker(conn, factory, opts...); err != nil {
		fatal(err)
	}
}

// stopCPUProfile ends the -cpuprofile profile, if one is running; fatal
// calls it too, because os.Exit skips deferred calls.
var stopCPUProfile = func() {}

func startCPUProfile(path string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		fatal(err)
	}
	stopCPUProfile = func() {
		pprof.StopCPUProfile()
		f.Close()
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ehjadist:", err)
	stopCPUProfile()
	os.Exit(1)
}
