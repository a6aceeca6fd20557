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
//
// A spawned worker runs `ehjadist -worker` followed by joind's flags.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"time"

	"ehjoin/cmd/internal/cli"
	"ehjoin/cmd/internal/worker"
	"ehjoin/internal/cluster"
	"ehjoin/internal/core"
	"ehjoin/internal/datagen"
	"ehjoin/internal/metrics"
	"ehjoin/internal/tcpnet"
	"ehjoin/internal/tuple"
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
	if len(os.Args) > 1 && os.Args[1] == "-worker" {
		// A self-spawned worker (see -spawn): the rest of the command
		// line is worker flags.
		os.Exit(worker.Main("ehjadist -worker", os.Args[2:], os.Stderr))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command behind main: it parses args, spawns or accepts the
// workers, executes the run and writes the report to stdout. It returns the
// exit status: 2 for a usage error, 1 for a rejected config or failed run.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ehjadist", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wl := cli.BindWorkload(fs, cli.Defaults{Initial: 2, Max: 8, Tuples: 200_000, Budget: 4 << 20})
	var (
		listen       = fs.String("listen", "127.0.0.1:0", "address to accept workers on")
		workers      = fs.Int("workers", 2, "number of worker processes")
		spawn        = fs.Bool("spawn", true, "spawn local worker copies of this binary")
		kill         = fs.String("kill", "", "kill spawned worker W at T seconds wall time, format W@T (fault-injection demo; needs -spawn)")
		recover_     = fs.Bool("recover", false, "survive worker deaths: re-stream lost state via the scheduler instead of aborting")
		chaos        = fs.String("chaos", "", "deterministic network fault injection on worker connections: a PRNG seed, or a schedule like corrupt@4096;tear@9000;dup@3;drop@20000;stallr@8000:50")
		resumeWindow = fs.Duration("resume-window", tcpnet.DefaultResumeWindow,
			"how long a disconnected worker may take to redial and resume its session before it is declared dead")
		wal        = fs.String("wal", "", "write-ahead checkpoint log for the coordinator control plane (DESIGN.md §12)")
		coordKill  = fs.String("coord-kill", "", "kill the coordinator after record N of phase P, format P@N (P=-1 counts whole-log records), then restart it in-process from the -wal log; fault-injection demo, needs -wal")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile of the coordinator to FILE and of each spawned worker i to FILE.w<i>")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(code int, err error) int {
		fmt.Fprintln(stderr, "ehjadist:", err)
		return code
	}
	stop, err := cli.StartCPUProfile(*cpuProfile)
	if err != nil {
		return fail(1, err)
	}
	defer stop()

	if *workers < 1 || *workers > tcpnet.MaxWorkers {
		return fail(2, fmt.Errorf("-workers %d: want 1 to %d", *workers, tcpnet.MaxWorkers))
	}
	cfg, err := wl.Config(1)
	if err != nil {
		return fail(2, err)
	}
	if cfg.Build.Dist == datagen.Zipf {
		// Mirror the build stream so probe skew lands on the keys the
		// build actually made heavy.
		cfg.Probe.Dist = datagen.Correlated
	}
	cfg.Sources = 2
	cfg.ChunkTuples = chunkTuples
	cfg.MaxCreditWindow = sendWindowBytes / (chunkTuples * tuple.PhysicalSize)

	if _, err := tcpnet.ParseChaos(*chaos); err != nil {
		return fail(2, err) // reject a bad schedule before spawning anything
	}
	killWorker, killAfter := -1, time.Duration(0)
	if *kill != "" {
		if killWorker, killAfter, err = parseKill(*kill, *spawn, *workers); err != nil {
			return fail(2, err)
		}
	}
	crashPhase, crashRecs := 0, int64(0)
	if *coordKill != "" {
		if crashPhase, crashRecs, err = parseCrashPoint(*coordKill, *wal != ""); err != nil {
			return fail(2, err)
		}
	}

	// Check the configuration before a listener is bound or a worker
	// spawned, so a rejected one leaves nothing waiting for the run.
	if _, err := core.EncodeConfig(cfg); err != nil {
		return fail(1, err)
	}
	var walF *os.File
	if *wal != "" {
		if walF, err = os.Create(*wal); err != nil {
			return fail(1, err)
		}
		defer walF.Close()
	}
	setup := cluster.Setup{
		Recover: *recover_ || *coordKill != "",
		WAL:     walF,
		Options: func(n int) []tcpnet.Option {
			opts := []tcpnet.Option{tcpnet.WithResumeWindow(*resumeWindow)}
			if n == 0 && crashRecs > 0 {
				opts = append(opts, tcpnet.WithCrashPoint(crashPhase, crashRecs))
			}
			return opts
		},
		Logf: func(format string, args ...any) { fmt.Fprintf(stderr, "ehjadist: "+format+"\n", args...) },
	}
	l, err := net.Listen("tcp", *listen)
	if err != nil {
		return fail(1, err)
	}
	defer l.Close() // the cluster takes it over and closes it first
	fmt.Fprintf(stdout, "ehjadist: coordinator on %s, waiting for %d worker(s)\n", l.Addr(), *workers)

	// drive runs the join from the spawn on; its defers stop the -kill
	// timer, close the coordinator and reap the spawned workers (killed
	// first unless the run succeeded) on every return.
	drive := func() (_ *core.Report, start time.Time, err error) {
		var procs *workerProcs
		if *spawn {
			if procs, err = spawnWorkers(*workers, l.Addr().String(), *chaos, *cpuProfile, stderr); err != nil {
				return nil, start, err
			}
		}
		defer func() { procs.reap(err != nil) }()
		conns, err := accept(l, *workers, procs, stdout)
		if err != nil {
			return nil, start, err
		}
		cl, err := cluster.Start(cfg, l, conns, setup)
		if err != nil {
			return nil, start, err
		}
		defer cl.Close()
		if killWorker >= 0 {
			t := time.AfterFunc(killAfter, func() {
				fmt.Fprintf(stderr, "ehjadist: killing worker %d (fault injection)\n", killWorker)
				_ = procs.cmds[killWorker].Process.Kill()
			})
			defer t.Stop()
		}
		start = time.Now()
		report, err := cl.Run()
		return report, start, err
	}
	report, start, err := drive()
	if err != nil {
		return fail(1, err)
	}
	elapsed := time.Since(start).Seconds()
	fmt.Fprintf(stdout, "ehjadist: %d matches (checksum %#x) across %d worker process(es) in %.2fs wall time\n",
		report.Matches, report.Checksum, *workers, elapsed)
	fmt.Fprintf(stdout, "ehjadist: %.0f tuples/sec\n", float64(cfg.Build.Tuples+cfg.Probe.Tuples)/elapsed)
	fmt.Fprintf(stdout, "ehjadist: nodes %d -> %d, splits %d, replications %d\n",
		report.InitialNodes, report.FinalNodes, report.Splits, report.Replications)
	if report.HeavyKeys > 0 {
		fmt.Fprintf(stdout, "ehjadist: %d heavy key(s): %d build tuples replicated, %d probes partitioned, probe max/mean %.2f\n",
			report.HeavyKeys, report.HeavyCopies, report.HeavyProbeTuples,
			metrics.MaxMeanRatio(report.NodeProbeLoads))
	}
	if report.SpilledPartitions > 0 {
		fmt.Fprintf(stdout, "ehjadist: spilled %d partition(s) to disk (%d KB), degradation rung %d\n",
			report.SpilledPartitions, report.SpillBytes>>10, report.DegradationRung)
	}
	fmt.Fprintf(stdout, "ehjadist: flow control: send window reached %d chunk(s), sources parked on an exhausted window %d time(s)\n",
		report.WidestWindow, report.CreditStalls)
	if report.NodesLost > 0 {
		fmt.Fprintf(stdout, "ehjadist: lost %d node(s), recovered %d in %.3fs, re-streamed %d chunks (%d tuples)\n",
			report.NodesLost, report.NodesRecovered, report.RecoverySec,
			report.RestreamedChunks, report.RestreamedTuples)
		if report.Degraded {
			fmt.Fprintln(stdout, "ehjadist: DEGRADED — result may be incomplete")
		}
	}
	if report.RecoveryRung > 0 || report.Resumes > 0 ||
		report.ChecksumFailures > 0 || report.DuplicateFrames > 0 {
		fmt.Fprintf(stdout, "ehjadist: recovery rung %d: %d session resume(s), %d/%d frames retransmitted, %d checksum failure(s), %d duplicate(s) shed\n",
			report.RecoveryRung, report.Resumes, report.RetransmittedFrames,
			report.SessionFrames, report.ChecksumFailures, report.DuplicateFrames)
	}
	return 0
}

// parseKill parses a "W@T" fault spec, worker index and wall-clock
// seconds, and checks that W is a worker this command spawns.
func parseKill(s string, spawn bool, workers int) (worker int, after time.Duration, err error) {
	w, t, ok := strings.Cut(s, "@")
	worker, werr := strconv.Atoi(w)
	sec, terr := strconv.ParseFloat(t, 64)
	switch {
	case !ok:
		return 0, 0, fmt.Errorf("-kill %q: want W@T (e.g. 1@0.5)", s)
	case werr != nil:
		return 0, 0, fmt.Errorf("-kill %q: bad worker index: %v", s, werr)
	case terr != nil || !(sec >= 0 && sec <= math.MaxInt64/2e9): // NaN fails both; T fits a Duration
		return 0, 0, fmt.Errorf("-kill %q: bad kill time %q", s, t)
	case !spawn:
		return 0, 0, fmt.Errorf("-kill %s: needs -spawn (only self-spawned workers can be killed)", s)
	case worker < 0 || worker >= workers:
		return 0, 0, fmt.Errorf("-kill %s: no spawned worker %d (have %d)", s, worker, workers)
	}
	return worker, time.Duration(sec * float64(time.Second)), nil
}

// parseCrashPoint parses a "P@N" coordinator crash spec, kill after log
// record N of phase P or of the whole log when P is -1, and checks that a
// log (wal) is kept to restart from.
func parseCrashPoint(s string, wal bool) (phase int, records int64, err error) {
	p, n, ok := strings.Cut(s, "@")
	phase, perr := strconv.Atoi(p)
	records, nerr := strconv.ParseInt(n, 10, 64)
	switch {
	case !wal:
		return 0, 0, fmt.Errorf("-coord-kill: nothing would survive the crash without -wal")
	case !ok:
		return 0, 0, fmt.Errorf("-coord-kill %q: want P@N (e.g. 1@40, or -1@120 for whole-log records)", s)
	case perr != nil:
		return 0, 0, fmt.Errorf("-coord-kill %q: bad phase: %v", s, perr)
	case nerr != nil || records <= 0:
		return 0, 0, fmt.Errorf("-coord-kill %q: bad record count %q", s, n)
	}
	return phase, records, nil
}

// workerProcs are the worker copies of this binary that ehjadist spawned.
type workerProcs struct {
	cmds   []*exec.Cmd
	errs   []error  // errs[i] is worker i's exit, set before i is sent on exited
	exited chan int // each worker's index as it exits; one send per worker
	wg     sync.WaitGroup
}

// spawnWorkers starts n workers that dial addr, worker i with its CPU
// profile in profile.w<i> if profile is set.
func spawnWorkers(n int, addr, chaos, profile string, stderr io.Writer) (*workerProcs, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	p := &workerProcs{errs: make([]error, n), exited: make(chan int, n)}
	for i := range n {
		args := []string{"-worker", "-connect", addr}
		if chaos != "" {
			args = append(args, "-chaos", chaos)
		}
		if profile != "" {
			args = append(args, "-cpuprofile", profile+".w"+strconv.Itoa(i))
		}
		cmd := exec.Command(self, args...)
		cmd.Stderr = stderr
		if err := cmd.Start(); err != nil {
			p.reap(true)
			return nil, err
		}
		p.cmds = append(p.cmds, cmd)
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			p.errs[i] = cmd.Wait()
			p.exited <- i
		}()
	}
	return p, nil
}

// reap waits for every spawned worker to exit, killing each first if kill
// is set. A nil p has none.
func (p *workerProcs) reap(kill bool) {
	if p == nil {
		return
	}
	for _, cmd := range p.cmds {
		if kill {
			_ = cmd.Process.Kill() // fails only for a worker that has exited
		}
	}
	p.wg.Wait()
}

// accept accepts one connection per worker from l. A spawned worker that
// exits first fails it: that worker will never connect.
func accept(l net.Listener, n int, procs *workerProcs, stdout io.Writer) ([]net.Conn, error) {
	accepted := make(chan net.Conn, n) // one send per Accept: never blocks
	failed := make(chan error, 1)
	go func() {
		for range n {
			c, err := l.Accept()
			if err != nil {
				failed <- err
				return
			}
			accepted <- c
		}
	}()
	var exited chan int // nil, so never ready, without spawned workers
	if procs != nil {
		exited = procs.exited
	}
	conns := make([]net.Conn, 0, n)
	for len(conns) < n {
		var err error
		select {
		case c := <-accepted:
			fmt.Fprintf(stdout, "ehjadist: worker %d connected from %s\n", len(conns), c.RemoteAddr())
			conns = append(conns, c)
		case err = <-failed:
		case i := <-exited:
			err = fmt.Errorf("spawned worker %d exited before the run started (%v)", i, procs.errs[i])
		}
		if err != nil {
			for _, c := range conns {
				c.Close()
			}
			return nil, err
		}
	}
	return conns, nil
}
