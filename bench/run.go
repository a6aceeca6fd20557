package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/debug"
	"time"

	"ehjoin"
	"ehjoin/internal/live"
	"ehjoin/internal/sim"
)

const (
	// setupReps is how often an end-to-end run repeats its set-up (build
	// both binaries into a fresh directory, compute the oracle) so that
	// setup_s is a median and not one sample.
	setupReps = 3
	// minRounds is the fewest CLI runs a measurement accepts, however
	// slow the host; a healthy run fits ten into the default --seconds.
	minRounds = 3
)

// bench is the state one invocation shares across workloads.
type bench struct {
	seed    int64
	seconds float64
	self    string // this executable, re-run as the measuring child (see proc.go)
	tmp     string // scratch directory inside the checkout, removed on exit
	binDir  string // where the current ehjadist and ehjarun binaries are
	tr      *tracer
}

// runResult is one workload measured one way (end to end, or traced), in
// the driver's result schema plus the spread behind each timing metric.
type runResult struct {
	Workload  string                 `json:"workload"`
	Traced    bool                   `json:"traced"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Spread    map[string]summary     `json:"spread,omitempty"`
	Reps      []repSample            `json:"reps,omitempty"`
	Errors    []string               `json:"errors,omitempty"`
}

// repSample is the raw measurement of one passing CLI run, kept so that a
// reader of result.json can recompute any summary.
type repSample struct {
	WallS      float64 `json:"wall_s"`
	CPUS       float64 `json:"cpu_s"`
	RSSMB      float64 `json:"rss_mb"`
	RefBeforeS float64 `json:"ref_before_s"`
	RefAfterS  float64 `json:"ref_after_s"`
}

func (r *runResult) fail(err error) {
	r.Failed++
	r.Correct = false
	r.Errors = append(r.Errors, err.Error())
}

func (r runResult) failedFrac() float64 {
	if r.Attempted == 0 {
		return 1
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// setup does what must happen before a workload can be measured: build the
// two CLI programs from source into a fresh directory and compute the
// oracle for the workload's input. It returns the seconds that took. The
// first build in a fresh checkout is cold and takes tens of seconds; the
// median over setupReps hides it, as a warm cache is the steady state.
func (b *bench) setup(w workload) (oracleResult, float64, error) {
	start := time.Now()
	dir, err := os.MkdirTemp(b.tmp, "bin")
	if err != nil {
		return oracleResult{}, 0, err
	}
	cmd := exec.Command("go", "build", "-o", dir+string(filepath.Separator), "./cmd/ehjadist", "./cmd/ehjarun")
	if out, err := cmd.CombinedOutput(); err != nil {
		return oracleResult{}, 0, fmt.Errorf("go build: %w\n%s", err, out)
	}
	if b.binDir != "" {
		if err := os.RemoveAll(b.binDir); err != nil {
			return oracleResult{}, 0, err
		}
	}
	b.binDir = dir
	cfg := w.config(b.seed)
	want, err := computeOracle(cfg.Build, cfg.Probe, cfg.MatchFraction)
	return want, time.Since(start).Seconds(), err
}

// rep is one closed-loop CLI run with the reference-kernel timings taken
// immediately before and after it.
type rep struct {
	proc                procResult
	refBefore, refAfter float64 // wall seconds
	dist                distOut
	sim                 simOut
	walBytes            int64
	err                 error
}

// runCLI runs the workload once as a black-box process and checks its
// output against the oracle.
func (b *bench) runCLI(w workload, want oracleResult) rep {
	walPath := filepath.Join(b.tmp, "run.wal")
	var r rep
	r.proc = runProc(b.self, filepath.Join(b.binDir, w.bin()), w.args(b.seed, walPath), procTimeout)
	if r.proc.Err != nil {
		r.err = r.proc.Err
		return r
	}
	if w.sim {
		r.sim, r.err = parseSim(r.proc.Stdout)
		switch {
		case r.err != nil:
		case r.sim.Matches != want.Matches:
			r.err = fmt.Errorf("ehjarun: %d matches, oracle says %d", r.sim.Matches, want.Matches)
		case r.sim.Exhausted || r.sim.FinalNodes <= int64(w.initial):
			r.err = fmt.Errorf("ehjarun: expected expansion within the cluster, got %d nodes, exhausted %v",
				r.sim.FinalNodes, r.sim.Exhausted)
		}
		return r
	}
	if r.dist, r.err = parseDist(r.proc.Stdout); r.err != nil {
		return r
	}
	if r.dist.Matches != want.Matches || r.dist.Checksum != want.Checksum {
		r.err = fmt.Errorf("ehjadist: %d matches (checksum %#x), oracle says %d (%#x)",
			r.dist.Matches, r.dist.Checksum, want.Matches, want.Checksum)
		return r
	}
	if r.dist.Degraded {
		r.err = fmt.Errorf("ehjadist: run reported DEGRADED")
		return r
	}
	if r.err = w.expect(r.dist); r.err != nil {
		return r
	}
	if w.wal {
		st, err := os.Stat(walPath)
		if err != nil {
			r.err = fmt.Errorf("WAL not written: %w", err)
			return r
		}
		r.walBytes = st.Size()
	}
	return r
}

// rounds runs the schedule ref, run, ref, run, ..., ref for about budget,
// one process at a time. It stops when the next round would overrun the
// budget, but never before minRounds.
func (b *bench) rounds(w workload, want oracleResult, budget time.Duration) ([]rep, error) {
	start := time.Now()
	ref, err := b.refRun()
	if err != nil {
		return nil, err
	}
	var reps []rep
	for {
		r := b.runCLI(w, want)
		r.refBefore = ref
		if ref, err = b.refRun(); err != nil {
			return nil, err
		}
		r.refAfter = ref
		reps = append(reps, r)
		elapsed := time.Since(start)
		perRound := elapsed / time.Duration(len(reps))
		if len(reps) >= minRounds && elapsed+perRound > budget {
			return reps, nil
		}
	}
}

// tally counts the reps into res and returns the ones that passed. For the
// simulator it also checks that the virtual total repeats exactly.
func tally(w workload, reps []rep, res *runResult) []rep {
	var ok []rep
	for _, r := range reps {
		res.Attempted++
		if r.err == nil && w.sim && len(ok) > 0 && r.sim.Total != ok[0].sim.Total {
			r.err = fmt.Errorf("ehjarun: virtual total %ss differs from the first round's %ss", r.sim.Total, ok[0].sim.Total)
		}
		if r.err != nil {
			res.fail(r.err)
			continue
		}
		ok = append(ok, r)
		res.Reps = append(res.Reps, repSample{r.proc.WallS, r.proc.CPUS, r.proc.RSSMB, r.refBefore, r.refAfter})
	}
	return ok
}

func column(reps []rep, f func(rep) float64) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = f(r)
	}
	return out
}

// e2e measures one workload end to end, tracing off.
func (b *bench) e2e(w workload) runResult {
	res := runResult{Workload: w.name, Correct: true, Spread: map[string]summary{}}
	abort := func(err error) runResult {
		res.Attempted++
		res.fail(err)
		return res
	}
	// Set-up runs between reference-kernel timings like everything else
	// that is timed, and is reported in seconds at reference speed.
	var want oracleResult
	var setups, rawSetups []float64
	ref, err := b.refRun()
	if err != nil {
		return abort(err)
	}
	for i := 0; i < setupReps; i++ {
		var took float64
		if want, took, err = b.setup(w); err != nil {
			return abort(err)
		}
		before := ref
		if ref, err = b.refRun(); err != nil {
			return abort(err)
		}
		rawSetups = append(rawSetups, took)
		setups = append(setups, refNominalS*normalize(took, before, ref))
	}
	reps, err := b.rounds(w, want, time.Duration(b.seconds*float64(time.Second)))
	if err != nil {
		return abort(err)
	}
	ok := tally(w, reps, &res)
	if len(ok) == 0 {
		return res
	}
	res.Spread["rel_wall"] = summarize(column(ok, func(r rep) float64 { return normalize(r.proc.WallS, r.refBefore, r.refAfter) }))
	res.Spread["rel_cpu"] = summarize(column(ok, func(r rep) float64 { return normalize(r.proc.CPUS, r.refBefore, r.refAfter) }))
	res.Spread["peak_rss_mb"] = summarize(column(ok, func(r rep) float64 { return r.proc.RSSMB }))
	res.Spread["setup_s"] = summarize(setups)
	res.Spread["setup_raw_s"] = summarize(rawSetups)
	raw := map[string]float64{}
	for name, s := range res.Spread {
		raw[name] = s.Median
	}
	res.Metrics = report(e2eMetrics, raw)
	return res
}

// execute runs the workload's configuration in this process through the
// public ehjoin.Execute, on internal/live (internal/sim for the simulator
// workload). With root >= 0 the engine is wrapped by the tracing
// interposer and the actor spans land under that span.
func (b *bench) execute(w workload, want oracleResult, root int) (wallS, cpuS float64, err error) {
	cfg := w.config(b.seed)
	var eng ehjoin.Engine
	if w.sim {
		eng = sim.New(ehjoin.OSUMed())
	} else {
		l := live.New()
		defer l.Close()
		eng = l
	}
	var te *tracedEngine
	if root >= 0 {
		if te, err = newTracedEngine(eng, b.tr, w.name, root, cfg); err != nil {
			return 0, 0, err
		}
		eng = te
	}
	cpu0, t0 := selfCPUSeconds(), time.Now()
	rep, err := ehjoin.Execute(cfg, eng)
	wallS, cpuS = time.Since(t0).Seconds(), selfCPUSeconds()-cpu0
	if te != nil {
		te.finish()
	}
	if err != nil {
		return wallS, cpuS, err
	}
	if rep.Matches != want.Matches || (!w.sim && rep.Checksum != want.Checksum) {
		return wallS, cpuS, fmt.Errorf("in-process run: %d matches (checksum %#x), oracle says %d (%#x)",
			rep.Matches, rep.Checksum, want.Matches, want.Checksum)
	}
	return wallS, cpuS, nil
}

// traced produces the per-layer metrics of one workload: the staged layer
// run, the in-process engine run untraced and traced, then black-box CLI
// runs for the counters and the transport tax in whatever time remains.
func (b *bench) traced(w workload) runResult {
	res := runResult{Workload: w.name, Traced: true, Correct: true, Spread: map[string]summary{}}
	want, _, err := b.setup(w)
	if err != nil {
		res.Attempted = 1
		res.fail(err)
		return res
	}
	start := time.Now()
	tuples := float64(want.Tuples)
	raw := map[string]float64{"oracle.mapjoin_ns_per_tuple": want.Seconds * 1e9 / tuples}
	root := b.tr.begin(w.name, "trace", -1)

	layers := &layerRun{tr: b.tr, workload: w.name, root: b.tr.begin(w.name, "layers", root), metrics: raw}
	res.Attempted++
	if err := layers.run(w.config(b.seed), want); err != nil {
		res.fail(fmt.Errorf("layer run: %w", err))
	}
	b.tr.end(layers.root)

	res.Attempted += 2
	plainWall, plainCPU, err := b.execute(w, want, -1)
	if err != nil {
		res.fail(err)
	}
	engRoot := b.tr.begin(w.name, "engine", root)
	tracedWall, _, err := b.execute(w, want, engRoot)
	if err != nil {
		res.fail(err)
	}
	b.tr.end(engRoot)
	b.tr.end(root)
	debug.FreeOSMemory() // the CLI runs below should not share the host with our garbage
	actors := sumActorSpans(b.tr.snapshot(), w.name)
	raw["core.source_busy_s"] = actors.SourceBusyS
	raw["core.join_busy_s"] = actors.JoinBusyS
	raw["core.sched_busy_s"] = actors.SchedBusyS
	raw["core.join_wait_s"] = actors.JoinWaitS
	raw["core.msgs"] = float64(actors.Msgs)
	raw["live.exec_ns_per_tuple"] = plainWall * 1e9 / tuples
	raw["trace.overhead_frac"] = tracedWall/plainWall - 1

	remaining := time.Duration(b.seconds*float64(time.Second)) - time.Since(start)
	reps, err := b.rounds(w, want, remaining)
	if err != nil {
		res.Attempted++
		res.fail(err)
	}
	ok := tally(w, reps, &res)
	if len(ok) > 0 {
		refs := append(column(ok, func(r rep) float64 { return r.refBefore }), ok[len(ok)-1].refAfter)
		res.Spread["ref.kernel_s"] = summarize(refs)
		raw["ref.kernel_s"] = res.Spread["ref.kernel_s"].Median
		raw["ref.kernel_iqr_frac"] = res.Spread["ref.kernel_s"].iqrFrac()
		wall := median(column(ok, func(r rep) float64 { return r.proc.WallS }))
		cpu := median(column(ok, func(r rep) float64 { return r.proc.CPUS }))
		last := ok[len(ok)-1]
		if w.sim {
			raw["sim.ns_per_tuple"] = wall * 1e9 / tuples
			raw["sim.msgs_per_sec"] = float64(last.sim.Messages) / wall
			raw["sim.virtual_total_s"] = last.sim.TotalS
		} else {
			d := last.dist
			raw["ehjadist.wall_s_raw"] = wall
			raw["ehjadist.tuples_per_sec_raw"] = tuples / wall
			raw["ehjadist.final_nodes"] = float64(d.FinalNodes)
			raw["ehjadist.replications"] = float64(d.Replications)
			raw["ehjadist.spilled_partitions"] = float64(d.Spilled)
			raw["ehjadist.spill_kb"] = float64(d.SpillKB)
			raw["ehjadist.heavy_keys"] = float64(d.HeavyKeys)
			raw["ehjadist.relayed_msgs"] = float64(d.RelayedMsgs)
			raw["tcpnet.tax_ns_per_tuple"] = (wall - plainWall) * 1e9 / tuples
			raw["tcpnet.cpu_tax_ns_per_tuple"] = (cpu - plainCPU) * 1e9 / tuples
			raw["tcpnet.wal_bytes_per_ktuple"] = float64(last.walBytes) / (tuples / 1000)
		}
	}
	res.Metrics = report(layerMetrics, raw)
	return res
}
