package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"

	"ehjoin/internal/datagen"
	"ehjoin/internal/spill"
)

// Captured stdout of the two CLIs. The benchmark depends on these lines;
// if a change to cmd/ rewords them, these tests say so before a run does.
const (
	distPlain = `ehjadist: coordinator on 127.0.0.1:43653, waiting for 2 worker(s)
ehjadist: worker 0 connected from 127.0.0.1:55728
ehjadist: worker 1 connected from 127.0.0.1:55736
ehjadist: 4000000 matches (checksum 0x431256d0f2e91a85) across 2 worker process(es) in 2.76s wall time
ehjadist: 2898271 tuples/sec over the binary wire
ehjadist: nodes 2 -> 6, splits 0, replications 4
ehjadist: p2p topology, coordinator relayed 0 worker-to-worker message(s) (0 KB)
`
	distSpill = `ehjadist: 4000000 matches (checksum 0x431256d0f2e91a85) across 2 worker process(es) in 3.29s wall time
ehjadist: 2432601 tuples/sec over the binary wire
ehjadist: nodes 2 -> 2, splits 0, replications 0
ehjadist: star topology, coordinator relayed 17 worker-to-worker message(s) (212 KB)
ehjadist: spilled 46 partition(s) to disk (562505 KB), degradation rung 4
`
	distHeavy = `ehjadist: 1389178053 matches (checksum 0xc3922702ed5e2076) across 2 worker process(es) in 3.44s wall time
ehjadist: 305586 tuples/sec over the binary wire
ehjadist: nodes 2 -> 2, splits 0, replications 0
ehjadist: p2p topology, coordinator relayed 0 worker-to-worker message(s) (0 KB)
ehjadist: 20 heavy key(s): 21876 build tuples replicated, 437366 probes partitioned, probe max/mean 1.01
`
	simPlain = `hybrid: total 12.21s (build 6.59s, reshuffle 2.35s, probe 3.27s) nodes 4->16 splits 0 repl 12 extra-build 526.0 chunks probe-extra 0.0 chunks matches 3000000 load avg/max/min 18.8/18.8/18.7 chunks degradation rung 2
wire: 1048.4 MB in 2441 messages; spill: 0 MB written, 0 MB read, 0 BNL pass(es); wall clock 2.3s
comm: 0 tuples split-moved, 2250137 reshuffled, 0 stray re-routed; 301 chunks forwarded; 3000000 probe tuples processed
`
	simExhausted = `hybrid: total 1.93s (build 0.97s, reshuffle 0.31s, probe 0.65s) nodes 2->3 splits 0 repl 1 extra-build 12.0 chunks probe-extra 0.0 chunks matches 200000 load avg/max/min 6.7/6.7/6.6 chunks EXHAUSTED degradation rung 2
wire: 38.1 MB in 312 messages; spill: 0 MB written, 0 MB read, 0 BNL pass(es); wall clock 0.1s
`
	simSpillHeavy = `split: total 1.93s (build 0.97s, reshuffle 0.00s, probe 0.65s) nodes 2->3 splits 1 repl 0 extra-build 12.0 chunks probe-extra 0.0 chunks matches 637127883 load avg/max/min 6.7/6.7/6.6 chunks spilled 9 partitions (4410 KB) heavy 11 keys (100 replicated, 200 probes partitioned, probe max/mean 1.02) degradation rung 4
wire: 38.1 MB in 312 messages; spill: 0 MB written, 0 MB read, 0 BNL pass(es); wall clock 0.1s
`
)

func TestParseDist(t *testing.T) {
	d, err := parseDist(distPlain)
	if err != nil {
		t.Fatal(err)
	}
	want := distOut{Matches: 4000000, Checksum: 0x431256d0f2e91a85, FinalNodes: 6, Replications: 4}
	if d != want {
		t.Errorf("plain: got %+v, want %+v", d, want)
	}
	if d, err = parseDist(distSpill); err != nil {
		t.Fatal(err)
	}
	if d.Spilled != 46 || d.SpillKB != 562505 || d.RelayedMsgs != 17 {
		t.Errorf("spill: got %+v", d)
	}
	if d, err = parseDist(distHeavy); err != nil {
		t.Fatal(err)
	}
	if d.HeavyKeys != 20 || d.Matches != 1389178053 {
		t.Errorf("heavy: got %+v", d)
	}
	if d, err = parseDist(distPlain + "ehjadist: DEGRADED — result may be incomplete\n"); err != nil || !d.Degraded {
		t.Errorf("degraded: got %+v, %v", d, err)
	}
	if _, err = parseDist("ehjadist: worker 1 failed\n"); err == nil {
		t.Error("output without a result line parsed")
	}
}

func TestParseSim(t *testing.T) {
	s, err := parseSim(simPlain)
	if err != nil {
		t.Fatal(err)
	}
	want := simOut{Total: "12.21", TotalS: 12.21, FinalNodes: 16, Matches: 3000000, Messages: 2441}
	if s != want {
		t.Errorf("plain: got %+v, want %+v", s, want)
	}
	if s, err = parseSim(simExhausted); err != nil || !s.Exhausted || s.Matches != 200000 {
		t.Errorf("exhausted: got %+v, %v", s, err)
	}
	if s, err = parseSim(simSpillHeavy); err != nil || s.Matches != 637127883 || s.FinalNodes != 3 || s.Exhausted {
		t.Errorf("spill+heavy: got %+v, %v", s, err)
	}
	if _, err = parseSim("ehjarun: unknown algorithm\n"); err == nil {
		t.Error("output without a report line parsed")
	}
}

func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	s := summarize([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if s.Q1 != 2.75 || s.Median != 5.5 || s.Q3 != 8.25 || s.N != 10 {
		t.Errorf("got %+v", s)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if s = summarize([]float64{4, 1, 2}); s.Q1 != 1 || s.Median != 2 || s.Q3 != 4 {
		t.Errorf("got %+v", s)
	}
	if got := s.iqrFrac(); got != 1.5 {
		t.Errorf("iqrFrac = %v, want 1.5", got)
	}
	if s = summarize([]float64{7}); s.Median != 7 || s.N != 1 {
		t.Errorf("single sample: got %+v", s)
	}
	if got := normalize(3, 1, 2); got != 2 {
		t.Errorf("normalize(3, 1, 2) = %v, want 3 / mean(1, 2) = 2", got)
	}
	if got := relDiff(2, 2.5); got != 0.25 {
		t.Errorf("relDiff = %v", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 20, End: 50}, // overlaps the next: union [10,50)
		{ID: 2, Parent: 0, Start: 10, End: 30},
		{ID: 3, Parent: 0, Start: 90, End: 120}, // clipped to the parent: [90,100)
		{ID: 4, Parent: 1, Start: 25, End: 35},
	}
	want := []int64{50, 20, 20, 30, 10}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d: self %d, want %d", i, got[i], want[i])
		}
	}
}

// small returns workload name shrunk to a couple of thousand tuples, with
// a budget that still forces the hybrid algorithm to expand.
func small(t *testing.T, name string) workload {
	t.Helper()
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	w.r, w.s, w.budget = 2000, 2000, 40_000
	return w
}

func TestOracleAgainstNestedLoop(t *testing.T) {
	w := small(t, "zipf_heavy")
	w.r, w.s = 300, 500
	cfg := w.config(3)
	got, err := computeOracle(cfg.Build, cfg.Probe, cfg.MatchFraction)
	if err != nil {
		t.Fatal(err)
	}
	bg, err := datagen.New(cfg.Build)
	if err != nil {
		t.Fatal(err)
	}
	pg, err := datagen.NewProbe(cfg.Probe, bg, cfg.MatchFraction)
	if err != nil {
		t.Fatal(err)
	}
	var matches, checksum uint64
	for i := int64(0); i < cfg.Build.Tuples; i++ {
		for j := int64(0); j < cfg.Probe.Tuples; j++ {
			if r, s := bg.At(i), pg.At(j); r.Key == s.Key {
				matches++
				checksum ^= spill.MixPair(r.Index, s.Index)
			}
		}
	}
	if matches == 0 || got.Matches != matches || got.Checksum != checksum {
		t.Errorf("oracle %d (%#x), nested loop %d (%#x)", got.Matches, got.Checksum, matches, checksum)
	}
}

// The interposing engine must not change what the engine computes: a live
// run through it lands on the oracle, and every Receive became a span
// under a phase span.
func TestTracedEngineLandsOnOracle(t *testing.T) {
	for _, name := range []string{"hybrid_expand", "sim_hybrid"} {
		w := small(t, name)
		cfg := w.config(1)
		want, err := computeOracle(cfg.Build, cfg.Probe, cfg.MatchFraction)
		if err != nil {
			t.Fatal(err)
		}
		b := &bench{seed: 1, tr: newTracer()}
		root := b.tr.begin(w.name, "engine", -1)
		if _, _, err := b.execute(w, want, root); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b.tr.end(root)
		spans := b.tr.snapshot()
		totals := sumActorSpans(spans, w.name)
		if totals.Msgs == 0 || totals.JoinBusyS <= 0 || totals.SourceBusyS <= 0 || totals.SchedBusyS <= 0 {
			t.Errorf("%s: actor totals %+v", name, totals)
		}
		phases := 0
		for _, s := range spans {
			switch {
			case strings.HasPrefix(s.Name, "core.phase "):
				phases++
				if s.Parent != root || s.End < s.Start {
					t.Errorf("%s: phase span %+v", name, s)
				}
			case s.Role != "":
				if p := spans[s.Parent]; !strings.HasPrefix(p.Name, "core.phase ") || s.WaitNs < 0 {
					t.Errorf("%s: actor span %+v under %q", name, s, p.Name)
				}
			}
		}
		if phases < 4 { // build, reshuffle, probe, stats
			t.Errorf("%s: %d phase spans", name, phases)
		}
	}
}

func TestLayerRunChecksEveryStage(t *testing.T) {
	for _, name := range []string{"uniform_fit", "zipf_heavy"} {
		w := small(t, name)
		cfg := w.config(2)
		want, err := computeOracle(cfg.Build, cfg.Probe, cfg.MatchFraction)
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer()
		l := &layerRun{tr: tr, workload: w.name, root: tr.begin(w.name, "layers", -1), metrics: map[string]float64{}}
		if err := l.run(cfg, want); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, d := range layerMetrics {
			layer := d.Name[:strings.IndexByte(d.Name, '.')]
			switch layer {
			case "datagen", "tuple", "hashfn", "hashtable", "spill":
				if v := l.metrics[d.Name]; !(v > 0) || math.IsInf(v, 0) {
					t.Errorf("%s: %s = %v", name, d.Name, v)
				}
			}
		}
		want.Matches++
		l.metrics = map[string]float64{}
		if err := l.run(cfg, want); err == nil {
			t.Errorf("%s: a wrong oracle was not noticed", name)
		}
	}
}

func TestWorkloadArgs(t *testing.T) {
	if seedDelta(0) != 0 || seedDelta(65) != 101 || seedDelta(-1) != 63*101 {
		t.Errorf("seedDelta: %d %d %d", seedDelta(0), seedDelta(65), seedDelta(-1))
	}
	for _, w := range workloads {
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters", w.name, len(w.why))
		}
		args := strings.Join(w.args(2, "x.wal"), " ")
		for _, banned := range []string{"-p2p", "-wire", "-resume", "-cores"} {
			if strings.Contains(args, banned) {
				t.Errorf("%s passes %s, which ROADMAP marks for deletion", w.name, banned)
			}
		}
		r, s := w.sizes(2)
		cfg := w.config(2)
		if cfg.Build.Tuples != r || cfg.Probe.Tuples != s {
			t.Errorf("%s: config sizes %d/%d, args sizes %d/%d", w.name, cfg.Build.Tuples, cfg.Probe.Tuples, r, s)
		}
		if w.sim != (w.expect == nil) {
			t.Errorf("%s: every ehjadist workload needs an expect check", w.name)
		}
	}
}

// BENCHMARK.json is the driver's copy of the workload and metric tables;
// every name in it must be one the command prints, with the same unit.
func TestBenchmarkDocMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../" + benchmarkDoc)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct {
			Name, Why string
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d in %s, default --seconds %d", doc.RunSeconds, benchmarkDoc, defaultSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in %s, %d in code", len(doc.Workloads), benchmarkDoc, len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: %q in %s, %q in code", i, w.Name, benchmarkDoc, workloads[i].name)
		}
	}
	check := func(traced bool, docDefs, codeDefs []metricDef) {
		var out bytes.Buffer
		printResult(&out, runResult{Workload: "w", Traced: traced, Metrics: report(codeDefs, nil)})
		printed := map[string]string{} // name -> unit
		for _, line := range strings.Split(out.String(), "\n") {
			if f := strings.Fields(line); len(f) >= 4 {
				printed[f[1]] = f[3]
			}
		}
		for _, d := range docDefs {
			if unit, ok := printed[d.Name]; !ok || unit != d.Unit {
				t.Errorf("%s: %s names %q (%s); the command prints unit %q", benchmarkDoc, benchmarkDoc, d.Name, d.Unit, unit)
			}
		}
		if len(docDefs) != len(codeDefs) {
			t.Errorf("%d metrics in %s, %d in code", len(docDefs), benchmarkDoc, len(codeDefs))
		}
		for i := range docDefs {
			if i < len(codeDefs) && docDefs[i] != codeDefs[i] {
				t.Errorf("metric %d: %+v in %s, %+v in code", i, docDefs[i], benchmarkDoc, codeDefs[i])
			}
		}
	}
	check(false, doc.EndToEnd, e2eMetrics)
	check(true, doc.PerLayer, layerMetrics)
}

// The reference kernel checks its own result; a wrong fold would mean the
// measuring stick did different work than it was frozen with.
func TestReferenceKernel(t *testing.T) {
	if err := refKernel(); err != nil {
		t.Fatal(err)
	}
}
