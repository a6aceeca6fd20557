// Command bench is the repository's one benchmark: end-to-end metrics over
// real ehjadist and ehjarun processes, a per-layer tuple budget, and a
// traced run. See README.md in this directory.
//
//	go run ./bench -seed 1                # every workload, end to end then traced
//	go run ./bench -aa                    # two end-to-end sets, compared against the bounds
//	go run ./bench --workload W --seed N --seconds S --trace 0|1
//
// The last form is the driver's: it measures one workload one way and
// prints the result as a JSON object on the last line of stdout.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

const (
	outDir       = "bench/out"
	scratchRoot  = ".bench_build"
	benchmarkDoc = "BENCHMARK.json"
	// defaultSeconds is run_seconds of BENCHMARK.json: at the sandbox's
	// speed it fits 10 to 20 rounds of every workload.
	defaultSeconds = 20
)

func main() {
	switch {
	case len(os.Args) > 2 && os.Args[1] == childFlag:
		os.Exit(childMain(os.Args[2:]))
	case len(os.Args) == 2 && os.Args[1] == refFlag:
		if err := refKernel(); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "run one workload and print the driver's JSON result (default: all workloads, a table)")
		seed    = fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds = fs.Int("seconds", defaultSeconds, "how long one measurement runs")
		trace   = fs.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer metrics of a traced run")
		aa      = fs.Bool("aa", false, "measure every workload end to end twice and fail if the two sets differ by more than the bounds")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, err := os.Stat("go.mod"); err != nil {
		fmt.Fprintln(os.Stderr, "bench: run from the repository root (go run ./bench): no go.mod here")
		return 2
	}
	if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	tmp, err := os.MkdirTemp(scratchRoot, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	b := &bench{seed: *seed, seconds: float64(*seconds), self: self, tmp: tmp, tr: newTracer()}

	switch {
	case *aa:
		return b.runAA(stdout)
	case *name == "":
		return b.runAll(stdout)
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	var res runResult
	if *trace != 0 {
		res = b.traced(w)
	} else {
		res = b.e2e(w)
	}
	printResult(stdout, res)
	if err := b.writeOut([]runResult{res}); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return exitCode(res)
}

func exitCode(results ...runResult) int {
	for _, r := range results {
		if !r.Correct || r.Metrics == nil {
			return 1
		}
	}
	return 0
}

// printResult prints every metric of one result by name with its unit, and
// for timing metrics the quartiles and sample count behind the median.
func printResult(out io.Writer, res runResult) {
	defs := e2eMetrics
	if res.Traced {
		defs = layerMetrics
	}
	for _, d := range defs {
		m := res.Metrics[d.Name]
		fmt.Fprintf(out, "%-14s %-34s %14.6g %-8s", res.Workload, d.Name, m.Value, m.Unit)
		if s, ok := res.Spread[d.Name]; ok {
			fmt.Fprintf(out, " q1 %.5g q3 %.5g n=%d", s.Q1, s.Q3, s.N)
		}
		fmt.Fprintln(out)
	}
	if !res.Traced {
		fmt.Fprintf(out, "%-14s %-34s %14.6g %-8s failed %d of %d\n",
			res.Workload, "failed_frac", res.failedFrac(), "fraction", res.Failed, res.Attempted)
		if s, ok := res.Spread["setup_raw_s"]; ok {
			fmt.Fprintf(out, "%-14s %-34s %14.6g %-8s as timed, before scaling to reference speed\n",
				res.Workload, "setup_raw_s", s.Median, "s")
		}
	}
	for _, e := range res.Errors {
		fmt.Fprintf(out, "%-14s FAILED: %s\n", res.Workload, e)
	}
}

// resultFile is what bench/out/result.json holds: where and when the
// numbers were measured, then every result in the driver's schema.
type resultFile struct {
	Host      string      `json:"host"`
	NProc     int         `json:"nproc"`
	GoVersion string      `json:"go_version"`
	Commit    string      `json:"commit"`
	When      string      `json:"when"`
	Seed      int64       `json:"seed"`
	Seconds   float64     `json:"seconds"`
	Results   []runResult `json:"results"`
}

// writeOut writes result.json and, with every span recorded so far and its
// self time, trace.json.
func (b *bench) writeOut(results []runResult) error {
	host, err := os.Hostname()
	if err != nil {
		host = "unknown"
	}
	commit := "unknown" // the driver's checkout is not a git repository
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	err = writeJSON(filepath.Join(outDir, "result.json"), resultFile{
		Host: host, NProc: runtime.NumCPU(), GoVersion: runtime.Version(), Commit: commit,
		When: time.Now().UTC().Format(time.RFC3339), Seed: b.seed, Seconds: b.seconds, Results: results,
	})
	if err != nil {
		return err
	}
	spans := b.tr.snapshot()
	self := selfTimes(spans)
	type out struct {
		span
		SelfNs int64 `json:"self_ns"`
	}
	rows := make([]out, len(spans))
	for i, s := range spans {
		rows[i] = out{s, self[i]}
	}
	return writeJSON(filepath.Join(outDir, "trace.json"), struct {
		Spans []out `json:"spans"`
	}{rows})
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runAll measures every workload end to end (tracing off), then traced,
// prints every metric, and writes result.json and trace.json.
func (b *bench) runAll(out io.Writer) int {
	var results []runResult
	for _, w := range workloads {
		res := b.e2e(w)
		printResult(out, res)
		results = append(results, res)
	}
	for _, w := range workloads {
		res := b.traced(w)
		printResult(out, res)
		results = append(results, res)
	}
	if err := b.writeOut(results); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(out, "wrote %s/result.json and %s/trace.json\n", outDir, outDir)
	return exitCode(results...)
}

// runAA measures every workload end to end twice, back to back, and checks
// that the two sets agree within the benchmark's own bounds (setup_s is
// shown but not judged: a cold build cache legitimately differs).
func (b *bench) runAA(out io.Writer) int {
	code := 0
	fmt.Fprintf(out, "%-14s %-12s %12s %12s %8s %6s\n", "workload", "metric", "A", "B", "diff", "bound")
	for _, w := range workloads {
		a, c := b.e2e(w), b.e2e(w)
		if exitCode(a, c) != 0 {
			printResult(out, a)
			printResult(out, c)
			code = 1
			continue
		}
		for _, d := range e2eMetrics {
			va, vb := a.Metrics[d.Name].Value, c.Metrics[d.Name].Value
			diff := relDiff(va, vb)
			verdict := ""
			if d.Name != "setup_s" && math.Abs(diff) > d.Bound {
				verdict = "  OUT OF BOUND"
				code = 1
			}
			fmt.Fprintf(out, "%-14s %-12s %12.5g %12.5g %+7.1f%% %5.0f%%%s\n",
				w.name, d.Name, va, vb, 100*diff, 100*d.Bound, verdict)
		}
		verdict := ""
		if a.failedFrac() != c.failedFrac() {
			verdict = "  DIFFERS"
			code = 1
		}
		fmt.Fprintf(out, "%-14s %-12s %12.5g %12.5g%s\n", w.name, "failed_frac", a.failedFrac(), c.failedFrac(), verdict)
	}
	return code
}
