// Package expt regenerates every table and figure of the paper's
// evaluation (§5). Each figure has a runner producing the same series the
// paper plots; cmd/ehjabench prints them and the root-level benchmarks run
// them at reduced scale.
//
// Runs are memoised within a Session: Figures 2-5 share one parameter
// sweep, as do Figures 8-9 and 10-11, exactly as in the paper.
package expt

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"ehjoin/internal/core"
	"ehjoin/internal/datagen"
	"ehjoin/internal/metrics"
	rt "ehjoin/internal/runtime"
	"ehjoin/internal/spill"
	"ehjoin/internal/tuple"
)

// Options controls a reproduction session.
type Options struct {
	// Scale multiplies every relation cardinality and the per-node memory
	// budget, preserving the expansion behaviour while shrinking runtime.
	// 1.0 reproduces the paper's sizes (10M-100M tuples); benchmarks use
	// much smaller scales. Defaults to 1.0.
	Scale float64
	// Progress, when non-nil, receives a line per completed run.
	Progress io.Writer
}

func (o Options) normalized() Options {
	if o.Scale == 0 {
		o.Scale = 1.0
	}
	return o
}

// Table is one reproduced figure: series values over an x-axis, matching
// the rows/series of the paper's plot.
type Table struct {
	Figure  string
	Title   string
	XLabel  string
	Unit    string
	XValues []string
	Series  []string
	// Cells[i][j] is the value of Series[j] at XValues[i].
	Cells [][]float64
}

// CSV renders the table as comma-separated values with a header row,
// ready for external plotting.
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString(csvQuote(t.XLabel))
	for _, s := range t.Series {
		b.WriteByte(',')
		b.WriteString(csvQuote(s))
	}
	b.WriteByte('\n')
	for i, x := range t.XValues {
		b.WriteString(csvQuote(x))
		for j := range t.Series {
			fmt.Fprintf(&b, ",%.4f", t.Cells[i][j])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func csvQuote(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

// Format renders the table as aligned text.
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s (%s)\n", t.Figure, t.Title, t.Unit)
	w := 14
	for _, s := range t.Series {
		if len(s)+2 > w {
			w = len(s) + 2
		}
	}
	fmt.Fprintf(&b, "%-*s", w+4, t.XLabel)
	for _, s := range t.Series {
		fmt.Fprintf(&b, "%*s", w, s)
	}
	b.WriteByte('\n')
	for i, x := range t.XValues {
		fmt.Fprintf(&b, "%-*s", w+4, x)
		for j := range t.Series {
			fmt.Fprintf(&b, "%*.2f", w, t.Cells[i][j])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Session memoises runs across figures.
type Session struct {
	opt   Options
	cache map[string]*core.Report
}

// NewSession returns a Session with the given options.
func NewSession(opt Options) *Session {
	return &Session{opt: opt.normalized(), cache: make(map[string]*core.Report)}
}

// workload bundles the parameters a figure (or ablation) varies.
type workload struct {
	alg       core.Algorithm
	initial   int
	rTuples   int64
	sTuples   int64
	tupleSize int
	dist      datagen.Dist
	sigma     float64
	// Ablation knobs.
	blockingMigration bool
	oocPolicy         spill.Policy
}

func (s *Session) run(w workload) (*core.Report, error) {
	key := fmt.Sprintf("%v/%d/%d/%d/%d/%v/%g/%v/%v", w.alg, w.initial, w.rTuples, w.sTuples,
		w.tupleSize, w.dist, w.sigma, w.blockingMigration, w.oocPolicy)
	if r, ok := s.cache[key]; ok {
		return r, nil
	}
	layout := tuple.LayoutForTupleSize(w.tupleSize)
	cost := rt.OSUMed()
	cost.BlockingMigration = w.blockingMigration
	cfg := core.Config{
		Algorithm:    w.alg,
		InitialNodes: w.initial,
		MemoryBudget: int64(float64(64<<20) * s.opt.Scale),
		Cost:         cost,
		OOCPolicy:    w.oocPolicy,
		Build: datagen.Spec{
			Dist: w.dist, Mean: 0.5, Sigma: w.sigma,
			Tuples: scaleTuples(w.rTuples, s.opt.Scale), Seed: 1, Layout: layout,
		},
		Probe: datagen.Spec{
			Dist: w.dist, Mean: 0.5, Sigma: w.sigma,
			Tuples: scaleTuples(w.sTuples, s.opt.Scale), Seed: 2, Layout: layout,
		},
		MatchFraction: 1.0,
	}
	r, err := core.Run(cfg)
	if err != nil {
		return nil, fmt.Errorf("expt: %s: %w", key, err)
	}
	s.cache[key] = r
	if s.opt.Progress != nil {
		fmt.Fprintf(s.opt.Progress, "  %-60s total %8.2fs nodes %2d->%2d\n",
			key, r.TotalSec, r.InitialNodes, r.FinalNodes)
	}
	return r, nil
}

func scaleTuples(n int64, scale float64) int64 {
	out := int64(float64(n) * scale)
	if out < 1 {
		out = 1
	}
	return out
}

// buildSec returns the figure-3/9 "table building time": the build phase
// plus, for the hybrid algorithm, the reshuffling step (the paper charges
// reshuffling to table building, which is why hybrid's building time
// exceeds replication's in Figures 3 and 9).
func buildSec(r *core.Report) float64 { return r.BuildSec + r.ReshuffleSec }

// Figures lists every reproducible figure id in order.
func Figures() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return figNum(out[i]) < figNum(out[j]) })
	return out
}

func figNum(id string) int {
	var n int
	fmt.Sscanf(id, "fig%d", &n)
	return n
}

// Run reproduces one figure by id ("fig2" ... "fig13").
func (s *Session) Run(id string) (*Table, error) {
	f, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("expt: unknown figure %q (known: %v)", id, Figures())
	}
	return f(s)
}

// RunAll reproduces every figure in order.
func (s *Session) RunAll() ([]*Table, error) {
	var out []*Table
	for _, id := range Figures() {
		t, err := s.Run(id)
		if err != nil {
			return out, err
		}
		out = append(out, t)
	}
	return out, nil
}

var registry = map[string]func(*Session) (*Table, error){
	"fig2":  figure2,
	"fig3":  figure3,
	"fig4":  figure4,
	"fig5":  figure5,
	"fig6":  figure6,
	"fig7":  figure7,
	"fig8":  figure8,
	"fig9":  figure9,
	"fig10": figure10,
	"fig11": figure11,
	"fig12": figure12,
	"fig13": figure13,
}

// Ablations lists the design-choice ablation studies (run with
// cmd/ehjabench -ablation, not part of the figure set).
func Ablations() []string { return []string{"blocking-migration", "ooc-policy"} }

// RunAblation executes one ablation study by name.
func (s *Session) RunAblation(name string) (*Table, error) {
	switch name {
	case "blocking-migration":
		return s.ablationBlockingMigration()
	case "ooc-policy":
		return s.ablationOOCPolicy()
	default:
		return nil, fmt.Errorf("expt: unknown ablation %q (known: %v)", name, Ablations())
	}
}

// ablationBlockingMigration contrasts overlapped split migrations (the
// default model, which matches the paper's Figures 3-5 build times) with
// blocking-send migrations (which reproduce the Figure 8-9 regime where the
// replication-based algorithm wins when the larger relation builds the
// table). The workload is Figure 8's second configuration.
func (s *Session) ablationBlockingMigration() (*Table, error) {
	t := &Table{
		Figure: "Ablation A1", Title: "Split-migration model on the R=100M,S=10M workload",
		XLabel: "Migration model", Unit: "seconds", Series: algNames[:3],
	}
	for _, blocking := range []bool{false, true} {
		row := make([]float64, 3)
		for i, alg := range algSeries[:3] {
			r, err := s.run(workload{alg: alg, initial: 4,
				rTuples: 100_000_000, sTuples: 10_000_000,
				tupleSize: defaultTupleSize, dist: datagen.Uniform,
				blockingMigration: blocking})
			if err != nil {
				return nil, err
			}
			row[i] = r.TotalSec
		}
		label := "overlapped"
		if blocking {
			label = "blocking"
		}
		t.XValues = append(t.XValues, label)
		t.Cells = append(t.Cells, row)
	}
	return t, nil
}

// ablationOOCPolicy contrasts the paper's basic out-of-core baseline
// (Grace: the first overflow sends the node fully out of core) with the
// stronger hybrid-hash-join degradation, over the Figure 2 node sweep.
func (s *Session) ablationOOCPolicy() (*Table, error) {
	t := &Table{
		Figure: "Ablation A2", Title: "Out-of-core degradation policy (uniform, R=S=10M)",
		XLabel: "Initial Join Nodes", Unit: "seconds",
		Series: []string{"Grace (paper)", "Hybrid-hash"},
	}
	for _, j := range initialNodeSweep {
		row := make([]float64, 2)
		for i, pol := range []spill.Policy{spill.Grace, spill.HybridHash} {
			r, err := s.run(workload{alg: core.OutOfCore, initial: j,
				rTuples: defaultTuples, sTuples: defaultTuples,
				tupleSize: defaultTupleSize, dist: datagen.Uniform,
				oocPolicy: pol})
			if err != nil {
				return nil, err
			}
			row[i] = r.TotalSec
		}
		t.XValues = append(t.XValues, fmt.Sprintf("%d", j))
		t.Cells = append(t.Cells, row)
	}
	return t, nil
}

// algorithms in the paper's legend order.
var algSeries = []core.Algorithm{core.Replication, core.Split, core.Hybrid, core.OutOfCore}

var algNames = []string{"Replicated", "Split", "Hybrid", "Out of Core"}

// rChunks converts the build relation's scaled cardinality to chunk units
// (the "Size of Table R" reference series in Figures 4 and 11).
func (s *Session) rChunks(r int64) float64 {
	return metrics.Chunks(scaleTuples(r, s.opt.Scale), tuple.DefaultChunkTuples)
}
