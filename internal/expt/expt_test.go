package expt

import (
	"strings"
	"testing"
)

// smallSession runs figures at 1/200 scale: 50k-tuple relations, 320 KB
// budgets — fast, but still deep enough to trigger expansion.
func smallSession() *Session {
	return NewSession(Options{Scale: 0.005})
}

// TestAllFiguresSmoke drives every figure runner end-to-end at 1/1000
// scale, checking each produces a complete, finite table.
func TestAllFiguresSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("figure sweep skipped in -short mode")
	}
	s := NewSession(Options{Scale: 0.001})
	tables, err := s.RunAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 12 {
		t.Fatalf("ran %d figures, want 12", len(tables))
	}
	for _, tab := range tables {
		if len(tab.XValues) == 0 || len(tab.Series) == 0 {
			t.Errorf("%s is empty", tab.Figure)
		}
		for i, row := range tab.Cells {
			if len(row) != len(tab.Series) {
				t.Errorf("%s row %d has %d cells for %d series", tab.Figure, i, len(row), len(tab.Series))
			}
			for j, v := range row {
				if v < 0 || v != v {
					t.Errorf("%s cell [%d][%d] = %v", tab.Figure, i, j, v)
				}
			}
		}
		if out := tab.Format(); len(out) == 0 {
			t.Errorf("%s formats empty", tab.Figure)
		}
	}
}

func TestFiguresComplete(t *testing.T) {
	ids := Figures()
	if len(ids) != 12 {
		t.Fatalf("expected 12 figures, got %v", ids)
	}
	if ids[0] != "fig2" || ids[len(ids)-1] != "fig13" {
		t.Errorf("figure order wrong: %v", ids)
	}
}

func TestUnknownFigure(t *testing.T) {
	if _, err := smallSession().Run("fig99"); err == nil {
		t.Error("unknown figure accepted")
	}
}

func TestFigure2ShapeAndSharing(t *testing.T) {
	s := smallSession()
	tab, err := s.Run("fig2")
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.XValues) != 5 || len(tab.Series) != 4 {
		t.Fatalf("fig2 dimensions %dx%d", len(tab.XValues), len(tab.Series))
	}
	// Monotone improvement: every algorithm is faster at 16 initial nodes
	// than at 1.
	for j := range tab.Series {
		if tab.Cells[0][j] <= tab.Cells[4][j] {
			t.Errorf("series %s did not improve from 1 to 16 nodes: %.2f -> %.2f",
				tab.Series[j], tab.Cells[0][j], tab.Cells[4][j])
		}
	}
	// At 16 nodes the aggregate memory suffices: all algorithms coincide.
	base := tab.Cells[4][0]
	for j := 1; j < 4; j++ {
		if diff := tab.Cells[4][j] - base; diff > 0.05*base || diff < -0.05*base {
			t.Errorf("at 16 nodes %s = %.2f differs from %s = %.2f",
				tab.Series[j], tab.Cells[4][j], tab.Series[0], base)
		}
	}
	// Figure 3 reuses the same runs from the cache.
	before := len(s.cache)
	if _, err := s.Run("fig3"); err != nil {
		t.Fatal(err)
	}
	if len(s.cache) != before {
		t.Errorf("fig3 re-ran workloads already cached for fig2")
	}
}

func TestFigure4HasReferenceSeries(t *testing.T) {
	tab, err := smallSession().Run("fig4")
	if err != nil {
		t.Fatal(err)
	}
	if tab.Series[3] != "Size of Table R" {
		t.Fatalf("missing reference series: %v", tab.Series)
	}
	want := tab.Cells[0][3]
	for i := range tab.Cells {
		if tab.Cells[i][3] != want {
			t.Error("size-of-R reference should be constant across the sweep")
		}
	}
	// With one initial node, the split algorithm's extra communication is
	// substantial (the paper's headline observation in Figure 4).
	if tab.Cells[0][1] <= 0 {
		t.Error("split extra communication at J=1 should be positive")
	}
}

func TestFigure10SkewOrdering(t *testing.T) {
	tab, err := smallSession().Run("fig10")
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.XValues) != 3 {
		t.Fatalf("fig10 rows: %v", tab.XValues)
	}
	// Under extreme skew (row 2) the hybrid algorithm (col 2) beats the
	// split algorithm (col 1) — the paper's central skew conclusion.
	if tab.Cells[2][2] >= tab.Cells[2][1] {
		t.Errorf("extreme skew: hybrid %.2f should beat split %.2f",
			tab.Cells[2][2], tab.Cells[2][1])
	}
}

func TestFigure12And13LoadBalance(t *testing.T) {
	s := smallSession()
	uni, err := s.Run("fig12")
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range uni.XValues {
		avg, max, min := uni.Cells[i][0], uni.Cells[i][1], uni.Cells[i][2]
		if max < avg || avg < min {
			t.Errorf("%s: inconsistent load stats %v", x, uni.Cells[i])
		}
	}
	skew, err := s.Run("fig13")
	if err != nil {
		t.Fatal(err)
	}
	// Hybrid (row 2) stays balanced under skew; split (row 1) does not.
	hybridSpread := skew.Cells[2][1] - skew.Cells[2][2]
	splitSpread := skew.Cells[1][1] - skew.Cells[1][2]
	if hybridSpread >= splitSpread {
		t.Errorf("hybrid spread %.2f should be below split spread %.2f under skew",
			hybridSpread, splitSpread)
	}
}

// TestSeriesLabelsDoNotAlias is a regression test: Figure 4 appends a
// reference series to its table, which must not corrupt the shared
// algorithm-name array used by every other figure.
func TestSeriesLabelsDoNotAlias(t *testing.T) {
	s := smallSession()
	if _, err := s.Run("fig4"); err != nil {
		t.Fatal(err)
	}
	tab, err := s.Run("fig2")
	if err != nil {
		t.Fatal(err)
	}
	if tab.Series[3] != "Out of Core" {
		t.Errorf("fig2 series corrupted by fig4: %v", tab.Series)
	}
}

func TestAblations(t *testing.T) {
	s := smallSession()
	names := Ablations()
	if len(names) != 2 {
		t.Fatalf("ablations: %v", names)
	}
	for _, n := range names {
		tab, err := s.RunAblation(n)
		if err != nil {
			t.Fatalf("%s: %v", n, err)
		}
		if len(tab.Cells) == 0 {
			t.Errorf("%s produced no rows", n)
		}
	}
	if _, err := s.RunAblation("nope"); err == nil {
		t.Error("unknown ablation accepted")
	}
	// Blocking migrations must slow the split algorithm down relative to
	// the overlapped model on the same workload.
	ab, err := s.RunAblation("blocking-migration")
	if err != nil {
		t.Fatal(err)
	}
	if ab.Cells[1][1] <= ab.Cells[0][1] {
		t.Errorf("blocking split %.2f should exceed overlapped split %.2f",
			ab.Cells[1][1], ab.Cells[0][1])
	}
}

// TestOOCCurvesPinned holds the out-of-core baseline's curves — Figure 2's
// "Out of Core" column and both policies of ablation A2 — to the exact
// virtual times they had when the baseline ran its own spill manager. The
// simulator is deterministic, so any change to when or what an out-of-core
// node evicts, writes or reads back moves one of these bits.
func TestOOCCurvesPinned(t *testing.T) {
	s := smallSession()
	fig2, err := s.Run("fig2")
	if err != nil {
		t.Fatal(err)
	}
	a2, err := s.RunAblation("ooc-policy")
	if err != nil {
		t.Fatal(err)
	}
	want := []struct{ grace, hybrid float64 }{
		{1.86231398, 1.825203438},
		{1.257025946, 1.212245629},
		{0.97736773, 0.798272627},
		{0.803935527, 0.494014678},
		{0.15589917, 0.15589917},
	}
	if len(fig2.Cells) != len(want) || len(a2.Cells) != len(want) {
		t.Fatalf("fig2 has %d rows and A2 %d, want %d", len(fig2.Cells), len(a2.Cells), len(want))
	}
	for i, w := range want {
		if got := fig2.Cells[i][3]; got != w.grace {
			t.Errorf("fig2 %s initial nodes: Out of Core %v s, pinned %v", fig2.XValues[i], got, w.grace)
		}
		if got := a2.Cells[i]; got[0] != w.grace || got[1] != w.hybrid {
			t.Errorf("A2 %s initial nodes: Grace %v s, hybrid hash %v s, pinned %v and %v",
				a2.XValues[i], got[0], got[1], w.grace, w.hybrid)
		}
	}
}

func TestTableCSV(t *testing.T) {
	tab := &Table{
		Figure: "Figure X", Title: "Test", XLabel: "x,axis", Unit: "seconds",
		XValues: []string{"a", `b"q`}, Series: []string{"s1", "s,2"},
		Cells: [][]float64{{1.5, 2.5}, {3, 4}},
	}
	got := tab.CSV()
	want := "\"x,axis\",s1,\"s,2\"\na,1.5000,2.5000\n\"b\"\"q\",3.0000,4.0000\n"
	if got != want {
		t.Errorf("CSV:\n%q\nwant\n%q", got, want)
	}
}

func TestTableFormat(t *testing.T) {
	tab := &Table{
		Figure: "Figure X", Title: "Test", XLabel: "x", Unit: "seconds",
		XValues: []string{"a"}, Series: []string{"s1", "s2"},
		Cells: [][]float64{{1.5, 2.5}},
	}
	out := tab.Format()
	for _, want := range []string{"Figure X", "s1", "s2", "1.50", "2.50"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted table missing %q:\n%s", want, out)
		}
	}
}
