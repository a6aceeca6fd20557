package lint

import (
	"regexp"
	"strings"
	"testing"
)

// wantRe matches the fixture expectation syntax: a trailing comment
//
//	// want `regex`
//
// on the line a diagnostic must land on, analysistest-style.
var wantRe = regexp.MustCompile("// want `([^`]*)`")

// runFixture loads one testdata package, runs a single analyzer over it,
// and checks the diagnostics against the fixture's `// want` comments:
// every want must be matched by a finding on its line, every finding must
// be wanted, and every //lint:allow comment for the check must have
// suppressed at least one diagnostic.
func runFixture(t *testing.T, check, dir string) {
	t.Helper()
	pkgs, err := Load("./testdata/src/" + dir)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	var an *Analyzer
	for _, a := range Analyzers() {
		if a.Name == check {
			an = a
		}
	}
	if an == nil {
		t.Fatalf("no analyzer named %q", check)
	}
	res, err := RunSuite([]*Analyzer{an}, pkgs)
	if err != nil {
		t.Fatalf("running %s on %s: %v", check, dir, err)
	}

	type expect struct {
		re      *regexp.Regexp
		matched bool
	}
	expects := map[string]map[int][]*expect{} // file -> line -> expectations
	allows := map[string][]int{}              // file -> lines bearing //lint:allow <check>
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					pos := p.Fset.Position(c.Pos())
					if m := wantRe.FindStringSubmatch(c.Text); m != nil {
						re, err := regexp.Compile(m[1])
						if err != nil {
							t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, m[1], err)
						}
						if expects[pos.Filename] == nil {
							expects[pos.Filename] = map[int][]*expect{}
						}
						expects[pos.Filename][pos.Line] = append(expects[pos.Filename][pos.Line], &expect{re: re})
					}
					if strings.HasPrefix(c.Text, "//lint:allow "+check+" ") {
						allows[pos.Filename] = append(allows[pos.Filename], pos.Line)
					}
				}
			}
		}
	}

	for _, d := range res.Findings {
		matched := false
		for _, e := range expects[d.Pos.Filename][d.Pos.Line] {
			if !e.matched && e.re.MatchString(d.Message) {
				e.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected finding: %s", d)
		}
	}
	for file, lines := range expects {
		for line, es := range lines {
			for _, e := range es {
				if !e.matched {
					t.Errorf("%s:%d: expected a finding matching %q, got none", file, line, e.re)
				}
			}
		}
	}
	for file, lines := range allows {
		for _, line := range lines {
			ok := false
			for _, d := range res.Suppressed {
				if d.Pos.Filename == file && (d.Pos.Line == line || d.Pos.Line == line+1) {
					ok = true
					break
				}
			}
			if !ok {
				t.Errorf("%s:%d: //lint:allow %s suppressed nothing", file, line, check)
			}
		}
	}
}

func TestDeterminismFixture(t *testing.T) { runFixture(t, "determinism", "sim") }
func TestChanSendFixture(t *testing.T)    { runFixture(t, "chansend", "tcpnet") }
func TestLockCheckFixture(t *testing.T)   { runFixture(t, "lockcheck", "hashtable") }
func TestReportSyncFixture(t *testing.T)  { runFixture(t, "reportsync", "core") }
func TestWalOrderFixture(t *testing.T)    { runFixture(t, "walorder", "walorder") }
func TestLedgerFixture(t *testing.T)      { runFixture(t, "ledger", "ledger/...") }

// TestSuppressionSyntax pins the grammar: an allow comment without a
// reason, or with its check name run into the prefix, is itself a finding
// and suppresses nothing.
func TestSuppressionSyntax(t *testing.T) {
	pkgs, err := Load("./testdata/src/allowsyntax")
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunSuite([]*Analyzer{NewDeterminism()}, pkgs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Suppressed) != 0 {
		t.Errorf("malformed //lint:allow suppressed %d diagnostic(s), want 0", len(res.Suppressed))
	}
	var syntax, clock int
	for _, d := range res.Findings {
		switch {
		case d.Check == "lint" && strings.Contains(d.Message, "malformed suppression"):
			syntax++
		case d.Check == "determinism" && strings.Contains(d.Message, "time.Now"):
			clock++
		}
	}
	if syntax != 2 {
		t.Errorf("found %d malformed-suppression finding(s), want 2; got %v", syntax, res.Findings)
	}
	if clock != 2 {
		t.Errorf("a malformed allow must not silence the underlying finding; got %v", res.Findings)
	}
}

// TestStaleSuppression pins the stale-allow rule: an allow that suppresses
// a finding is used, an allow whose check ran but suppressed nothing is a
// "lint" finding at its own position, and an allow for a check that did
// not run is left alone — a -checks subset must not flag the other
// analyzers' exceptions.
func TestStaleSuppression(t *testing.T) {
	pkgs, err := Load("./testdata/src/stalesup")
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunSuite([]*Analyzer{NewDeterminism()}, pkgs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Suppressed) != 1 {
		t.Errorf("suppressed %d finding(s), want 1 (the real clock allow)", len(res.Suppressed))
	}
	stale := 0
	for _, d := range res.Findings {
		switch {
		case d.Check == "lint" && strings.Contains(d.Message, "stale //lint:allow determinism"):
			stale++
		case strings.Contains(d.Message, "chansend"):
			t.Errorf("allow for a check that did not run was flagged: %s", d)
		default:
			t.Errorf("unexpected finding: %s", d)
		}
	}
	if stale != 1 {
		t.Errorf("found %d stale-allow finding(s), want exactly 1", stale)
	}
}

// TestSuiteCleanOnRepo is the self-gate: the analyzers must hold over the
// module they live in. A regression here is a real invariant violation —
// fix the code or add an annotated suppression, not this test.
func TestSuiteCleanOnRepo(t *testing.T) {
	res, err := RunSuite(Analyzers(), repoPackages(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range res.Findings {
		t.Errorf("finding: %s", d)
	}
	for _, d := range res.Suppressed {
		t.Logf("suppressed: %s", d)
	}
}
