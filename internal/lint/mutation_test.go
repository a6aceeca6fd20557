package lint

import (
	"bytes"
	"go/ast"
	"go/format"
	"go/parser"
	"go/token"
	"path/filepath"
	"sync"
	"testing"
)

// Mutation tests: every analyzer in the suite must catch a real bug of its
// class in the real tree. Each mutant loads the module, rewrites one of its
// files the way a plausible change would break the invariant, type-checks
// the result and runs the one analyzer that guards it, which must report a
// finding the clean tree does not have. No test of the owning package fails
// on these mutants: the analyzer is their only guard. An analyzer whose
// mutant the tests already reject is deleted instead, so an analyzer with
// no mutant here has no place in Analyzers().

var repo struct {
	once sync.Once
	pkgs []*LoadedPackage
	err  error
}

// repoPackages loads and type-checks the whole module once per test binary.
func repoPackages(t *testing.T) []*LoadedPackage {
	t.Helper()
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	repo.once.Do(func() { repo.pkgs, repo.err = Load("ehjoin/...") })
	if repo.err != nil {
		t.Fatal(repo.err)
	}
	return repo.pkgs
}

// A mutant is a rewrite of one package of the module. Each edit rewrites
// one file of the package in place and reports whether it found the site
// it breaks: a mutant whose site is gone fails, so it is rewritten
// together with the code it mutates instead of passing silently.
type mutant struct {
	check string          // the analyzer that must catch it
	pkg   string          // import path of the mutated package
	edits map[string]edit // by file base name
}

type edit func(fset *token.FileSet, f *ast.File) bool

// runMutant applies m to a fresh parse of the module and requires a new
// finding of m.check.
func runMutant(t *testing.T, m mutant) {
	pkgs := repoPackages(t)
	at := -1
	for i, p := range pkgs {
		if p.PkgPath == m.pkg {
			at = i
		}
	}
	if at < 0 {
		t.Fatalf("package %s not loaded", m.pkg)
	}
	clean := pkgs[at]
	var paths []string
	src := map[string][]byte{}
	for _, f := range clean.Files {
		path := clean.Fset.File(f.Pos()).Name()
		paths = append(paths, path)
		apply := m.edits[filepath.Base(path)]
		if apply == nil {
			continue
		}
		fset := token.NewFileSet()
		mf, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		if !apply(fset, mf) {
			t.Fatalf("%s: mutant site not found; rewrite the mutant alongside the code it breaks", path)
		}
		var buf bytes.Buffer
		if err := format.Node(&buf, fset, mf); err != nil {
			t.Fatal(err)
		}
		src[path] = buf.Bytes()
	}
	if len(src) != len(m.edits) {
		t.Fatalf("mutated %d file(s) of %s, want %d", len(src), m.pkg, len(m.edits))
	}
	mutated, err := parseAndCheck(*clean, paths, src)
	if err != nil {
		t.Fatalf("mutant does not type-check: %v", err)
	}
	mutPkgs := append([]*LoadedPackage(nil), pkgs...)
	mutPkgs[at] = mutated

	seen := map[string]int{}
	for _, d := range findingsOf(t, m.check, pkgs) {
		seen[d.Message]++
	}
	fired := false
	for _, d := range findingsOf(t, m.check, mutPkgs) {
		if seen[d.Message] > 0 {
			seen[d.Message]--
			continue
		}
		fired = true
		t.Logf("caught: %s", d)
	}
	if !fired {
		t.Errorf("%s reported nothing new on the mutant of %s", m.check, m.pkg)
	}
}

// findingsOf runs a fresh instance of the named analyzer over pkgs and
// returns its unsuppressed findings.
func findingsOf(t *testing.T, check string, pkgs []*LoadedPackage) []Diagnostic {
	t.Helper()
	for _, a := range Analyzers() {
		if a.Name != check {
			continue
		}
		res, err := RunSuite([]*Analyzer{a}, pkgs)
		if err != nil {
			t.Fatal(err)
		}
		var out []Diagnostic
		for _, d := range res.Findings {
			if d.Check == check {
				out = append(out, d)
			}
		}
		return out
	}
	t.Fatalf("no analyzer named %q", check)
	return nil
}

// render prints n as Go source, for matching a mutant's site by its text.
func render(fset *token.FileSet, n ast.Node) string {
	var buf bytes.Buffer
	if err := format.Node(&buf, fset, n); err != nil {
		return ""
	}
	return buf.String()
}

// inFunc finds the top-level function or method named fn and hands its
// body to edit.
func inFunc(fn string, editBody func(fset *token.FileSet, body *ast.BlockStmt) bool) edit {
	return func(fset *token.FileSet, f *ast.File) bool {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == fn && fd.Body != nil {
				return editBody(fset, fd.Body)
			}
		}
		return false
	}
}

// editLists calls fn on every statement list under n — blocks, case and
// select arms — until one call reports a change.
func editLists(n ast.Node, fn func(list []ast.Stmt) ([]ast.Stmt, bool)) bool {
	done := false
	ast.Inspect(n, func(n ast.Node) bool {
		if done {
			return false
		}
		switch n := n.(type) {
		case *ast.BlockStmt:
			n.List, done = fn(n.List)
		case *ast.CaseClause:
			n.Body, done = fn(n.Body)
		case *ast.CommClause:
			n.Body, done = fn(n.Body)
		}
		return !done
	})
	return done
}

// deleteStmt removes the first statement in fn whose source is text.
func deleteStmt(fn, text string) edit {
	return inFunc(fn, func(fset *token.FileSet, body *ast.BlockStmt) bool {
		return editLists(body, func(list []ast.Stmt) ([]ast.Stmt, bool) {
			for i, s := range list {
				if render(fset, s) == text {
					return append(list[:i:i], list[i+1:]...), true
				}
			}
			return list, false
		})
	})
}

// TestMutantDeterminism: finishDetect ranges the heavy-hitter candidates
// over the map itself instead of the sorted key slice, so the heavy-key
// list and its expansion events come out in map order.
func TestMutantDeterminism(t *testing.T) {
	runMutant(t, mutant{check: "determinism", pkg: "ehjoin/internal/core", edits: map[string]edit{
		"scheduler.go": inFunc("finishDetect", func(fset *token.FileSet, body *ast.BlockStmt) bool {
			found := false
			ast.Inspect(body, func(n ast.Node) bool {
				if rng, ok := n.(*ast.RangeStmt); ok && !found && render(fset, rng.X) == "candidates" {
					rng.Key, rng.Value = rng.Value, nil
					rng.X = &ast.SelectorExpr{X: ast.NewIdent("sc"), Sel: ast.NewIdent("keyCounts")}
					found = true
				}
				return !found
			})
			return found
		}),
	}})
}

// TestMutantChanSend: post hands a handshake's outcome to the loop with a
// bare send, unwrapped from the select that also watched for shutdown, so
// a handshake finishing after the loop has stopped blocks forever on the
// full inbox.
func TestMutantChanSend(t *testing.T) {
	runMutant(t, mutant{check: "chansend", pkg: "ehjoin/internal/tcpnet", edits: map[string]edit{
		"link.go": inFunc("post", func(fset *token.FileSet, body *ast.BlockStmt) bool {
			return editLists(body, func(list []ast.Stmt) ([]ast.Stmt, bool) {
				for i, s := range list {
					sel, ok := s.(*ast.SelectStmt)
					if !ok {
						continue
					}
					for _, cl := range sel.Body.List {
						cc := cl.(*ast.CommClause)
						if send, ok := cc.Comm.(*ast.SendStmt); ok {
							unwrapped := append([]ast.Stmt{send}, cc.Body...)
							return append(list[:i:i], append(unwrapped, list[i+1:]...)...), true
						}
					}
				}
				return list, false
			})
		}),
	}})
}

// TestMutantReportSync: assembleReport stops merging the sources' credit
// stalls, so Report.CreditStalls prints zero on every run.
func TestMutantReportSync(t *testing.T) {
	runMutant(t, mutant{check: "reportsync", pkg: "ehjoin/internal/core", edits: map[string]edit{
		"api.go": deleteStmt("assembleReport", "r.CreditStalls += s.CreditStalls"),
	}})
}

// TestMutantWalOrder: tombstone marks the worker dead before it logs the
// CkptDeath record, so a crash between the two replays a worker the live
// run had already written off.
func TestMutantWalOrder(t *testing.T) {
	runMutant(t, mutant{check: "walorder", pkg: "ehjoin/internal/tcpnet", edits: map[string]edit{
		"tcpnet.go": inFunc("tombstone", func(fset *token.FileSet, body *ast.BlockStmt) bool {
			for i := 1; i < len(body.List); i++ {
				if render(fset, body.List[i]) == "c.workers[i].state = linkDead" {
					body.List[i-1], body.List[i] = body.List[i], body.List[i-1]
					return true
				}
			}
			return false
		}),
	}})
}

// TestMutantLedger: a new session epoch — a live reassignment or its
// replay — does not clear the worker's per-pair quiescence counters, so
// the drain barrier compares a fresh stream against the dead one's counts.
func TestMutantLedger(t *testing.T) {
	runMutant(t, mutant{check: "ledger", pkg: "ehjoin/internal/tcpnet", edits: map[string]edit{
		"tcpnet.go": deleteStmt("resetEpoch", "w.rep.PeerEmitted, w.rep.PeerProcessed = nil, nil"),
	}})
}

// TestMutantLockCheck: the chaos plan sleeps out a stall event inside fire,
// under the plan-wide lock every chaos connection takes, so one stalled
// socket stalls them all.
func TestMutantLockCheck(t *testing.T) {
	runMutant(t, mutant{check: "lockcheck", pkg: "ehjoin/internal/tcpnet", edits: map[string]edit{
		"chaos.go": inFunc("fire", func(fset *token.FileSet, body *ast.BlockStmt) bool {
			sleep := &ast.ExprStmt{X: &ast.CallExpr{
				Fun:  &ast.SelectorExpr{X: ast.NewIdent("time"), Sel: ast.NewIdent("Sleep")},
				Args: []ast.Expr{&ast.SelectorExpr{X: ast.NewIdent("e"), Sel: ast.NewIdent("dur")}},
			}}
			return editLists(body, func(list []ast.Stmt) ([]ast.Stmt, bool) {
				for i, s := range list {
					if render(fset, s) == "return true" {
						return append(list[:i:i], append([]ast.Stmt{sleep}, list[i:]...)...), true
					}
				}
				return list, false
			})
		}),
	}})
}
