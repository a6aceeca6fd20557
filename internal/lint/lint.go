// Package lint is ehjoin's in-tree static-analysis suite: a small
// go/analysis-style framework plus the analyzers that mechanically enforce
// this codebase's correctness invariants — determinism of the simulated
// paths, channel discipline and no blocking under a lock in the TCP
// transport, report-counter sync, WAL log-before-act ordering, and
// conservation-ledger reversal. The cmd/ehjalint driver runs every
// analyzer over the module and fails CI on any finding.
//
// Every analyzer earns its place with a mutant: a rewrite of the real tree
// that re-introduces its bug class, which it must catch and which no test
// of the owning package rejects (mutation_test.go). A bug class the tests
// already reject needs no analyzer.
//
// The framework deliberately mirrors golang.org/x/tools/go/analysis
// (Analyzer, Pass, Diagnostic) but is built on the standard library only:
// packages are loaded from `go list -export` metadata and type-checked
// against compiler export data, so the suite needs no dependencies beyond
// the toolchain itself.
//
// # Suppressions
//
// An intentional exception is annotated in the source it excuses:
//
//	busy := wallClock() //lint:allow determinism exec stats are diagnostic only
//
// The comment must follow the prefix with a space, name the check and give
// a non-empty reason, and may sit on the flagged line or on the line
// directly above it. A malformed suppression is itself reported, so every
// exception stays visible and justified in the diff. So is a stale
// suppression — an allow whose check ran but silenced nothing — which
// keeps the exception inventory honest as the code it excused evolves.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one invariant check. Analyzers are stateful per
// run (program-level checks accumulate facts across packages), so always
// obtain fresh instances from Analyzers().
type Analyzer struct {
	// Name identifies the check in diagnostics and //lint:allow comments.
	Name string
	// Doc is the one-paragraph description printed by `ehjalint -list`.
	Doc string
	// Run inspects one package. It may report diagnostics immediately or
	// record facts for Finish.
	Run func(*Pass) error
	// Finish, if non-nil, runs once after every package's Run and reports
	// program-level diagnostics (e.g. "this field is read nowhere").
	Finish func(report func(Diagnostic)) error
}

// A Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Check:   p.Analyzer.Name,
		Pos:     p.Fset.Position(pos),
		Message: fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one finding, positioned for the editor.
type Diagnostic struct {
	Check   string
	Pos     token.Position
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Pos, d.Message, d.Check)
}

// Analyzers returns a fresh instance of every check in the suite.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		NewDeterminism(),
		NewChanSend(),
		NewLockCheck(),
		NewReportSync(),
		NewWalOrder(),
		NewLedger(),
	}
}

// suppression is one parsed //lint:allow comment.
type suppression struct {
	check  string
	reason string
	line   int
	used   bool
	pos    token.Position
}

const allowPrefix = "//lint:allow "

// collectSuppressions parses every //lint:allow comment in the package.
// Malformed suppressions (no space after the prefix, no check, or no
// reason) are reported as diagnostics of the pseudo-check "lint".
func collectSuppressions(fset *token.FileSet, files []*ast.File) (map[string][]*suppression, []Diagnostic) {
	byFile := make(map[string][]*suppression)
	var malformed []Diagnostic
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, "//lint:allow") {
					continue
				}
				pos := fset.Position(c.Pos())
				fields := strings.Fields(strings.TrimPrefix(c.Text, allowPrefix))
				if !strings.HasPrefix(c.Text, allowPrefix) || len(fields) < 2 {
					malformed = append(malformed, Diagnostic{
						Check: "lint", Pos: pos,
						Message: "malformed suppression: want //lint:allow <check> <reason>",
					})
					continue
				}
				byFile[pos.Filename] = append(byFile[pos.Filename], &suppression{
					check:  fields[0],
					reason: strings.Join(fields[1:], " "),
					line:   pos.Line,
					pos:    pos,
				})
			}
		}
	}
	return byFile, malformed
}

// applySuppressions filters diags through the collected //lint:allow
// comments: a diagnostic is suppressed when a matching comment sits on its
// line or the line directly above. Matching suppressions are marked used,
// so the suite can report the stale ones at the end of a run.
func applySuppressions(byFile map[string][]*suppression, diags []Diagnostic) (kept, suppressed []Diagnostic) {
	for _, d := range diags {
		var hit *suppression
		for _, s := range byFile[d.Pos.Filename] {
			if s.check == d.Check && (s.line == d.Pos.Line || s.line == d.Pos.Line-1) {
				hit = s
				break
			}
		}
		if hit != nil {
			hit.used = true
			suppressed = append(suppressed, d)
			continue
		}
		kept = append(kept, d)
	}
	return kept, suppressed
}

// staleSuppressions reports every collected suppression that silenced
// nothing during the run, restricted to the checks that actually ran (a
// -checks subset must not flag allows belonging to analyzers it skipped).
// A stale allow is a lie in the source — it claims an exception that no
// longer exists — so it is a finding of the pseudo-check "lint".
func staleSuppressions(byFile map[string][]*suppression, analyzers []*Analyzer) []Diagnostic {
	ran := map[string]bool{"lint": true}
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	var stale []Diagnostic
	for _, ss := range byFile {
		for _, s := range ss {
			if !s.used && ran[s.check] {
				stale = append(stale, Diagnostic{
					Check: "lint", Pos: s.pos,
					Message: fmt.Sprintf("stale //lint:allow %s: it suppresses no diagnostic; "+
						"delete it, or re-justify it against a finding that still exists", s.check),
				})
			}
		}
	}
	return stale
}

// sortDiags orders diagnostics by file, line, column, then check name.
func sortDiags(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Check < b.Check
	})
}

// Result is the outcome of one suite run over a set of packages.
type Result struct {
	// Findings are the surviving diagnostics, sorted by position.
	Findings []Diagnostic
	// Suppressed are diagnostics silenced by //lint:allow comments.
	Suppressed []Diagnostic
}

// RunSuite runs every analyzer over the loaded packages, applies
// suppressions, and returns the combined result. An analyzer error aborts
// the run: it means the analyzer itself is broken, not the code.
//
// Suppressions are collected once, up front, across every loaded file:
// package file sets never overlap, collecting once reports a malformed
// comment exactly once even when program-level finishes fire, and the
// shared used-bits are what let the suite flag stale allows at the end.
func RunSuite(analyzers []*Analyzer, pkgs []*LoadedPackage) (*Result, error) {
	res := &Result{}
	byFile := make(map[string][]*suppression)
	for _, p := range pkgs {
		pkgAllows, malformed := collectSuppressions(p.Fset, p.Files)
		for file, ss := range pkgAllows {
			byFile[file] = append(byFile[file], ss...)
		}
		res.Findings = append(res.Findings, malformed...)
	}
	for _, p := range pkgs {
		var diags []Diagnostic
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			pass := &Pass{
				Analyzer: a,
				Fset:     p.Fset,
				Files:    p.Files,
				Pkg:      p.Types,
				Info:     p.Info,
				diags:    &diags,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("lint: %s on %s: %w", a.Name, p.PkgPath, err)
			}
		}
		kept, supp := applySuppressions(byFile, diags)
		res.Findings = append(res.Findings, kept...)
		res.Suppressed = append(res.Suppressed, supp...)
	}
	// Program-level finishes: their diagnostics are positioned in whatever
	// package declares the offending object, so suppressions are resolved
	// against the whole collected set.
	var finishDiags []Diagnostic
	for _, a := range analyzers {
		if a.Finish == nil {
			continue
		}
		if err := a.Finish(func(d Diagnostic) { finishDiags = append(finishDiags, d) }); err != nil {
			return nil, fmt.Errorf("lint: %s finish: %w", a.Name, err)
		}
	}
	kept, supp := applySuppressions(byFile, finishDiags)
	res.Findings = append(res.Findings, kept...)
	res.Suppressed = append(res.Suppressed, supp...)
	res.Findings = append(res.Findings, staleSuppressions(byFile, analyzers)...)
	sortDiags(res.Findings)
	sortDiags(res.Suppressed)
	return res, nil
}
