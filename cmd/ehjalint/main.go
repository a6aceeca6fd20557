// Command ehjalint runs ehjoin's in-tree invariant analyzers over the
// module and fails (exit 1) on any finding. It is the mechanical form of
// the correctness argument the test suite leans on: determinism of the
// simulated paths, channel discipline and no blocking under a lock in the
// transport, report-counter sync, WAL log-before-act ordering, and
// conservation-ledger reversal.
//
// Usage:
//
//	go run ./cmd/ehjalint ./...          # the CI pre-merge gate
//	go run ./cmd/ehjalint -checks determinism,lockcheck ./internal/...
//	go run ./cmd/ehjalint -json ./...    # machine-readable findings (CI annotations)
//	go run ./cmd/ehjalint -list          # describe every analyzer
//
// Intentional exceptions are annotated in the source they excuse:
//
//	//lint:allow <check> <reason>
//
// on the flagged line or the line directly above it. The reason is
// mandatory; -v prints every suppression so exceptions stay auditable. An
// unknown -checks name is a usage error (exit 2) that lists every unknown
// name.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"ehjoin/internal/lint"
)

// jsonDiag is one diagnostic in -json output, flattened for tooling:
// position fields at the top level so a jq one-liner can turn a finding
// into a GitHub Actions ::error annotation.
type jsonDiag struct {
	Check   string `json:"check"`
	File    string `json:"file"`
	Line    int    `json:"line"`
	Column  int    `json:"column"`
	Message string `json:"message"`
}

// jsonReport is the -json document: findings, suppressions (with their
// positions, so stale-allow audits can be scripted), and the package count.
type jsonReport struct {
	Findings   []jsonDiag `json:"findings"`
	Suppressed []jsonDiag `json:"suppressed"`
	Packages   int        `json:"packages"`
}

func toJSONDiags(ds []lint.Diagnostic) []jsonDiag {
	out := make([]jsonDiag, 0, len(ds))
	for _, d := range ds {
		out = append(out, jsonDiag{
			Check:   d.Check,
			File:    d.Pos.Filename,
			Line:    d.Pos.Line,
			Column:  d.Pos.Column,
			Message: d.Message,
		})
	}
	return out
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command behind main: it parses args, runs the suite and
// prints the findings. It returns the process exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ehjalint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		checks   = fs.String("checks", "", "comma-separated subset of analyzers to run (default: all)")
		list     = fs.Bool("list", false, "list the analyzers and exit")
		verbose  = fs.Bool("v", false, "also print suppressed findings")
		jsonMode = fs.Bool("json", false, "emit findings and suppressions as JSON on stdout")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers := lint.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%s\n", a.Name)
			for _, line := range strings.Split(a.Doc, "\n") {
				fmt.Fprintf(stdout, "    %s\n", line)
			}
		}
		return 0
	}
	if *checks != "" {
		want := map[string]bool{}
		for _, c := range strings.Split(*checks, ",") {
			want[strings.TrimSpace(c)] = true
		}
		var picked []*lint.Analyzer
		for _, a := range analyzers {
			if want[a.Name] {
				picked = append(picked, a)
				delete(want, a.Name)
			}
		}
		if len(want) > 0 {
			unknown := make([]string, 0, len(want))
			for c := range want {
				unknown = append(unknown, fmt.Sprintf("%q", c))
			}
			sort.Strings(unknown)
			fmt.Fprintf(stderr, "ehjalint: unknown check(s) %s\n", strings.Join(unknown, ", "))
			return 2
		}
		analyzers = picked
	}

	pkgs, err := lint.Load(fs.Args()...)
	if err != nil {
		fmt.Fprintln(stderr, "ehjalint:", err)
		return 2
	}
	res, err := lint.RunSuite(analyzers, pkgs)
	if err != nil {
		fmt.Fprintln(stderr, "ehjalint:", err)
		return 2
	}
	if *jsonMode {
		doc := jsonReport{
			Findings:   toJSONDiags(res.Findings),
			Suppressed: toJSONDiags(res.Suppressed),
			Packages:   len(pkgs),
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			fmt.Fprintln(stderr, "ehjalint:", err)
			return 2
		}
		if len(res.Findings) > 0 {
			return 1
		}
		return 0
	}
	if *verbose {
		for _, d := range res.Suppressed {
			fmt.Fprintf(stdout, "%s (suppressed)\n", d)
		}
	}
	for _, d := range res.Findings {
		fmt.Fprintln(stdout, d)
	}
	if len(res.Findings) > 0 {
		fmt.Fprintf(stderr, "ehjalint: %d finding(s) in %d package(s)\n", len(res.Findings), len(pkgs))
		return 1
	}
	if *verbose {
		fmt.Fprintf(stdout, "ehjalint: clean (%d packages, %d suppression(s))\n", len(pkgs), len(res.Suppressed))
	}
	return 0
}
