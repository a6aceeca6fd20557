package ehjoin_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// citingDocs are the documents that tell a reader which test pins what and
// where the code lives.
var citingDocs = []string{"README.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"}

// citedTest matches a test, benchmark or fuzz target cited in prose:
// TestX, a brace list TestX{A,B} (TestXA and TestXB), or a prefix TestX*
// (at least one test so named).
var citedTest = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9][A-Za-z0-9_]*(?:\{[^}]*\}|\*)?`)

// citedPath matches a repository path that opens a backticked span, up to
// the first space: `internal/core`, `cmd/ehjabench -fig all`, `examples/*`.
var citedPath = regexp.MustCompile("`((?:internal|cmd|bench|examples|scripts|\\.github)/[^`\\s]*)")

// definedTests returns every test, benchmark and fuzz target some _test.go
// of the module declares, with the slash-separated directory of its
// package.
func definedTests(t *testing.T) map[string]string {
	t.Helper()
	defined := map[string]string{}
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) && path != "." {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		for _, m := range decl.FindAllSubmatch(src, -1) {
			defined[string(m[1])] = filepath.ToSlash(filepath.Dir(path))
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return defined
}

// TestDocsCiteTestsThatExist keeps the documents that tell a reader which
// test pins what honest: every test name README.md, DESIGN.md and the
// verify skill cite must exist in some _test.go of the module.
func TestDocsCiteTestsThatExist(t *testing.T) {
	defined := definedTests(t)
	for _, doc := range citingDocs {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, cite := range citedTest.FindAllString(string(text), -1) {
			for _, name := range expandCite(cite) {
				if !citeExists(name, defined) {
					t.Errorf("%s cites %s, which no _test.go defines", doc, name)
				}
			}
		}
	}
}

// TestDocsCitePathsThatExist: every repository path the same documents
// put in backticks must name a file or directory of the checkout; a
// wildcard path must match at least one. The made-up path checks that the
// pattern and the lookup still catch a stale citation.
func TestDocsCitePathsThatExist(t *testing.T) {
	if got := missingPaths("see `internal/hashtable/grow.go` and `internal/hashtable`"); len(got) != 1 || got[0] != "internal/hashtable/grow.go" {
		t.Fatalf("a made-up path is reported as %q, want only internal/hashtable/grow.go", got)
	}
	for _, doc := range citingDocs {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range missingPaths(string(text)) {
			t.Errorf("%s cites %s, which is not in the repository", doc, p)
		}
	}
}

// missingPaths returns the backticked repository paths in text that match
// nothing in the checkout.
func missingPaths(text string) []string {
	var missing []string
	for _, m := range citedPath.FindAllStringSubmatch(text, -1) {
		if found, err := filepath.Glob(filepath.FromSlash(m[1])); err != nil || len(found) == 0 {
			missing = append(missing, m[1])
		}
	}
	return missing
}

// expandCite turns a brace list into its names; a list entry "…" or "..."
// stands for names the citation leaves out.
func expandCite(cite string) []string {
	stem, list, ok := strings.Cut(cite, "{")
	if !ok {
		return []string{cite}
	}
	var names []string
	for _, part := range strings.Split(strings.TrimSuffix(list, "}"), ",") {
		if part = strings.TrimSpace(part); part != "…" && part != "..." {
			names = append(names, stem+part)
		}
	}
	return names
}

func citeExists(name string, defined map[string]string) bool {
	prefix, star := strings.CutSuffix(name, "*")
	if !star {
		_, ok := defined[name]
		return ok
	}
	for d := range defined {
		if strings.HasPrefix(d, prefix) {
			return true
		}
	}
	return false
}
