package ehjoin_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// citedTest matches a test, benchmark or fuzz target cited in prose:
// TestX, a brace list TestX{A,B} (TestXA and TestXB), or a prefix TestX*
// (at least one test so named).
var citedTest = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9][A-Za-z0-9_]*(?:\{[^}]*\}|\*)?`)

// TestDocsCiteTestsThatExist keeps the documents that tell a reader which
// test pins what honest: every test name README.md, DESIGN.md and the
// verify skill cite must exist in some _test.go of the module.
func TestDocsCiteTestsThatExist(t *testing.T) {
	defined := map[string]bool{}
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
			defined[string(m[1])] = true
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range []string{"README.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"} {
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

func citeExists(name string, defined map[string]bool) bool {
	prefix, star := strings.CutSuffix(name, "*")
	if !star {
		return defined[name]
	}
	for d := range defined {
		if strings.HasPrefix(d, prefix) {
			return true
		}
	}
	return false
}
