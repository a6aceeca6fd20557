package ehjoin_test

import (
	"fmt"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// fuzzRun matches one `go test -fuzz FuzzX … ./pkg/` command line and
// captures the target and the package.
var fuzzRun = regexp.MustCompile(`-fuzz (Fuzz\w*) .*?\./(\S+?)/?(?:\s|$)`)

// TestFuzzTargetsRunInMakeAndCI keeps the fuzz targets, `make fuzz` and
// CI's fuzz-smoke job in step: every fuzz target of the module has a
// Makefile line and a fuzz-smoke step in its own package, and every line
// and step names a target that package defines. Dropping the FuzzTableOps
// line from the Makefile checks that a missing line is still caught.
func TestFuzzTargetsRunInMakeAndCI(t *testing.T) {
	targets := map[string]string{}
	for name, dir := range definedTests(t) {
		if strings.HasPrefix(name, "Fuzz") {
			targets[name] = dir
		}
	}
	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	ci, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	smoke := ciJob(t, string(ci), "fuzz-smoke")

	mutant := regexp.MustCompile(`(?m)^.*-fuzz FuzzTableOps .*\n`).ReplaceAllString(string(makefile), "")
	if got := fuzzMismatches(targets, "Makefile", mutant); len(got) != 1 || !strings.Contains(got[0], "FuzzTableOps") {
		t.Fatalf("a Makefile without the FuzzTableOps line reads as %q, want one finding naming it", got)
	}
	for _, f := range append(fuzzMismatches(targets, "Makefile", string(makefile)),
		fuzzMismatches(targets, "CI's fuzz-smoke job", smoke)...) {
		t.Error(f)
	}
	if len(targets) < 7 {
		t.Errorf("found %d fuzz targets, want at least the 7 of the module", len(targets))
	}
}

// fuzzMismatches compares the fuzz commands in text, which stands for
// where, with the targets (name → package directory).
func fuzzMismatches(targets map[string]string, where, text string) []string {
	runs := map[string]string{}
	var out []string
	for _, m := range fuzzRun.FindAllStringSubmatch(text, -1) {
		runs[m[1]] = m[2]
		if dir, ok := targets[m[1]]; !ok || dir != m[2] {
			out = append(out, fmt.Sprintf("%s fuzzes %s in ./%s/, which that package does not define", where, m[1], m[2]))
		}
	}
	for name, dir := range targets {
		if _, ok := runs[name]; !ok {
			out = append(out, fmt.Sprintf("%s does not fuzz %s (./%s/)", where, name, dir))
		}
	}
	sort.Strings(out)
	return out
}

// ciJob returns the lines of one job of the workflow: from its key to the
// next job's.
func ciJob(t *testing.T, workflow, job string) string {
	t.Helper()
	_, rest, ok := strings.Cut(workflow, "\n  "+job+":\n")
	if !ok {
		t.Fatalf("the workflow has no job %s", job)
	}
	if next := regexp.MustCompile(`\n  [\w-]+:\n`).FindStringIndex(rest); next != nil {
		rest = rest[:next[0]]
	}
	return rest
}
