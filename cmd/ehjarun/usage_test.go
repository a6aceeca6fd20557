package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestBadInputsFailInOneLine: a flag value no run can use ends the command
// with one line on stderr and a non-zero status — never a panic, a hang or
// a silently exhausted run. A value ehjarun rejects itself is a usage
// error (2); one the join configuration rejects fails the run (1).
func TestBadInputsFailInOneLine(t *testing.T) {
	for _, tc := range []struct {
		args string
		code int
	}{
		{"-tuple 8", 2},
		{"-tuple 0", 2},
		{"-sources -1", 1},
		{"-budget -1", 1},
		{"-alg bogus", 2},
		{"-dist bogus", 2},
		{"-dist correlated", 2},
		{"-faults 0@NaN", 2},
		{"-faults 0@Inf", 2},
		{"-faults 0@1:NaN", 2},
	} {
		var stdout, stderr bytes.Buffer
		code := run(strings.Fields(tc.args+" -r 20000 -s 20000"), &stdout, &stderr)
		msg := stderr.String()
		if code != tc.code {
			t.Errorf("ehjarun %s: exit %d, want %d (stderr %q)", tc.args, code, tc.code, msg)
		}
		if strings.Count(msg, "\n") != 1 || strings.Contains(msg, "panic") {
			t.Errorf("ehjarun %s: stderr %q, want one line and no panic", tc.args, msg)
		}
		if stdout.Len() != 0 {
			t.Errorf("ehjarun %s: printed a report for a rejected run:\n%s", tc.args, stdout.String())
		}
	}
}
