package main

import (
	"bytes"
	"testing"
)

// TestUnknownChecksReportedTogether: a -checks list naming analyzers the
// suite does not have is a usage error (2) whose one stderr line names every
// unknown check, sorted — not whichever one a map iteration reached first.
// It fails before loading a single package.
func TestUnknownChecksReportedTogether(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-checks", "zeta,determinism, alpha", "./..."}, &stdout, &stderr)
	if code != 2 {
		t.Errorf("exit %d, want 2 (stderr %q)", code, stderr.String())
	}
	want := "ehjalint: unknown check(s) \"alpha\", \"zeta\"\n"
	if got := stderr.String(); got != want {
		t.Errorf("stderr %q, want %q", got, want)
	}
	if stdout.Len() != 0 {
		t.Errorf("printed findings for a rejected run:\n%s", stdout.String())
	}
}
