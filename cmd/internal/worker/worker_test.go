package worker

import (
	"bytes"
	"strings"
	"testing"
)

// TestMainReturnsUsageStatus: a usage error is returned as status 2, not
// exited from inside flag parsing, and -h is 0. None of these dials.
func TestMainReturnsUsageStatus(t *testing.T) {
	for _, tc := range []struct {
		args string
		code int
		want string // in stderr
	}{
		{"-bogus", 2, "flag provided but not defined: -bogus"},
		{"-chaos bogus", 2, "joind: chaos:"},
		{"-h", 0, "Usage of joind"},
	} {
		var stderr bytes.Buffer
		if code := Main("joind", strings.Fields(tc.args), &stderr); code != tc.code {
			t.Errorf("joind %s: exit %d, want %d (stderr %q)", tc.args, code, tc.code, stderr.String())
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("joind %s: stderr %q, want it to contain %q", tc.args, stderr.String(), tc.want)
		}
	}
}
