package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"ehjoin/cmd/internal/worker"
)

// TestMain lets run spawn this test binary as its workers: os.Executable
// is the test binary, and it dispatches -worker as main does.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-worker" {
		os.Exit(worker.Main("ehjadist -worker", os.Args[2:], os.Stderr))
	}
	os.Exit(m.Run())
}

// syncBuffer is a bytes.Buffer that run's own messages and the copies of
// its spawned workers' stderr can write at once.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// runWithin runs ehjadist with args and fails the test if it has not
// returned within d: a rejected run must not wait for workers.
func runWithin(t *testing.T, d time.Duration, args []string) (code int, stdout, stderr string) {
	t.Helper()
	type result struct {
		code           int
		stdout, stderr string
	}
	done := make(chan result, 1)
	go func() {
		var out, errb syncBuffer
		c := run(args, &out, &errb)
		done <- result{c, out.String(), errb.String()}
	}()
	select {
	case r := <-done:
		return r.code, r.stdout, r.stderr
	case <-time.After(d):
		t.Fatalf("ehjadist %s: still running after %v", strings.Join(args, " "), d)
		return 0, "", ""
	}
}

// TestBadInputsFailInOneLine: a flag value no run can use ends the command
// with one line on stderr and a non-zero status — never a panic, a hang or
// a listener left waiting for workers. A value ehjadist rejects itself is a
// usage error (2); one the join configuration rejects fails the run (1).
// Both are found before a listener is bound or a worker spawned.
func TestBadInputsFailInOneLine(t *testing.T) {
	wal := filepath.Join(t.TempDir(), "coord.wal")
	for _, tc := range []struct {
		args string
		code int
	}{
		{"-workers 0", 2},
		{"-workers 129", 2},
		{"-alg bogus", 2},
		{"-dist bogus", 2},
		{"-dist correlated", 2},
		{"-kill 1", 2},
		{"-kill 5@1", 2},
		{"-kill 0@1 -spawn=false", 2},
		{"-kill 0@NaN", 2},
		{"-kill 0@Inf", 2},
		{"-kill 0@1e300", 2},
		{"-coord-kill 1@5", 2},
		{"-coord-kill x@1 -wal " + wal, 2},
		{"-chaos bogus", 2},
		{"-spawn=false -budget -1", 1},
		{"-budget -1", 1},
	} {
		code, stdout, msg := runWithin(t, 10*time.Second, strings.Fields(tc.args+" -r 20000 -s 20000"))
		if code != tc.code {
			t.Errorf("ehjadist %s: exit %d, want %d (stderr %q)", tc.args, code, tc.code, msg)
		}
		if strings.Count(msg, "\n") != 1 || strings.Contains(msg, "panic") {
			t.Errorf("ehjadist %s: stderr %q, want one line and no panic", tc.args, msg)
		}
		if stdout != "" {
			t.Errorf("ehjadist %s: printed for a rejected run:\n%s", tc.args, stdout)
		}
	}
	if _, err := os.Stat(wal); !os.IsNotExist(err) {
		t.Errorf("a rejected run created its write-ahead log %s (stat: %v)", wal, err)
	}
}

// TestRunPrintsPinnedResult runs small joins on spawned workers and pins
// the matches and checksums ehjadist printed before its flags moved to the
// shared binder, so the seeds and specs it builds stay what they were. The
// last run restarts its coordinator from the write-ahead log mid-build and
// must land on the fault-free result.
func TestRunPrintsPinnedResult(t *testing.T) {
	wal := filepath.Join(t.TempDir(), "coord.wal")
	const (
		pin50k  = "ehjadist: 50000 matches (checksum 0xf44c25bcd303e8f9) across 2 worker process(es)"
		pinZipf = "ehjadist: 637127883 matches (checksum 0x3e3e6bfca3c2b10b) across 2 worker process(es)"
		pin3w   = "ehjadist: 200000 matches (checksum 0x93de48db1323c810) across 3 worker process(es)"
	)
	for _, tc := range []struct {
		args, want, wantErr string
	}{
		{"-workers 2 -r 50000 -s 50000", pin50k, ""},
		{"-r 60000 -s 60000 -dist zipf -heavy-threshold 0.01", pinZipf, ""},
		{"-workers 3 -r 200000 -s 200000", pin3w, ""},
		{"-workers 3 -r 200000 -s 200000 -wal " + wal + " -coord-kill 0@40", pin3w, "restarting from " + wal},
	} {
		code, stdout, stderr := runWithin(t, time.Minute, strings.Fields(tc.args))
		if code != 0 || !strings.Contains(stdout, tc.want) || !strings.Contains(stderr, tc.wantErr) {
			t.Errorf("ehjadist %s: exit %d, want 0, %q in\n%s\nand %q in stderr %q", tc.args, code, tc.want, stdout, tc.wantErr, stderr)
		}
	}
}

// TestEarlyWorkerExitFailsTheRun: a spawned worker that exits before it
// connects (here its CPU profile path is a directory) fails the run with
// status 1 and a message naming it, instead of leaving the coordinator
// waiting for a connection that never comes.
func TestEarlyWorkerExitFailsTheRun(t *testing.T) {
	prof := filepath.Join(t.TempDir(), "f")
	if err := os.Mkdir(prof+".w0", 0o755); err != nil {
		t.Fatal(err)
	}
	code, _, stderr := runWithin(t, 20*time.Second, strings.Fields("-workers 2 -r 20000 -s 20000 -cpuprofile "+prof))
	if code != 1 || !strings.Contains(stderr, "ehjadist: spawned worker 0 exited before the run started") {
		t.Errorf("exit %d, want 1 and spawned worker 0 named in stderr %q", code, stderr)
	}
}
