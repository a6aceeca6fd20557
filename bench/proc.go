package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// procTimeout bounds one CLI run; a run that exceeds it is killed with its
// whole process group and counted as a failure.
const procTimeout = 60 * time.Second

// procResult is what the operating system reports about one finished CLI
// run.
type procResult struct {
	WallS  float64 // exec to exit of the CLI, which waits for its workers
	CPUS   float64 // user+sys of the CLI and every descendant it reaped
	RSSMB  float64 // ru_maxrss of the largest process in the CLI's tree
	Stdout string
	Stderr string
	Err    error // non-zero exit, start failure or timeout
}

// The CLI is not started by the benchmark process itself but by a small
// child of it (this same binary, re-executed with childFlag), which times
// the run and reads getrusage(RUSAGE_CHILDREN). The indirection is for
// ru_maxrss: Linux seeds a new program's high-water mark with that of the
// process that exec'd it, so a CLI started directly would report the
// benchmark's own peak (oracle maps, reference kernel) as its floor.
// Started from a process of a few megabytes it reports its own.
const (
	childFlag = "-measure-child"
	childTag  = "bench-child:"
)

// childMain runs args as a command, passes its output through, and appends
// one line with the measurement. Its exit code is the command's.
func childMain(args []string) int {
	cmd := exec.Command(args[0], args[1:]...)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	start := time.Now()
	err := cmd.Run()
	wall := time.Since(start).Seconds()
	var ru syscall.Rusage
	if rerr := syscall.Getrusage(syscall.RUSAGE_CHILDREN, &ru); rerr != nil {
		fmt.Fprintln(os.Stderr, "bench: getrusage:", rerr)
		return 125
	}
	fmt.Printf("%s wall_s=%.6f cpu_s=%.6f maxrss_kb=%d\n", childTag, wall, tvSeconds(ru.Utime)+tvSeconds(ru.Stime), ru.Maxrss)
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0
	case errors.As(err, &exit):
		return exit.ExitCode()
	default:
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 126
	}
}

// runProc runs bin through the measuring child, in its own process group so
// that a timeout can kill the child, the coordinator and its spawned
// workers together, leaving no orphans.
func runProc(self, bin string, args []string, timeout time.Duration) procResult {
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(self, append([]string{childFlag, bin}, args...)...)
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	// Workers inherit the stderr pipe; never wait on it past the kill.
	cmd.WaitDelay = 2 * time.Second

	if err := cmd.Start(); err != nil {
		return procResult{Err: fmt.Errorf("start %s: %w", bin, err)}
	}
	pgid := cmd.Process.Pid
	var timedOut atomic.Bool
	timer := time.AfterFunc(timeout, func() {
		timedOut.Store(true)
		_ = syscall.Kill(-pgid, syscall.SIGKILL) // the group may already be gone
	})
	err := cmd.Wait()
	timer.Stop()
	// Sweep the group even after a normal exit: a coordinator that died
	// early may have left workers behind. ESRCH (nothing left) is the
	// expected answer.
	_ = syscall.Kill(-pgid, syscall.SIGKILL)

	res := procResult{Stdout: stdout.String(), Stderr: stderr.String()}
	switch {
	case timedOut.Load():
		res.Err = fmt.Errorf("%s: killed after %s timeout", bin, timeout)
	case err != nil:
		res.Err = fmt.Errorf("%s: %w: %s", bin, err, lastLine(res.Stderr))
	default:
		var rssKB int64
		if _, err := fmt.Sscanf(lastLine(res.Stdout), childTag+" wall_s=%f cpu_s=%f maxrss_kb=%d",
			&res.WallS, &res.CPUS, &rssKB); err != nil {
			res.Err = fmt.Errorf("%s: no measurement line from the child: %w", bin, err)
		}
		res.RSSMB = float64(rssKB) / 1024 // Linux reports kilobytes
	}
	return res
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

func lastLine(s string) string {
	s = strings.TrimSpace(s)
	return s[strings.LastIndexByte(s, '\n')+1:]
}

// selfCPUSeconds returns this process's user+sys CPU time so far.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}
