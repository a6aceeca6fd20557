package cluster_test

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"ehjoin/internal/cluster"
)

// TestMain lets Spawn start this test binary as its workers: with -helper
// first it is one, in the mode the next argument names.
//
//	-helper connect ADDR I N PIDFILE: sleep (N-1-I)·20 ms, so later workers
//	  would dial first if they all started at once; write the pid to
//	  PIDFILE, dial ADDR, write the byte I, and sleep a minute, far longer
//	  than any start may take, unless killed.
//	-helper exit: exit 3 without dialing.
func TestMain(m *testing.M) {
	if len(os.Args) < 3 || os.Args[1] != "-helper" {
		os.Exit(m.Run())
	}
	if os.Args[2] == "exit" {
		os.Exit(3)
	}
	i, _ := strconv.Atoi(os.Args[4])
	n, _ := strconv.Atoi(os.Args[5])
	time.Sleep(time.Duration(n-1-i) * 20 * time.Millisecond)
	if err := os.WriteFile(os.Args[6], []byte(strconv.Itoa(os.Getpid())), 0o644); err != nil {
		os.Exit(1)
	}
	c, err := net.Dial("tcp", os.Args[3])
	if err != nil {
		os.Exit(1)
	}
	if _, err := c.Write([]byte{byte(i)}); err != nil {
		os.Exit(1)
	}
	time.Sleep(time.Minute)
}

// starter starts n workers on l, the first n-exits of which connect and
// the rest exit before they dial, and returns Spawn's or Go's result. A
// process worker writes its pid to dir/pid.<i>; a goroutine worker closes
// done[i] once it has returned.
type starter func(t *testing.T, l net.Listener, n, exits int, dir string, done []chan struct{}) (*cluster.Workers, []net.Conn, error)

func processes(_ *testing.T, l net.Listener, n, exits int, dir string, _ []chan struct{}) (*cluster.Workers, []net.Conn, error) {
	return cluster.Spawn(l, n, func(i int) []string {
		if i >= n-exits {
			return []string{"-helper", "exit"}
		}
		return []string{"-helper", "connect", l.Addr().String(), strconv.Itoa(i), strconv.Itoa(n),
			filepath.Join(dir, "pid."+strconv.Itoa(i))}
	}, os.Stderr)
}

func goroutines(t *testing.T, l net.Listener, n, exits int, _ string, done []chan struct{}) (*cluster.Workers, []net.Conn, error) {
	return cluster.Go(l, n, func(i int) error {
		defer close(done[i])
		if i >= n-exits {
			return errors.New("no dial")
		}
		time.Sleep(time.Duration(n-1-i) * 20 * time.Millisecond)
		c, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			t.Errorf("worker %d: %v", i, err)
			return err
		}
		defer c.Close()
		if _, err := c.Write([]byte{byte(i)}); err != nil {
			t.Errorf("worker %d: %v", i, err)
			return err
		}
		_, err = io.Copy(io.Discard, c) // until the coordinator end closes
		return err
	})
}

// start runs s on a fresh loopback listener and fails the test unless it
// returns within 10 s: a start must never wait for a worker that is gone.
func start(t *testing.T, s starter, dir string, n, exits int) (*cluster.Workers, []net.Conn, []chan struct{}, error) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	done := make([]chan struct{}, n)
	for i := range done {
		done[i] = make(chan struct{})
	}
	type result struct {
		ws    *cluster.Workers
		conns []net.Conn
		err   error
	}
	got := make(chan result, 1)
	go func() {
		ws, conns, err := s(t, l, n, exits, dir, done)
		got <- result{ws, conns, err}
	}()
	select {
	case r := <-got:
		return r.ws, r.conns, done, r.err
	case <-time.After(10 * time.Second):
		t.Fatalf("still starting %d workers after 10 s", n)
		return nil, nil, nil, nil
	}
}

var starters = []struct {
	name string
	s    starter
}{{"processes", processes}, {"goroutines", goroutines}}

// TestConnsAreInStartOrder: conns[i] is worker i's connection, although
// each worker dials later than the next one would if all started at once.
func TestConnsAreInStartOrder(t *testing.T) {
	for _, tc := range starters {
		t.Run(tc.name, func(t *testing.T) {
			const n = 3
			ws, conns, _, err := start(t, tc.s, t.TempDir(), n, 0)
			if err != nil {
				t.Fatal(err)
			}
			for i, c := range conns {
				b := make([]byte, 1)
				if _, err := io.ReadFull(c, b); err != nil || b[0] != byte(i) {
					t.Errorf("conns[%d] is worker %d's (read error %v)", i, b[0], err)
				}
				c.Close()
			}
			ws.Reap(true)
		})
	}
}

// TestEarlyExitFailsTheStart: a worker that exits before it connects fails
// the start, named by its index, instead of leaving it waiting for a
// connection that never comes.
func TestEarlyExitFailsTheStart(t *testing.T) {
	for _, tc := range starters {
		for _, n := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/%d", tc.name, n), func(t *testing.T) {
				_, _, _, err := start(t, tc.s, t.TempDir(), n, 1)
				want := fmt.Sprintf("worker %d exited before the run started", n-1)
				if err == nil || !strings.Contains(err.Error(), want) {
					t.Errorf("start error %v, want %q", err, want)
				}
			})
		}
	}
}

// TestFailedStartReapsStartedWorkers: when a start fails, the workers it
// had started are gone by the time it returns. The process workers would
// sleep for a minute, so the start must have killed them; a reaped process
// no longer answers signal 0.
func TestFailedStartReapsStartedWorkers(t *testing.T) {
	const n = 3
	t.Run("processes", func(t *testing.T) {
		dir := t.TempDir()
		if _, _, _, err := start(t, processes, dir, n, 1); err == nil {
			t.Fatal("the start succeeded")
		}
		for i := range n - 1 {
			b, err := os.ReadFile(filepath.Join(dir, "pid."+strconv.Itoa(i)))
			if err != nil {
				t.Fatal(err)
			}
			pid, _ := strconv.Atoi(string(b))
			if p, err := os.FindProcess(pid); err == nil && p.Signal(syscall.Signal(0)) == nil {
				t.Errorf("worker %d (pid %d) outlived the failed start", i, pid)
			}
		}
	})
	t.Run("goroutines", func(t *testing.T) {
		_, _, done, err := start(t, goroutines, t.TempDir(), n, 1)
		if err == nil {
			t.Fatal("the start succeeded")
		}
		for i, d := range done {
			select {
			case <-d:
			default:
				t.Errorf("worker %d outlived the failed start", i)
			}
		}
	})
}
