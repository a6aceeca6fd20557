package cluster

import (
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"sync"
)

// Workers are the workers of one run that this process started, numbered
// in the order they started: copies of its own executable or goroutines.
type Workers struct {
	procs  []*os.Process // procs[i] is spawned worker i's; none for goroutines
	errs   []error       // errs[i] is worker i's exit, set before i is sent on exited
	exited chan int      // each worker's index as it exits
	wg     sync.WaitGroup
}

// Spawn is Go for n copies of this executable, worker i run with the
// arguments args(i) and its stderr on stderr. With args nil it starts
// nothing: the workers run elsewhere (joind on other hosts), and conns[i]
// is the i-th to connect.
func Spawn(l net.Listener, n int, args func(i int) []string, stderr io.Writer) (*Workers, []net.Conn, error) {
	self, err := os.Executable()
	return accept(l, n, func(ws *Workers, i int) (func() error, error) {
		if args == nil {
			return nil, nil
		}
		if err != nil {
			return nil, err
		}
		cmd := exec.Command(self, args(i)...)
		cmd.Stderr = stderr
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		ws.procs = append(ws.procs, cmd.Process)
		return cmd.Wait, nil
	})
}

// Go runs n workers in this process, worker i as run(i) on a goroutine of
// its own. It starts worker i and accepts from l either its connection or
// its exit before it starts worker i+1, so conns[i] is worker i's. A
// worker that exits before all have connected fails the start, named; an
// error return has closed l and the accepted connections and reaped the
// started workers, killed.
func Go(l net.Listener, n int, run func(i int) error) (*Workers, []net.Conn, error) {
	return accept(l, n, func(_ *Workers, i int) (func() error, error) {
		return func() error { return run(i) }, nil
	})
}

// accept is Go with start(ws, i) starting worker i and returning what
// waits for its exit, or nil for a worker started elsewhere.
func accept(l net.Listener, n int, start func(ws *Workers, i int) (wait func() error, err error)) (*Workers, []net.Conn, error) {
	ws := &Workers{errs: make([]error, n), exited: make(chan int, n)}
	conns := make([]net.Conn, n)
	accepted := make(chan error, 1) // the one pending Accept never blocks on its send
	for i := range conns {
		wait, err := start(ws, i)
		if wait != nil {
			ws.wg.Add(1)
			go func() {
				defer ws.wg.Done()
				ws.errs[i] = wait()
				ws.exited <- i
			}()
		}
		if err == nil {
			go func() {
				var err error
				conns[i], err = l.Accept()
				accepted <- err
			}()
			select {
			case err = <-accepted:
			case j := <-ws.exited:
				err = fmt.Errorf("spawned worker %d exited before the run started (%v)", j, ws.errs[j])
			}
		}
		if err != nil {
			l.Close() // ends a pending Accept
			for _, c := range conns[:i] {
				c.Close()
			}
			ws.Reap(true)
			return nil, nil, err
		}
	}
	return ws, conns, nil
}

// Kill kills spawned worker i.
func (ws *Workers) Kill(i int) error { return ws.procs[i].Kill() }

// Reap waits for every started worker to exit, killing each spawned one
// first if kill is set; a goroutine exits when its connections close.
func (ws *Workers) Reap(kill bool) {
	for _, p := range ws.procs {
		if kill {
			_ = p.Kill() // fails only for a worker that has exited
		}
	}
	ws.wg.Wait()
}
