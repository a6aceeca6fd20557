package tcpnet_test

import (
	"errors"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ehjoin/internal/cluster"
	"ehjoin/internal/core"
	rt "ehjoin/internal/runtime"
	"ehjoin/internal/tcpnet"
)

// killConn cuts a worker's connection after it has read limit bytes,
// deterministically landing the failure mid-phase regardless of scheduling.
type killConn struct {
	net.Conn
	remaining int64
}

func (k *killConn) Read(p []byte) (int, error) {
	if k.remaining <= 0 {
		_ = k.Conn.Close()
		return 0, errors.New("injected fault: connection killed")
	}
	n, err := k.Conn.Read(p)
	k.remaining -= int64(n)
	return n, err
}

// deadAfterFirst returns a worker dial function for l that connects once,
// through wrap, and refuses every redial: the process behind it is gone.
func deadAfterFirst(l net.Listener, wrap func(net.Conn) net.Conn) func() (net.Conn, error) {
	var dialed atomic.Bool
	dial := dialer(l, wrap)
	return func() (net.Conn, error) {
		if dialed.Swap(true) {
			return nil, errors.New("injected fault: the worker process is gone")
		}
		return dial()
	}
}

// startFaultyWorkers launches n workers; the one at killWorker dies after
// reading killBytes and never redials. The doomed worker's error is always
// expected. With strict set, every other worker must exit cleanly — demand
// that only when the run is supposed to recover and finish; on an aborting
// run the coordinator tears the connections down with survivor writes
// still in flight, so survivor errors are part of the failure path.
func startFaultyWorkers(t *testing.T, n, killWorker int, killBytes int64, strict bool) (net.Listener, []net.Conn, *sync.WaitGroup) {
	t.Helper()
	l := listen(t)
	conns, wg := startWorkerLoops(t, l, n, func(i int) {
		if i == killWorker {
			kill := func(c net.Conn) net.Conn { return &killConn{Conn: c, remaining: killBytes} }
			_ = tcpnet.RunWorker(deadAfterFirst(l, kill), joinFactory, tcpnet.WithWorkerP2P("127.0.0.1:0"))
			return // dies by design
		}
		if err := tcpnet.RunWorker(dialer(l, nil), joinFactory, tcpnet.WithWorkerP2P("127.0.0.1:0")); err != nil && strict {
			t.Errorf("surviving worker %d: %v", i, err)
		}
	})
	return l, conns, wg
}

// TestDisconnectMidBuildFails: without a failure handler, a worker dying
// mid-build must surface from Drain as a descriptive error naming the
// worker — never a panic, never a bare timeout.
func TestDisconnectMidBuildFails(t *testing.T) {
	l, conns, wg := startFaultyWorkers(t, 2, 1, 64<<10, false)
	_, err := runCluster(t, distConfig(core.Split), l, conns, wg,
		cluster.Setup{Options: every(tcpnet.WithResumeWindow(100 * time.Millisecond))})
	if err == nil {
		t.Fatal("worker death mid-build must fail the run")
	}
	if !strings.Contains(err.Error(), "worker 1") {
		t.Errorf("error should name the failed worker: %v", err)
	}
	if strings.Contains(err.Error(), "timed out") {
		t.Errorf("death should be detected directly, not via drain timeout: %v", err)
	}
}

// hungConn is the worker end of a hung process: the worker bootstraps
// (writes go through) but never reads another byte until Close.
type hungConn struct {
	net.Conn
	closed chan struct{}
	once   sync.Once
}

func (h *hungConn) Read(p []byte) (int, error) {
	<-h.closed
	return 0, net.ErrClosed
}

func (h *hungConn) Close() error {
	h.once.Do(func() { close(h.closed) })
	return h.Conn.Close()
}

// startHungWorker runs a worker loop over a connection it never reads
// from, and that it never redials, and returns the coordinator's listener
// and its end of the connection. The worker is released at test cleanup.
func startHungWorker(t *testing.T) (net.Listener, net.Conn) {
	t.Helper()
	l := listen(t)
	hung := make(chan *hungConn, 1)
	wrap := func(c net.Conn) net.Conn {
		h := &hungConn{Conn: c, closed: make(chan struct{})}
		hung <- h
		return h
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = tcpnet.RunWorker(deadAfterFirst(l, wrap), joinFactory, tcpnet.WithWorkerP2P("127.0.0.1:0"))
	}()
	cconn, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	h := <-hung
	t.Cleanup(func() { h.Close(); <-done })
	return l, cconn
}

// TestHeartbeatDetectsHungWorker: a worker that stops reading without
// closing its connection is caught by the ping/pong heartbeat, not the
// drain timeout.
func TestHeartbeatDetectsHungWorker(t *testing.T) {
	l, cconn := startHungWorker(t)
	coord, err := tcpnet.NewCoordinator(nil, map[rt.NodeID]int{7: 0}, l, []net.Conn{cconn},
		tcpnet.WithResumeWindow(100*time.Millisecond),
		tcpnet.WithHeartbeat(20*time.Millisecond, 150*time.Millisecond),
		tcpnet.WithDrainTimeout(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	coord.Inject(7, core.NodeDeadMessage(7)) // any outstanding message
	err = coord.Drain()
	if err == nil {
		t.Fatal("hung worker must fail the drain")
	}
	if !strings.Contains(err.Error(), "heartbeat") || !strings.Contains(err.Error(), "worker 0") {
		t.Errorf("expected heartbeat failure naming worker 0, got: %v", err)
	}
}

// TestDrainTimeoutOption: with heartbeats disabled, the configurable drain
// timeout still bounds a stuck drain and reports per-worker counters.
func TestDrainTimeoutOption(t *testing.T) {
	l, cconn := startHungWorker(t)
	coord, err := tcpnet.NewCoordinator(nil, map[rt.NodeID]int{7: 0}, l, []net.Conn{cconn},
		tcpnet.WithHeartbeat(0, 0),
		tcpnet.WithDrainTimeout(150*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	coord.Inject(7, core.NodeDeadMessage(7))
	start := time.Now()
	err = coord.Drain()
	if err == nil {
		t.Fatal("stuck drain must time out")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("timeout took %v, want ~150ms", elapsed)
	}
	if !strings.Contains(err.Error(), "timed out") ||
		!strings.Contains(err.Error(), "delivered 1 processed 0") {
		t.Errorf("timeout should report per-worker counters, got: %v", err)
	}
}

// TestWorkerDeathRecoversOverTCP is the end-to-end tentpole check on the
// real transport: one of two worker processes dies mid-build, the failure
// handler feeds the deaths to the scheduler, and the recovery protocol
// re-streams the lost state — the run completes with the exact fault-free
// result on the survivor.
func TestWorkerDeathRecoversOverTCP(t *testing.T) {
	testWorkerDeathRecovers(t, 2)
}

// TestP2PWorkerDeathRecovers kills one of three workers mid-build: the
// coordinator must also tombstone the dead peer on both survivors
// (framePeerDown), and recovery must still be exact over the one peer link
// left between them.
func TestP2PWorkerDeathRecovers(t *testing.T) {
	testWorkerDeathRecovers(t, 3)
}

// testWorkerDeathRecovers runs the split join on `workers` workers, of
// which worker 1 dies after 100 KiB, and checks that recovery is exact.
func testWorkerDeathRecovers(t *testing.T, workers int) {
	t.Helper()
	cfg := distConfig(core.Split)
	want, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l, conns, wg := startFaultyWorkers(t, workers, 1, 100<<10, true)
	got, err := runCluster(t, cfg, l, conns, wg, cluster.Setup{
		Recover: true,
		Options: every(tcpnet.WithResumeWindow(100*time.Millisecond),
			tcpnet.WithHeartbeat(50*time.Millisecond, 500*time.Millisecond)),
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatalf("run with worker death did not recover: %v", err)
	}
	if got.NodesLost == 0 {
		t.Fatal("the doomed worker's nodes were never declared dead")
	}
	if got.Degraded {
		t.Fatalf("build-phase worker death should recover exactly, got degraded: %v", got)
	}
	if got.Matches != want.Matches || got.Checksum != want.Checksum {
		t.Errorf("recovered result %d/%#x, want %d/%#x",
			got.Matches, got.Checksum, want.Matches, want.Checksum)
	}
	if got.RestreamedChunks <= 0 {
		t.Errorf("recovery should re-stream chunks, got %d", got.RestreamedChunks)
	}
	if got.RecoverySec <= 0 {
		t.Errorf("RecoverySec = %v, want > 0", got.RecoverySec)
	}
}
