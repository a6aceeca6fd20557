package core_test

import (
	"net"
	"sync"
	"testing"

	"ehjoin/internal/core"
	rt "ehjoin/internal/runtime"
	"ehjoin/internal/tcpnet"
)

func init() { core.StartTCP = startTCP }

// startTCP runs cfg's join nodes on two tcpnet.RunWorker goroutines, join
// node i on worker i%2, each dialing the coordinator over loopback TCP and
// the two joined by a peer link: the shipped engine, in one process.
func startTCP(t *testing.T, cfg core.Config, wrap func(rt.NodeID, rt.Actor) rt.Actor) (rt.Engine, func()) {
	t.Helper()
	const workers = 2
	blob, err := core.EncodeConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ids, err := core.JoinNodeIDs(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dial := func() (net.Conn, error) { return net.Dial("tcp", l.Addr().String()) }
	factory := func(b []byte, id rt.NodeID) (rt.Actor, error) {
		c, err := core.DecodeConfig(b)
		if err != nil {
			return nil, err
		}
		a, err := core.NewJoinActor(c, id)
		if err != nil {
			return nil, err
		}
		return wrap(id, a), nil
	}
	// One worker at a time, so conns[i] is worker i's coordinator end.
	var wg sync.WaitGroup
	conns := make([]net.Conn, workers)
	for i := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := tcpnet.RunWorker(dial, factory, tcpnet.WithWorkerP2P("127.0.0.1:0")); err != nil {
				t.Errorf("worker %d: %v", i, err)
			}
		}()
		if conns[i], err = l.Accept(); err != nil {
			t.Fatal(err)
		}
	}
	assignment := make(map[rt.NodeID]int, len(ids))
	for i, id := range ids {
		assignment[id] = i % workers
	}
	coord, err := tcpnet.NewCoordinator(blob, assignment, l, conns)
	if err != nil {
		t.Fatal(err)
	}
	return coord, func() {
		coord.Close()
		wg.Wait()
	}
}
