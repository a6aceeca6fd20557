package core_test

import (
	"net"
	"testing"

	"ehjoin/internal/cluster"
	"ehjoin/internal/core"
	rt "ehjoin/internal/runtime"
	"ehjoin/internal/tcpnet"
)

func init() { core.StartTCP = startTCP }

// startTCP runs cfg's join nodes on two tcpnet.RunWorker goroutines, each
// dialing the coordinator over loopback TCP and the two joined by a peer
// link, placed by cluster.Start: the shipped engine, in one process.
func startTCP(t *testing.T, cfg core.Config, wrap func(rt.NodeID, rt.Actor) rt.Actor) (rt.Engine, func()) {
	t.Helper()
	const workers = 2
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dial := func() (net.Conn, error) { return net.Dial("tcp", l.Addr().String()) }
	build := cluster.Factory(false)
	factory := func(b []byte, id rt.NodeID) (rt.Actor, error) {
		a, err := build(b, id)
		if err != nil {
			return nil, err
		}
		return wrap(id, a), nil
	}
	ws, conns, err := cluster.Go(l, workers, func(i int) error {
		if err := tcpnet.RunWorker(dial, factory, tcpnet.WithWorkerP2P("127.0.0.1:0")); err != nil {
			t.Errorf("worker %d: %v", i, err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.Start(cfg, l, conns, cluster.Setup{})
	if err != nil {
		t.Fatal(err)
	}
	return cl.Coordinator(), func() {
		cl.Close()
		ws.Reap(false)
	}
}
