package tcpnet_test

import (
	"net"
	"sync"
	"testing"
	"time"

	"ehjoin/internal/core"
	"ehjoin/internal/datagen"
	rt "ehjoin/internal/runtime"
	"ehjoin/internal/tcpnet"
	"ehjoin/internal/tuple"
)

// The pipeline benchmarks run a five-way join pipeline across four
// workers: stage-to-stage chunk handoff is worker↔worker traffic, which
// the peer-to-peer data plane ships over direct links. Two groups:
//
//   - BenchmarkP2PPipelineThroughput: bare loopback, the plumbing cost of
//     the transport.
//
//   - BenchmarkP2PPipelineNIC: every node's network interface is emulated
//     with a shared token bucket (nicRate bytes/sec across all of that
//     node's connections, both directions — the paper's environment, where
//     per-node NIC bandwidth is the binding constraint). Worker↔worker
//     bytes cross only the two workers' own NICs, never the coordinator's.
func benchPipelineConfig() (core.MultiConfig, int64) {
	// Five stages: every stage boundary is a worker↔worker handoff. Source
	// distribution crosses the coordinator's NIC — sources are
	// coordinator-resident.
	lay := tuple.DefaultLayout() // the paper's 100-byte tuples
	mc := core.MultiConfig{
		Algorithm:    core.Hybrid,
		InitialNodes: 4,
		MaxNodes:     8,
		Sources:      2,
		MemoryBudget: 256 << 20,
		ChunkTuples:  2_000,
		Relations: []core.StageRelation{
			{Spec: datagen.Spec{Dist: datagen.Uniform, Tuples: 100_000, Seed: 821, Layout: lay}},
			{Spec: datagen.Spec{Dist: datagen.Uniform, Tuples: 100_000, Seed: 822, Layout: lay}, MatchFraction: 1.0},
			{Spec: datagen.Spec{Dist: datagen.Uniform, Tuples: 100_000, Seed: 823, Layout: lay}, MatchFraction: 1.0},
			{Spec: datagen.Spec{Dist: datagen.Uniform, Tuples: 100_000, Seed: 824, Layout: lay}, MatchFraction: 1.0},
			{Spec: datagen.Spec{Dist: datagen.Uniform, Tuples: 100_000, Seed: 825, Layout: lay}, MatchFraction: 1.0},
		},
	}
	var tuples int64
	for _, rel := range mc.Relations {
		tuples += rel.Spec.Tuples
	}
	return mc, tuples
}

// nicRate models a ~128 Mbit/s per-node network interface, the class of
// LAN the paper's clusters ran on.
const nicRate = 16 << 20 // bytes/sec

// nic is one emulated network interface: a token bucket shared by every
// connection (and both directions) of one node. reserve blocks until the
// interface has transmitted n bytes at nicRate, serializing concurrent
// links through the one interface exactly as a single NIC would.
type nic struct {
	mu   sync.Mutex
	next time.Time
}

func (n *nic) reserve(bytes int) {
	d := time.Duration(float64(bytes) / float64(nicRate) * float64(time.Second))
	n.mu.Lock()
	now := time.Now()
	if n.next.Before(now) {
		n.next = now
	}
	wait := n.next.Sub(now)
	n.next = n.next.Add(d)
	n.mu.Unlock()
	if wait > 0 {
		time.Sleep(wait)
	}
}

// nicConn charges every byte read or written to the owning node's NIC.
type nicConn struct {
	net.Conn
	nic *nic
}

func (c *nicConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.nic.reserve(n)
	}
	return n, err
}

func (c *nicConn) Write(p []byte) (int, error) {
	c.nic.reserve(len(p))
	return c.Conn.Write(p)
}

// runBenchPipeline runs one full cluster lifecycle and returns the
// coordinator's transport stats. With shaped=true, the coordinator's NIC is
// shared across its four links, and each worker's NIC is shared between its
// coordinator link and the peer links it dials. (Accepted peer conns are
// charged to the dialing end only.)
func runBenchPipeline(b *testing.B, mc core.MultiConfig, blob []byte, ids []rt.NodeID, shaped bool) rt.TransportStats {
	b.Helper()
	factory := func(blob []byte, id rt.NodeID) (rt.Actor, error) {
		m, err := core.DecodeMultiConfig(blob)
		if err != nil {
			return nil, err
		}
		return core.NewMultiJoinActor(m, id)
	}
	const workers = 4
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	hub := &nic{}
	var wg sync.WaitGroup
	conns := make([]net.Conn, workers)
	for j := 0; j < workers; j++ {
		wconn, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			b.Fatal(err)
		}
		cconn, err := l.Accept()
		if err != nil {
			b.Fatal(err)
		}
		conns[j] = cconn
		opts := []tcpnet.WorkerOption{tcpnet.WithWorkerP2P("127.0.0.1:0")}
		if shaped {
			wnic := &nic{}
			conns[j] = &nicConn{Conn: cconn, nic: hub}
			wconn = &nicConn{Conn: wconn, nic: wnic}
			opts = append(opts, tcpnet.WithWorkerPeerChaos(func(c net.Conn) net.Conn {
				return &nicConn{Conn: c, nic: wnic}
			}))
		}
		wg.Add(1)
		go func(c net.Conn) {
			defer wg.Done()
			if err := tcpnet.RunWorker(c, factory, opts...); err != nil {
				b.Errorf("worker: %v", err)
			}
		}(wconn)
	}
	l.Close()
	assignment := make(map[rt.NodeID]int)
	for j, id := range ids {
		assignment[id] = j % workers
	}
	coord, err := tcpnet.NewCoordinator(blob, assignment, conns)
	if err != nil {
		b.Fatal(err)
	}
	res, err := core.ExecuteMulti(mc, coord)
	ts := coord.TransportStats()
	coord.Close()
	wg.Wait()
	if err != nil {
		b.Fatal(err)
	}
	if res.Matches == 0 {
		b.Fatal("pipeline produced no matches")
	}
	return ts
}

func benchPipeline(b *testing.B, shaped bool) {
	mc, tuples := benchPipelineConfig()
	blob, err := core.EncodeMultiConfig(mc)
	if err != nil {
		b.Fatal(err)
	}
	ids, err := core.MultiJoinNodeIDs(mc)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if ts := runBenchPipeline(b, mc, blob, ids, shaped); ts.RelayedMessages != 0 {
			b.Fatalf("pipeline relayed %d msgs through the coordinator, want 0", ts.RelayedMessages)
		}
	}
	b.ReportMetric(float64(tuples)*float64(b.N)/b.Elapsed().Seconds(), "tuples/sec")
}

func BenchmarkP2PPipelineThroughput(b *testing.B) { benchPipeline(b, false) }

func BenchmarkP2PPipelineNIC(b *testing.B) { benchPipeline(b, true) }
