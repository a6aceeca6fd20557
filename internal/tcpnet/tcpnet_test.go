package tcpnet_test

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"

	"ehjoin/internal/cluster"
	"ehjoin/internal/core"
	"ehjoin/internal/datagen"
	rt "ehjoin/internal/runtime"
	"ehjoin/internal/spill"
	"ehjoin/internal/tcpnet"
)

// listen opens the coordinator's listener on a loopback port. The
// coordinator takes it over and closes it; the cleanup is a safety net.
func listen(t testing.TB) net.Listener {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

// dialer returns a worker dial function for l's address that interposes
// wrap, if any, on every connection.
func dialer(l net.Listener, wrap func(net.Conn) net.Conn) func() (net.Conn, error) {
	return func() (net.Conn, error) {
		c, err := net.Dial("tcp", l.Addr().String())
		if err == nil && wrap != nil {
			c = wrap(c)
		}
		return c, err
	}
}

// startWorkerLoops runs run(i), a RunWorker that dials l, on a goroutine
// per worker, one worker at a time: worker i's connection is accepted
// before worker i+1 starts, so conns[i] is worker i's coordinator end.
func startWorkerLoops(t testing.TB, l net.Listener, n int, run func(i int)) ([]net.Conn, *sync.WaitGroup) {
	t.Helper()
	var wg sync.WaitGroup
	conns := make([]net.Conn, n)
	for i := range conns {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			run(i)
		}(i)
		c, err := l.Accept()
		if err != nil {
			t.Fatal(err)
		}
		conns[i] = c
	}
	return conns, &wg
}

// joinFactory is the worker factory every worker loop runs unless a test
// needs another: joind's, spilling allowed.
var joinFactory = cluster.Factory(false)

// startWorkers launches n worker loops over real localhost TCP connections
// and returns the coordinator's listener and its side of each connection.
func startWorkers(t testing.TB, n int) (net.Listener, []net.Conn, *sync.WaitGroup) {
	return startWorkersWith(t, n, joinFactory)
}

// startWorkersWith is startWorkers with a caller-chosen actor factory.
func startWorkersWith(t testing.TB, n int, factory tcpnet.ActorFactory) (net.Listener, []net.Conn, *sync.WaitGroup) {
	t.Helper()
	l := listen(t)
	conns, wg := startWorkerLoops(t, l, n, func(i int) {
		if err := tcpnet.RunWorker(dialer(l, nil), factory, tcpnet.WithWorkerP2P("127.0.0.1:0")); err != nil {
			t.Errorf("worker %d: %v", i, err)
		}
	})
	return l, conns, wg
}

// runCluster runs cfg to its end on a cluster over the worker
// connections accepted from l, then closes it and waits for the worker
// loops.
func runCluster(t testing.TB, cfg core.Config, l net.Listener, conns []net.Conn, wg *sync.WaitGroup, s cluster.Setup) (*core.Report, error) {
	t.Helper()
	cl, err := cluster.Start(cfg, l, conns, s)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cl.Run()
	cl.Close()
	wg.Wait()
	return got, err
}

// every gives each coordinator incarnation the same options.
func every(opts ...tcpnet.Option) func(int) []tcpnet.Option {
	return func(int) []tcpnet.Option { return opts }
}

// runDistJoin executes cfg across `workers` worker loops and returns the
// report; the result comparison is the caller's.
func runDistJoin(t *testing.T, cfg core.Config, workers int) *core.Report {
	t.Helper()
	l, conns, wg := startWorkers(t, workers)
	got, err := runCluster(t, cfg, l, conns, wg, cluster.Setup{})
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// meshes runs f once per worker count the differentials cover: two
// workers share a single peer link; three make a mesh in which a chunk's
// sender, its receiver and the coordinator are three different processes.
// A worker→worker message sent through the coordinator fails either run
// (ErrMisrouted).
func meshes(t *testing.T, f func(t *testing.T, workers int)) {
	for _, workers := range []int{2, 3} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) { f(t, workers) })
	}
}

func distConfig(alg core.Algorithm) core.Config {
	return core.Config{
		Algorithm:     alg,
		InitialNodes:  2,
		MaxNodes:      8,
		Sources:       2,
		MemoryBudget:  400 << 10,
		ChunkTuples:   500,
		Build:         datagen.Spec{Dist: datagen.Uniform, Tuples: 20_000, Seed: 900},
		Probe:         datagen.Spec{Dist: datagen.Uniform, Tuples: 20_000, Seed: 901},
		MatchFraction: 1.0,
	}
}

// TestDistributedJoinMatchesSimulator runs every algorithm, and the
// out-of-core baseline under both policies, with all join nodes spread
// over TCP worker processes (in-process goroutines over real sockets) and
// compares the join result with the simulator's.
func TestDistributedJoinMatchesSimulator(t *testing.T) {
	var cfgs []core.Config
	for _, alg := range core.Algorithms() {
		cfgs = append(cfgs, distConfig(alg))
	}
	hybridHash := distConfig(core.OutOfCore)
	hybridHash.OOCPolicy = spill.HybridHash
	for _, cfg := range append(cfgs, hybridHash) {
		name := cfg.Algorithm.String()
		if cfg.OOCPolicy == spill.HybridHash {
			name += "-hybrid-hash"
		}
		t.Run(name, func(t *testing.T) {
			want, err := core.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			meshes(t, func(t *testing.T, workers int) {
				got := runDistJoin(t, cfg, workers)
				if got.Matches != want.Matches || got.Checksum != want.Checksum {
					t.Errorf("distributed result %d/%#x, want %d/%#x",
						got.Matches, got.Checksum, want.Matches, want.Checksum)
				}
				if got.FinalNodes != want.FinalNodes {
					t.Logf("final nodes differ (timing-dependent): %d vs %d", got.FinalNodes, want.FinalNodes)
				}
				if cfg.Algorithm == core.OutOfCore && got.SpillWrittenBytes == 0 {
					t.Error("the out-of-core run never spilled: the case is vacuous")
				}
			})
		})
	}
}

// TestDistributedSkewed exercises replication chains and reshuffling — the
// heaviest worker↔worker flows — under extreme skew, every algorithm.
func TestDistributedSkewed(t *testing.T) {
	for _, alg := range core.Algorithms() {
		t.Run(alg.String(), func(t *testing.T) {
			cfg := distConfig(alg)
			cfg.Build = datagen.Spec{Dist: datagen.Gaussian, Mean: 0.5, Sigma: 0.0001, Tuples: 20_000, Seed: 910}
			cfg.Probe = datagen.Spec{Dist: datagen.Gaussian, Mean: 0.5, Sigma: 0.0001, Tuples: 20_000, Seed: 911}
			want, err := core.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			meshes(t, func(t *testing.T, workers int) {
				got := runDistJoin(t, cfg, workers)
				if got.Matches != want.Matches || got.Checksum != want.Checksum {
					t.Errorf("distributed skewed result %d/%#x, want %d/%#x",
						got.Matches, got.Checksum, want.Matches, want.Checksum)
				}
			})
		})
	}
}

// TestDistributedSpill runs the undersized spill scenario with the join
// nodes hosted on TCP workers: the spillOrder/spillAck handshake crosses the
// coordinator links and the binary wire codec, chunk migration the peer
// links, and the result must still match the simulator exactly.
func TestDistributedSpill(t *testing.T) {
	for _, alg := range []core.Algorithm{core.Split, core.Replication, core.Hybrid} {
		t.Run(alg.String(), func(t *testing.T) {
			cfg := distConfig(alg)
			cfg.MaxNodes = 3
			cfg.SpillEnabled = true
			want, err := core.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if want.SpilledPartitions == 0 {
				t.Fatal("scenario did not engage the spill rung")
			}
			meshes(t, func(t *testing.T, workers int) {
				got := runDistJoin(t, cfg, workers)
				if got.Matches != want.Matches || got.Checksum != want.Checksum {
					t.Errorf("distributed spill result %d/%#x, want %d/%#x",
						got.Matches, got.Checksum, want.Matches, want.Checksum)
				}
				if got.SpilledPartitions == 0 || got.ExhaustedResources {
					t.Errorf("distributed spill state wrong: partitions=%d exhausted=%v",
						got.SpilledPartitions, got.ExhaustedResources)
				}
			})
		})
	}
}

// TestDistributedNoSpillWorkers runs the spill scenario on workers built
// by joind -no-spill's factory: every spill order is declined, and the
// run still lands on the simulator's result (the budget is modelled, not
// enforced) with nothing spilled.
func TestDistributedNoSpillWorkers(t *testing.T) {
	cfg := distConfig(core.Split)
	cfg.MaxNodes = 3
	cfg.SpillEnabled = true
	want, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l, conns, wg := startWorkersWith(t, 2, cluster.Factory(true))
	got, err := runCluster(t, cfg, l, conns, wg, cluster.Setup{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Matches != want.Matches || got.Checksum != want.Checksum {
		t.Errorf("no-spill result %d/%#x, want %d/%#x", got.Matches, got.Checksum, want.Matches, want.Checksum)
	}
	if got.SpilledPartitions != 0 || got.SpillWrittenBytes != 0 {
		t.Errorf("no-spill workers spilled %d partition(s), %d bytes", got.SpilledPartitions, got.SpillWrittenBytes)
	}
}

// TestDistributedProbeExpansion materialises every match, so output
// volume overflows the nodes during the probe phase: the probe-phase
// expansion runs over the worker links and the result, the expansion count
// and the output bytes must match the simulator's.
func TestDistributedProbeExpansion(t *testing.T) {
	for _, alg := range []core.Algorithm{core.Split, core.Replication, core.Hybrid} {
		t.Run(alg.String(), func(t *testing.T) {
			cfg := core.Config{
				Algorithm:         alg,
				InitialNodes:      2,
				MaxNodes:          12,
				Sources:           4,
				MemoryBudget:      2 << 20,
				ChunkTuples:       1000,
				Build:             datagen.Spec{Dist: datagen.Uniform, Tuples: 30_000, Seed: 601},
				Probe:             datagen.Spec{Dist: datagen.Uniform, Tuples: 60_000, Seed: 602},
				MatchFraction:     1.0,
				MaterializeOutput: true,
			}
			want, err := core.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if want.ProbeExpansions == 0 {
				t.Fatal("scenario triggered no probe expansions in the simulator")
			}
			meshes(t, func(t *testing.T, workers int) {
				got := runDistJoin(t, cfg, workers)
				if got.Matches != want.Matches || got.Checksum != want.Checksum {
					t.Errorf("distributed probe-expansion result %d/%#x, want %d/%#x",
						got.Matches, got.Checksum, want.Matches, want.Checksum)
				}
				if got.ProbeExpansions == 0 {
					t.Error("output pressure triggered no probe expansions over TCP")
				}
				if got.OutputBytes != want.OutputBytes {
					t.Errorf("output bytes %d, simulator %d", got.OutputBytes, want.OutputBytes)
				}
			})
		})
	}
}

// TestPartialAssignment mixes join nodes on a single worker with
// coordinator-local ones: every cross-process message uses the coordinator
// link, which is direct delivery, not a relay. TestP2PPartialAssignment
// adds a second worker and so the peer links.
func TestPartialAssignment(t *testing.T) {
	cfg := distConfig(core.Split)
	want, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := core.EncodeConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ids, err := core.JoinNodeIDs(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l, conns, wg := startWorkers(t, 1)
	assignment := make(map[rt.NodeID]int)
	for i, id := range ids {
		if i%3 != 2 { // every third join node stays coordinator-local
			assignment[id] = 0
		}
	}
	coord, err := tcpnet.NewCoordinator(blob, assignment, l, conns)
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.Execute(cfg, coord)
	coord.Close()
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if got.Matches != want.Matches || got.Checksum != want.Checksum {
		t.Errorf("partial-assignment result %d/%#x, want %d/%#x",
			got.Matches, got.Checksum, want.Matches, want.Checksum)
	}
}

// TestP2PPartialAssignment mixes two workers with coordinator-local join
// nodes: worker↔worker traffic must take the peer link while
// worker↔local traffic uses the coordinator link (direct delivery, not a
// relay).
func TestP2PPartialAssignment(t *testing.T) {
	cfg := distConfig(core.Split)
	want, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := core.EncodeConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ids, err := core.JoinNodeIDs(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l, conns, wg := startWorkers(t, 2)
	assignment := make(map[rt.NodeID]int)
	for i, id := range ids {
		if i%3 != 2 { // every third join node stays coordinator-local
			assignment[id] = i % 2
		}
	}
	coord, err := tcpnet.NewCoordinator(blob, assignment, l, conns)
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.Execute(cfg, coord)
	coord.Close()
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if got.Matches != want.Matches || got.Checksum != want.Checksum {
		t.Errorf("partial-assignment result %d/%#x, want %d/%#x",
			got.Matches, got.Checksum, want.Matches, want.Checksum)
	}
}

func TestBadAssignmentRejected(t *testing.T) {
	conns := make([]net.Conn, 1) // never touched: the assignment is checked first
	if _, err := tcpnet.NewCoordinator(nil, map[rt.NodeID]int{5: 2}, listen(t), conns); err == nil {
		t.Error("out-of-range worker index accepted")
	}
}

// TestWorkerCountRejected pins the bounds NewCoordinator enforces before it
// touches a connection: at least one worker, at most MaxWorkers. A
// rejected call has closed the listener it was handed.
func TestWorkerCountRejected(t *testing.T) {
	l := listen(t)
	if _, err := tcpnet.NewCoordinator(nil, map[rt.NodeID]int{}, l, nil); !errors.Is(err, tcpnet.ErrNoWorkers) {
		t.Errorf("zero workers: got %v, want ErrNoWorkers", err)
	}
	if err := l.Close(); !errors.Is(err, net.ErrClosed) {
		t.Errorf("listener after a rejected NewCoordinator: Close = %v, want net.ErrClosed", err)
	}
	if _, err := tcpnet.NewCoordinator(nil, map[rt.NodeID]int{}, listen(t), make([]net.Conn, tcpnet.MaxWorkers+1)); err == nil {
		t.Errorf("%d workers accepted, want at most %d", tcpnet.MaxWorkers+1, tcpnet.MaxWorkers)
	}
}

// TestDistributedMultiWayPipeline hosts a three-way join pipeline on TCP
// workers and checks the result against the simulator: the stage-to-stage
// chunk handoff is pure worker↔worker traffic.
func TestDistributedMultiWayPipeline(t *testing.T) {
	mc := core.MultiConfig{
		Algorithm:    core.Hybrid,
		InitialNodes: 2,
		MaxNodes:     6,
		Sources:      2,
		MemoryBudget: 300 << 10,
		ChunkTuples:  500,
		Relations: []core.StageRelation{
			{Spec: datagen.Spec{Dist: datagen.Uniform, Tuples: 15_000, Seed: 801}},
			{Spec: datagen.Spec{Dist: datagen.Uniform, Tuples: 15_000, Seed: 802}, MatchFraction: 0.9},
			{Spec: datagen.Spec{Dist: datagen.Uniform, Tuples: 15_000, Seed: 803}, MatchFraction: 0.9},
		},
	}
	want, err := core.RunMulti(mc)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := core.EncodeMultiConfig(mc)
	if err != nil {
		t.Fatal(err)
	}
	ids, err := core.MultiJoinNodeIDs(mc)
	if err != nil {
		t.Fatal(err)
	}
	factory := func(b []byte, id rt.NodeID) (rt.Actor, error) {
		m, err := core.DecodeMultiConfig(b)
		if err != nil {
			return nil, err
		}
		return core.NewMultiJoinActor(m, id)
	}
	meshes(t, func(t *testing.T, workers int) {
		l, conns, wg := startWorkersWith(t, workers, factory)
		assignment := make(map[rt.NodeID]int)
		for i, id := range ids {
			assignment[id] = i % workers
		}
		coord, err := tcpnet.NewCoordinator(blob, assignment, l, conns)
		if err != nil {
			t.Fatal(err)
		}
		got, err := core.ExecuteMulti(mc, coord)
		coord.Close()
		wg.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if got.Matches != want.Matches || got.Checksum != want.Checksum {
			t.Errorf("distributed pipeline %d/%#x, want %d/%#x",
				got.Matches, got.Checksum, want.Matches, want.Checksum)
		}
	})
}
