package tcpnet_test

import (
	"errors"
	"net"
	"sync"
	"testing"

	"ehjoin/internal/core"
	"ehjoin/internal/datagen"
	rt "ehjoin/internal/runtime"
	"ehjoin/internal/spill"
	"ehjoin/internal/tcpnet"
)

// startWorkers launches n worker loops over real localhost TCP connections
// and returns the coordinator-side conns.
func startWorkers(t testing.TB, n int) ([]net.Conn, *sync.WaitGroup) {
	return startWorkersWith(t, n, joinFactory)
}

// startWorkersWith is startWorkers with a caller-chosen actor factory.
func startWorkersWith(t testing.TB, n int, factory tcpnet.ActorFactory) ([]net.Conn, *sync.WaitGroup) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	var wg sync.WaitGroup
	conns := make([]net.Conn, n)
	for i := 0; i < n; i++ {
		wconn, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		cconn, err := l.Accept()
		if err != nil {
			t.Fatal(err)
		}
		conns[i] = cconn
		wg.Add(1)
		go func(i int, c net.Conn) {
			defer wg.Done()
			if err := tcpnet.RunWorker(c, factory, tcpnet.WithWorkerP2P("127.0.0.1:0")); err != nil {
				t.Errorf("worker %d: %v", i, err)
			}
		}(i, wconn)
	}
	return conns, &wg
}

// assertNoRelay pins the data plane's reason to exist: no worker→worker
// message may pass through the coordinator.
func assertNoRelay(t *testing.T, ts rt.TransportStats) {
	t.Helper()
	if ts.RelayedMessages != 0 || ts.RelayedBytes != 0 {
		t.Errorf("run relayed %d msgs (%d bytes) through the coordinator, want 0",
			ts.RelayedMessages, ts.RelayedBytes)
	}
}

// runDistJoin executes cfg across `workers` worker loops with join node i
// on worker i%workers, asserts nothing relayed through the coordinator,
// and returns the report; the result comparison is the caller's.
func runDistJoin(t *testing.T, cfg core.Config, workers int) *core.Report {
	t.Helper()
	blob, err := core.EncodeConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ids, err := core.JoinNodeIDs(cfg)
	if err != nil {
		t.Fatal(err)
	}
	conns, wg := startWorkers(t, workers)
	assignment := make(map[rt.NodeID]int)
	for i, id := range ids {
		assignment[id] = i % workers
	}
	coord, err := tcpnet.NewCoordinator(blob, assignment, conns)
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.Execute(cfg, coord)
	ts := coord.TransportStats()
	coord.Close()
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	assertNoRelay(t, ts)
	return got
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
// over two TCP worker processes (in-process goroutines over real sockets,
// one peer link between them) and compares the join result with the
// simulator's. TestP2PJoinMatchesSimulator covers the three-worker mesh.
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
			got := runDistJoin(t, cfg, 2)
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
	}
}

// TestDistributedSkewed exercises replication chains and reshuffling — the
// heaviest worker↔worker flows — across two worker processes.
func TestDistributedSkewed(t *testing.T) {
	cfg := distConfig(core.Hybrid)
	cfg.Build = datagen.Spec{Dist: datagen.Gaussian, Mean: 0.5, Sigma: 0.0001, Tuples: 20_000, Seed: 910}
	cfg.Probe = datagen.Spec{Dist: datagen.Gaussian, Mean: 0.5, Sigma: 0.0001, Tuples: 20_000, Seed: 911}
	want, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := runDistJoin(t, cfg, 2)
	if got.Matches != want.Matches || got.Checksum != want.Checksum {
		t.Errorf("distributed result %d/%#x, want %d/%#x",
			got.Matches, got.Checksum, want.Matches, want.Checksum)
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
			got := runDistJoin(t, cfg, 2)
			if got.Matches != want.Matches || got.Checksum != want.Checksum {
				t.Errorf("distributed spill result %d/%#x, want %d/%#x",
					got.Matches, got.Checksum, want.Matches, want.Checksum)
			}
			if got.SpilledPartitions == 0 || got.ExhaustedResources {
				t.Errorf("distributed spill state wrong: partitions=%d exhausted=%v",
					got.SpilledPartitions, got.ExhaustedResources)
			}
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
	conns, wg := startWorkers(t, 1)
	assignment := make(map[rt.NodeID]int)
	for i, id := range ids {
		if i%3 != 2 { // every third join node stays coordinator-local
			assignment[id] = 0
		}
	}
	coord, err := tcpnet.NewCoordinator(blob, assignment, conns)
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.Execute(cfg, coord)
	ts := coord.TransportStats()
	coord.Close()
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if got.Matches != want.Matches || got.Checksum != want.Checksum {
		t.Errorf("partial-assignment result %d/%#x, want %d/%#x",
			got.Matches, got.Checksum, want.Matches, want.Checksum)
	}
	assertNoRelay(t, ts)
}

func TestBadAssignmentRejected(t *testing.T) {
	conns := make([]net.Conn, 1) // never touched: the assignment is checked first
	if _, err := tcpnet.NewCoordinator(nil, map[rt.NodeID]int{5: 2}, conns); err == nil {
		t.Error("out-of-range worker index accepted")
	}
}

// TestWorkerCountRejected pins the bounds NewCoordinator enforces before it
// touches a connection: at least one worker, at most MaxWorkers.
func TestWorkerCountRejected(t *testing.T) {
	if _, err := tcpnet.NewCoordinator(nil, map[rt.NodeID]int{}, nil); !errors.Is(err, tcpnet.ErrNoWorkers) {
		t.Errorf("zero workers: got %v, want ErrNoWorkers", err)
	}
	if _, err := tcpnet.NewCoordinator(nil, map[rt.NodeID]int{}, make([]net.Conn, tcpnet.MaxWorkers+1)); err == nil {
		t.Errorf("%d workers accepted, want at most %d", tcpnet.MaxWorkers+1, tcpnet.MaxWorkers)
	}
}

// TestDistributedMultiWayPipeline hosts a three-way join pipeline on
// two TCP workers and checks the result against the simulator: the
// stage-to-stage chunk handoff is pure worker↔worker traffic.
func TestDistributedMultiWayPipeline(t *testing.T) {
	runMultiWayPipeline(t, 2)
}

// runMultiWayPipeline runs the three-way pipeline on `workers` TCP workers
// and checks it against the simulator and for zero relayed messages.
func runMultiWayPipeline(t *testing.T, workers int) {
	t.Helper()
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
	conns, wg := startWorkersWith(t, workers, func(b []byte, id rt.NodeID) (rt.Actor, error) {
		m, err := core.DecodeMultiConfig(b)
		if err != nil {
			return nil, err
		}
		return core.NewMultiJoinActor(m, id)
	})
	assignment := make(map[rt.NodeID]int)
	for i, id := range ids {
		assignment[id] = i % workers
	}
	coord, err := tcpnet.NewCoordinator(blob, assignment, conns)
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.ExecuteMulti(mc, coord)
	ts := coord.TransportStats()
	coord.Close()
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if got.Matches != want.Matches || got.Checksum != want.Checksum {
		t.Errorf("distributed pipeline %d/%#x, want %d/%#x",
			got.Matches, got.Checksum, want.Matches, want.Checksum)
	}
	// MultiReport carries no transport stats; the coordinator's own are
	// the ones to check.
	assertNoRelay(t, ts)
}
