package tcpnet_test

import (
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
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	var wg sync.WaitGroup
	conns := make([]net.Conn, n)
	factory := func(blob []byte, id rt.NodeID) (rt.Actor, error) {
		cfg, err := core.DecodeConfig(blob)
		if err != nil {
			return nil, err
		}
		return core.NewJoinActor(cfg, id)
	}
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
		go func(c net.Conn) {
			defer wg.Done()
			if err := tcpnet.RunWorker(c, factory); err != nil {
				t.Errorf("worker: %v", err)
			}
		}(wconn)
	}
	return conns, &wg
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
// out-of-core baseline under both policies, with all join nodes hosted on
// two TCP worker processes (in-process goroutines over real sockets) and
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

			blob, err := core.EncodeConfig(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ids, err := core.JoinNodeIDs(cfg)
			if err != nil {
				t.Fatal(err)
			}
			conns, wg := startWorkers(t, 2)
			assignment := make(map[rt.NodeID]int)
			for i, id := range ids {
				assignment[id] = i % 2
			}
			coord, err := tcpnet.NewCoordinator(blob, assignment, conns)
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

// TestDistributedSkewed exercises replication chains and reshuffling across
// process boundaries.
func TestDistributedSkewed(t *testing.T) {
	cfg := distConfig(core.Hybrid)
	cfg.Build = datagen.Spec{Dist: datagen.Gaussian, Mean: 0.5, Sigma: 0.0001, Tuples: 20_000, Seed: 910}
	cfg.Probe = datagen.Spec{Dist: datagen.Gaussian, Mean: 0.5, Sigma: 0.0001, Tuples: 20_000, Seed: 911}

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
	conns, wg := startWorkers(t, 3)
	assignment := make(map[rt.NodeID]int)
	for i, id := range ids {
		assignment[id] = i % 3
	}
	coord, err := tcpnet.NewCoordinator(blob, assignment, conns)
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
		t.Errorf("distributed result %d/%#x, want %d/%#x",
			got.Matches, got.Checksum, want.Matches, want.Checksum)
	}
}

// TestDistributedSpill runs the undersized spill scenario with the join
// nodes hosted on TCP workers: the spillOrder/spillAck handshake crosses the
// binary wire codec and the result must still match the simulator exactly.
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
			blob, err := core.EncodeConfig(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ids, err := core.JoinNodeIDs(cfg)
			if err != nil {
				t.Fatal(err)
			}
			conns, wg := startWorkers(t, 2)
			assignment := make(map[rt.NodeID]int)
			for i, id := range ids {
				assignment[id] = i % 2
			}
			coord, err := tcpnet.NewCoordinator(blob, assignment, conns)
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

// TestPartialAssignment keeps some join nodes in the coordinator process
// and some on a worker.
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
		if i%2 == 0 { // every other join node stays local
			assignment[id] = 0
		}
	}
	coord, err := tcpnet.NewCoordinator(blob, assignment, conns)
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
	if _, err := tcpnet.NewCoordinator(nil, map[rt.NodeID]int{5: 2}, nil); err == nil {
		t.Error("out-of-range worker index accepted")
	}
}

// TestDistributedMultiWayPipeline hosts every stage's join nodes of a
// three-way join pipeline on TCP workers and checks the result against the
// simulator.
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

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	factory := func(b []byte, id rt.NodeID) (rt.Actor, error) {
		m, err := core.DecodeMultiConfig(b)
		if err != nil {
			return nil, err
		}
		return core.NewMultiJoinActor(m, id)
	}
	const workers = 2
	var wg sync.WaitGroup
	conns := make([]net.Conn, workers)
	for i := 0; i < workers; i++ {
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
		go func(c net.Conn) {
			defer wg.Done()
			if err := tcpnet.RunWorker(c, factory); err != nil {
				t.Errorf("worker: %v", err)
			}
		}(wconn)
	}
	assignment := make(map[rt.NodeID]int)
	for i, id := range ids {
		assignment[id] = i % workers
	}
	coord, err := tcpnet.NewCoordinator(blob, assignment, conns)
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
}
