package tcpnet_test

// The differential checks of tcpnet_test.go and heavy_test.go on a
// three-worker peer mesh: every worker holds two peer links, so a chunk's
// sender, its receiver and the coordinator are three different processes.
// The two-worker variants there have a single peer link. Every run asserts
// the coordinator relayed no worker→worker message (runDistJoin).

import (
	"testing"

	"ehjoin/internal/core"
	"ehjoin/internal/datagen"
	rt "ehjoin/internal/runtime"
	"ehjoin/internal/tcpnet"
)

// TestP2PJoinMatchesSimulator runs every algorithm with the join nodes
// spread over three workers and compares the result with the simulator's.
func TestP2PJoinMatchesSimulator(t *testing.T) {
	for _, alg := range core.Algorithms() {
		t.Run(alg.String(), func(t *testing.T) {
			cfg := distConfig(alg)
			want, err := core.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := runDistJoin(t, cfg, 3)
			if got.Matches != want.Matches || got.Checksum != want.Checksum {
				t.Errorf("three-worker result %d/%#x, want %d/%#x",
					got.Matches, got.Checksum, want.Matches, want.Checksum)
			}
		})
	}
}

// TestP2PSkewed exercises replication chains and reshuffling — the
// heaviest worker↔worker flows — over the three-worker mesh.
func TestP2PSkewed(t *testing.T) {
	cfg := distConfig(core.Hybrid)
	cfg.Build = datagen.Spec{Dist: datagen.Gaussian, Mean: 0.5, Sigma: 0.0001, Tuples: 20_000, Seed: 910}
	cfg.Probe = datagen.Spec{Dist: datagen.Gaussian, Mean: 0.5, Sigma: 0.0001, Tuples: 20_000, Seed: 911}
	want, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := runDistJoin(t, cfg, 3)
	if got.Matches != want.Matches || got.Checksum != want.Checksum {
		t.Errorf("three-worker skewed result %d/%#x, want %d/%#x",
			got.Matches, got.Checksum, want.Matches, want.Checksum)
	}
}

// TestP2PSpill crosses the spillOrder/spillAck control handshake with
// chunk migration between three workers, one join node each at the cap.
func TestP2PSpill(t *testing.T) {
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
			got := runDistJoin(t, cfg, 3)
			if got.Matches != want.Matches || got.Checksum != want.Checksum {
				t.Errorf("three-worker spill result %d/%#x, want %d/%#x",
					got.Matches, got.Checksum, want.Matches, want.Checksum)
			}
			if got.SpilledPartitions == 0 || got.ExhaustedResources {
				t.Errorf("three-worker spill state wrong: partitions=%d exhausted=%v",
					got.SpilledPartitions, got.ExhaustedResources)
			}
		})
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
	conns, wg := startWorkers(t, 2)
	assignment := make(map[rt.NodeID]int)
	for i, id := range ids {
		if i%3 != 2 { // every third join node stays coordinator-local
			assignment[id] = i % 2
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

// TestP2PMultiWayPipeline hosts the three-way join pipeline on three
// workers, so stage-to-stage handoffs cross every peer link.
func TestP2PMultiWayPipeline(t *testing.T) {
	runMultiWayPipeline(t, 3)
}

// TestP2PHeavy runs the heavy path on three workers.
func TestP2PHeavy(t *testing.T) {
	testHeavy(t, 3)
}
