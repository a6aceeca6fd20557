package tcpnet_test

// Heavy-hitter routing over the real transport: the detection handshake
// (detectHeavy/keyCountReq/keyCountResp) rides the coordinator links while
// heavyAssign and the heavyClone replication chunks cross the binary wire
// codec and the direct worker↔worker links. The join result must stay
// bit-identical to the simulator's.

import (
	"testing"
	"time"

	"ehjoin/internal/cluster"
	"ehjoin/internal/core"
	"ehjoin/internal/datagen"
	"ehjoin/internal/hashfn"
	"ehjoin/internal/tcpnet"
	"ehjoin/internal/tuple"
)

// heavyDistConfig is distConfig under skew: Zipf build, fully correlated
// probe stream, heavy routing armed.
func heavyDistConfig(alg core.Algorithm) core.Config {
	cfg := distConfig(alg)
	cfg.Build = datagen.Spec{Dist: datagen.Zipf, ZipfS: 1.5, Tuples: 20_000, Seed: 900}
	cfg.Probe = datagen.Spec{Dist: datagen.Correlated, Tuples: 20_000, Seed: 901}
	cfg.HeavyThreshold = 0.02
	return cfg
}

// TestDistributedHeavy runs the heavy path for each adaptive algorithm
// with all join nodes hosted on TCP workers: heavyClone replication chunks
// are worker↔worker chunk traffic, so they must ride the peer links: one
// sent through the coordinator fails the run. The heavy-key set is
// content-determined, so it must match the simulator's too.
func TestDistributedHeavy(t *testing.T) {
	for _, alg := range []core.Algorithm{core.Split, core.Replication, core.Hybrid} {
		t.Run(alg.String(), func(t *testing.T) {
			cfg := heavyDistConfig(alg)
			want, err := core.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if want.HeavyKeys == 0 {
				t.Fatal("scenario detected no heavy keys in the simulator")
			}
			meshes(t, func(t *testing.T, workers int) {
				got := runDistJoin(t, cfg, workers)
				if got.Matches != want.Matches || got.Checksum != want.Checksum {
					t.Errorf("distributed heavy result %d/%#x, want %d/%#x",
						got.Matches, got.Checksum, want.Matches, want.Checksum)
				}
				if got.HeavyKeys != want.HeavyKeys {
					t.Errorf("distributed run detected %d heavy keys, sim %d",
						got.HeavyKeys, want.HeavyKeys)
				}
				if got.HeavyProbeTuples == 0 {
					t.Error("no probe tuples took the partitioned path over TCP")
				}
			})
		})
	}
}

// upperHalfBuildBytes returns the wire size of the build tuples the initial
// two-node routing table sends to join node 1, the node worker 1 hosts from
// the start under the i%2 assignment.
func upperHalfBuildBytes(t *testing.T, cfg core.Config) int64 {
	t.Helper()
	gen, err := datagen.New(cfg.Build)
	if err != nil {
		t.Fatal(err)
	}
	space := hashfn.DefaultSpace() // distConfig leaves Config.Space at its default
	var n int64
	for i := int64(0); i < cfg.Build.Tuples; i++ {
		if space.PositionOf(gen.KeyAt(i)) >= space.Positions()/2 {
			n++
		}
	}
	return n * tuple.PhysicalSize
}

// TestHeavyWorkerDeathRecovers crosses the heavy path with a worker-process
// death mid-build on the real transport: the doomed worker dies before
// detection, recovery re-streams its build state, and detection then runs
// on the healed cluster — exact fault-free result required.
func TestHeavyWorkerDeathRecovers(t *testing.T) {
	cfg := heavyDistConfig(core.Split)
	want, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want.HeavyKeys == 0 {
		t.Fatal("scenario detected no heavy keys in the simulator")
	}
	// Kill a quarter of the way through the doomed worker's initial build
	// traffic: a fixed offset near the end of it lets detection slip past
	// the build barrier, where a death degrades instead of recovering.
	l, conns, ws := startFaultyWorkers(t, 2, 1, upperHalfBuildBytes(t, cfg)/4, true)
	// The kill is detected by the connection reset, not the heartbeat, so
	// the timeout can be generous: the skewed workload's match explosion
	// slows the surviving worker enough under -race that a 500ms silence
	// threshold falsely declares it dead too.
	got, err := runCluster(t, cfg, l, conns, ws, cluster.Setup{
		Recover: true,
		Options: every(tcpnet.WithResumeWindow(100*time.Millisecond),
			tcpnet.WithHeartbeat(50*time.Millisecond, 5*time.Second)),
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatalf("heavy run with worker death did not recover: %v", err)
	}
	if got.NodesLost == 0 {
		t.Fatal("the doomed worker's nodes were never declared dead")
	}
	if got.Degraded {
		t.Fatalf("build-phase worker death should recover exactly, got degraded: %v", got)
	}
	if got.Matches != want.Matches || got.Checksum != want.Checksum {
		t.Errorf("recovered heavy result %d/%#x, want %d/%#x",
			got.Matches, got.Checksum, want.Matches, want.Checksum)
	}
	if got.HeavyKeys != want.HeavyKeys {
		t.Errorf("recovered run detected %d heavy keys, sim %d", got.HeavyKeys, want.HeavyKeys)
	}
}
