package tcpnet_test

// Coordinator crash recovery, end to end (DESIGN.md §12): the coordinator
// is killed abruptly at scripted and randomized points of a real
// distributed join, a fresh coordinator is restored from the write-ahead
// checkpoint, the parked workers re-attach through the extended resume
// handshake, and the resumed run must produce the exact fault-free result
// — Matches and Checksum bit-identical to the simulator's — with and
// without the spill and heavy-hitter paths.

import (
	"bytes"
	"errors"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"ehjoin/internal/core"
	rt "ehjoin/internal/runtime"
	"ehjoin/internal/tcpnet"
)

// coordCrashRun executes cfg over nWorkers TCP workers with checkpointing
// armed. With crashRecs > 0 a crash point is installed (see
// WithCrashPoint); when it fires, the harness does what a supervisor
// would: rebind the listener on the same address, replay the log into a
// restored coordinator, and finish the run with core.ResumeExecute.
// Returns the final report, whether the crash actually fired, and the
// final record count of the log.
func coordCrashRun(t *testing.T, cfg core.Config, nWorkers, crashPhase int, crashRecs int64) (*core.Report, bool, int64) {
	t.Helper()
	blob, err := core.EncodeConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ids, err := core.JoinNodeIDs(cfg)
	if err != nil {
		t.Fatal(err)
	}
	schedID, err := core.SchedulerNodeID(cfg)
	if err != nil {
		t.Fatal(err)
	}

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	dial := func() (net.Conn, error) { return net.Dial("tcp", addr) }

	var wg sync.WaitGroup
	conns := make([]net.Conn, nWorkers)
	for i := range conns {
		wconn, err := net.Dial("tcp", addr)
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
			wopts := []tcpnet.WorkerOption{
				// A generous park schedule: the worker must still be
				// redialing when the restored coordinator rebinds.
				tcpnet.WithWorkerResume(dial, 200, 5*time.Millisecond),
				tcpnet.WithWorkerPark(),
				tcpnet.WithWorkerP2P("127.0.0.1:0"),
			}
			if err := tcpnet.RunWorker(c, joinFactory, wopts...); err != nil {
				// Not fatal by itself: a worker that gives up is rung-3
				// territory, and the result-equality check is the arbiter
				// of whether recovery stayed exact.
				t.Logf("worker %d exit: %v", i, err)
			}
		}(i, wconn)
	}
	assignment := make(map[rt.NodeID]int)
	for i, id := range ids {
		assignment[id] = i % nWorkers
	}

	var wal bytes.Buffer
	var coord *tcpnet.Coordinator
	handler := func(worker int, nodes []rt.NodeID, cause error) {
		for _, n := range nodes {
			coord.Inject(schedID, core.NodeDeadMessage(n))
		}
	}
	opts := []tcpnet.Option{
		tcpnet.WithResume(l, 5*time.Second),
		tcpnet.WithCheckpoint(&wal),
		tcpnet.WithFailureHandler(handler),
		tcpnet.WithDrainTimeout(30 * time.Second),
		tcpnet.WithHeartbeat(50*time.Millisecond, 2*time.Second),
	}
	if crashRecs > 0 {
		opts = append(opts, tcpnet.WithCrashPoint(crashPhase, crashRecs))
	}
	coord, err = tcpnet.NewCoordinator(blob, assignment, conns, opts...)
	if err != nil {
		t.Fatal(err)
	}

	got, err := core.Execute(cfg, coord)
	crashed := false
	if err != nil {
		if !errors.Is(err, tcpnet.ErrCoordKilled) {
			coord.Close()
			wg.Wait()
			t.Fatalf("run failed for a reason other than the injected crash: %v", err)
		}
		crashed = true
		coord.Close()

		// The restart path: same address (the workers' dial target), the
		// log's intact prefix, fresh local actors from the logged config.
		l2, err := net.Listen("tcp", addr)
		if err != nil {
			t.Fatalf("rebind %s: %v", addr, err)
		}
		snap, err := tcpnet.ReadSnapshot(bytes.NewReader(wal.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		rs, err := core.PrepareResume(snap.CfgBlob())
		if err != nil {
			t.Fatal(err)
		}
		var coord2 *tcpnet.Coordinator
		handler2 := func(worker int, nodes []rt.NodeID, cause error) {
			for _, n := range nodes {
				coord2.Inject(schedID, core.NodeDeadMessage(n))
			}
		}
		ropts := []tcpnet.Option{
			tcpnet.WithResume(l2, 5*time.Second),
			tcpnet.WithCheckpoint(&wal),
			tcpnet.WithFailureHandler(handler2),
			tcpnet.WithDrainTimeout(30 * time.Second),
			tcpnet.WithHeartbeat(50*time.Millisecond, 2*time.Second),
		}
		coord2, err = tcpnet.RestoreCoordinator(snap, rs.Actors(), ropts...)
		if err != nil {
			t.Fatalf("restore from checkpoint: %v", err)
		}
		got, err = core.ResumeExecute(rs, coord2, coord2.DrainsDone(), coord2.RootInjects())
		if err != nil {
			t.Fatalf("resumed run: %v", err)
		}
		coord = coord2
	}
	ts := coord.TransportStats()
	coord.Close()
	wg.Wait()
	assertNoRelay(t, ts)
	snap, err := tcpnet.ReadSnapshot(bytes.NewReader(wal.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	return got, crashed, int64(len(snap.Records))
}

// checkRecovered asserts the resumed run's result is bit-identical to the
// fault-free oracle and that the report records how it got there.
func checkRecovered(t *testing.T, got, want *core.Report) {
	t.Helper()
	t.Logf("recovery: reattached=%d replays=%d restarts=%d rung=%d resumes=%d nodesLost=%d restreamed=%d",
		got.ReattachedWorkers, got.CheckpointReplays, got.CoordRestarts,
		got.RecoveryRung, got.Resumes, got.NodesLost, got.RestreamedChunks)
	if got.Matches != want.Matches || got.Checksum != want.Checksum {
		t.Errorf("recovered result %d/%#x, want %d/%#x",
			got.Matches, got.Checksum, want.Matches, want.Checksum)
	}
	if got.CoordRestarts != 1 {
		t.Errorf("CoordRestarts = %d, want 1", got.CoordRestarts)
	}
	if got.CheckpointReplays <= 0 {
		t.Error("CheckpointReplays = 0: the restored coordinator replayed nothing")
	}
	if got.ReattachedWorkers == 0 && got.NodesLost == 0 && got.RestreamedChunks == 0 {
		t.Error("recovery left no trace: no worker re-attached and nothing was re-streamed")
	}
}

// TestCoordRecoveryScriptedPoints kills the coordinator at a hand-picked
// record of each interesting phase — mid-build, mid-probe, heavy-hitter
// detection, the out-of-core finish, and stats collection — with and
// without spill and heavy routing. The p2p-* cases run three workers, a
// full peer mesh; the star-* cases, named for the hub-and-spoke layout
// they once ran on, run two workers joined by a single peer link.
func TestCoordRecoveryScriptedPoints(t *testing.T) {
	plain := distConfig(core.Split)
	spill := distConfig(core.Split)
	spill.MaxNodes = 3
	spill.SpillEnabled = true
	heavy := heavyDistConfig(core.Split)
	spillHeavy := heavyDistConfig(core.Split)
	spillHeavy.MaxNodes = 3
	spillHeavy.SpillEnabled = true

	// Phase indices follow core.Execute's drain sequence for each config:
	// build, then (heavy detection), then probe, then (out-of-core
	// finish), then stats collection.
	cases := []struct {
		name    string
		cfg     core.Config
		workers int
		phase   int
		recs    int64
	}{
		{"star-mid-build", plain, 2, 0, 12},
		{"star-mid-probe", plain, 2, 1, 12},
		{"p2p-mid-build", plain, 3, 0, 12},
		{"p2p-mid-probe", plain, 3, 1, 12},
		{"p2p-mid-stats", plain, 3, 2, 3},
		{"p2p-spill-finish", spill, 3, 2, 2},
		{"p2p-heavy-detect", heavy, 3, 1, 2},
		{"p2p-spill-heavy-probe", spillHeavy, 3, 2, 8},
		// Whole-log record counts (phase -1) at which the randomized
		// sweep below used to fail about one run in eleven: a worker's
		// report landed between the two startBuild deliveries, the replay
		// counted three of the four kickoff injections, and the resumed
		// run had a source stream its build slice again.
		{"star-log-63", plain, 2, -1, 63},
		{"star-log-147", plain, 2, -1, 147},
		{"p2p-log-107", plain, 3, -1, 107},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := core.Run(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, crashed, _ := coordCrashRun(t, tc.cfg, tc.workers, tc.phase, tc.recs)
			if !crashed {
				t.Fatalf("crash point (phase %d, record %d) never fired", tc.phase, tc.recs)
			}
			checkRecovered(t, got, want)
		})
	}
}

// TestCoordRecoveryRandomizedPoints samples crash points uniformly over
// the whole log — the record count of a fault-free run, measured first —
// so the kill lands at arbitrary, unanticipated control-plane
// transitions. Every sampled run must still match the fault-free result
// exactly. Report batching makes the log length vary slightly between
// runs, so a late sample occasionally outlives the run without firing;
// those runs still serve as differential checks, and the firing rate is
// asserted in bulk. The star sweep runs two workers, the p2p sweep three.
func TestCoordRecoveryRandomizedPoints(t *testing.T) {
	for _, mode := range []struct {
		name    string
		workers int
		trials  int
	}{
		{"star", 2, 6},
		{"p2p", 3, 8},
	} {
		t.Run(mode.name, func(t *testing.T) {
			trials := mode.trials
			cfg := distConfig(core.Split)
			want, err := core.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			base, crashed, total := coordCrashRun(t, cfg, mode.workers, 0, 0)
			if crashed {
				t.Fatal("control run crashed with no crash point armed")
			}
			if base.Matches != want.Matches || base.Checksum != want.Checksum {
				t.Fatalf("control run diverged before any crash: %d/%#x, want %d/%#x",
					base.Matches, base.Checksum, want.Matches, want.Checksum)
			}
			if total < 10 {
				t.Fatalf("control log holds only %d records", total)
			}
			rng := rand.New(rand.NewSource(0xC0FFEE + int64(len(mode.name))))
			fired := 0
			for trial := 0; trial < trials; trial++ {
				recs := 3 + rng.Int63n(total-3)
				got, crashed, _ := coordCrashRun(t, cfg, mode.workers, -1, recs)
				if !crashed {
					t.Logf("trial %d: crash at record %d/%d never fired", trial, recs, total)
					if got.Matches != want.Matches || got.Checksum != want.Checksum {
						t.Errorf("trial %d (no crash): result %d/%#x, want %d/%#x",
							trial, got.Matches, got.Checksum, want.Matches, want.Checksum)
					}
					continue
				}
				fired++
				if got.Matches != want.Matches || got.Checksum != want.Checksum {
					t.Errorf("trial %d (crash at record %d): result %d/%#x, want %d/%#x "+
						"(reattached=%d resumes=%d rung=%d nodesLost=%d restreamed=%d probeDegraded=%d degraded=%v)",
						trial, recs, got.Matches, got.Checksum, want.Matches, want.Checksum,
						got.ReattachedWorkers, got.Resumes, got.RecoveryRung, got.NodesLost,
						got.RestreamedChunks, got.DegradedProbeRecoveries, got.Degraded)
				}
				if got.CoordRestarts != 1 {
					t.Errorf("trial %d: CoordRestarts = %d, want 1", trial, got.CoordRestarts)
				}
			}
			if fired < trials*2/3 {
				t.Errorf("only %d of %d sampled crash points fired", fired, trials)
			}
		})
	}
}
