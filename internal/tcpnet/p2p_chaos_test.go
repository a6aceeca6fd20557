package tcpnet_test

// Chaos property suite for the peer-to-peer data plane: scripted faults on
// a direct worker↔worker link must leave the join result bit-identical to
// the fault-free simulator run, absorbed by the peer link's own session
// resume — never escalated to the coordinator's worker-recovery ladder.

import (
	"testing"
	"time"

	"ehjoin/internal/cluster"
	"ehjoin/internal/core"
	"ehjoin/internal/tcpnet"
)

// runPeerChaosJoin runs the Split join across two workers with every
// peer connection worker 1 dials (worker 1 is the dialer of the 0↔1 pair)
// wrapped in the chaos plan. Coordinator links stay clean: the faults land
// exclusively on the data plane.
func runPeerChaosJoin(t *testing.T, spec string) *core.Report {
	t.Helper()
	plan, err := tcpnet.ParseChaos(spec)
	if err != nil {
		t.Fatal(err)
	}
	l := listen(t)
	conns, wg := startWorkerLoops(t, l, 2, func(i int) {
		opts := []tcpnet.WorkerOption{tcpnet.WithWorkerP2P("127.0.0.1:0")}
		if i == 1 {
			opts = append(opts, tcpnet.WithWorkerPeerChaos(plan.Wrap))
		}
		if err := tcpnet.RunWorker(dialer(l, nil), joinFactory, opts...); err != nil {
			t.Errorf("worker %d: %v", i, err)
		}
	})

	report, err := runCluster(t, distConfig(core.Split), l, conns, wg,
		cluster.Setup{Options: every(tcpnet.WithDrainTimeout(60 * time.Second))})
	if err != nil {
		t.Fatalf("peer chaos run %q: %v", plan, err)
	}
	return report
}

// TestPeerChaosFaultMatrix drives one fault class per subtest against the
// worker↔worker link. Every class must leave the result bit-identical to
// the fault-free run, with no worker death and no re-streaming: the peer
// link heals itself (dialer retry + ack-based resume) below the
// coordinator's recovery ladder.
func TestPeerChaosFaultMatrix(t *testing.T) {
	cases := []struct {
		name, spec string
		check      func(t *testing.T, r *core.Report)
	}{
		{"corruption", "corrupt@2500", func(t *testing.T, r *core.Report) {
			if r.ChecksumFailures < 1 {
				t.Error("no checksum failure recorded: the corruption never fired or went undetected")
			}
			if r.Resumes < 1 {
				t.Error("corrupted peer frame did not trigger a peer-link resume")
			}
		}},
		{"torn-write", "tear@2500", func(t *testing.T, r *core.Report) {
			if r.Resumes < 1 {
				t.Error("torn peer write did not trigger a peer-link resume")
			}
		}},
		{"mid-frame-drop", "drop@20001", func(t *testing.T, r *core.Report) {
			if r.Resumes < 1 {
				t.Error("mid-frame peer connection drop did not trigger a peer-link resume")
			}
		}},
		{"stalls", "stallr@9000:40;stallw@1500:25", func(t *testing.T, r *core.Report) {
			if r.Resumes != 0 {
				t.Errorf("peer stalls caused %d resume(s); delays must not look like failures", r.Resumes)
			}
		}},
		{"duplication", "dup@2;dup@4", func(t *testing.T, r *core.Report) {
			if r.DuplicateFrames < 2 {
				t.Errorf("peer-link dedup shed %d duplicate frames, want the 2 injected ones", r.DuplicateFrames)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := runPeerChaosJoin(t, tc.spec)
			assertBitIdentical(t, r, "peer "+tc.spec)
			if r.NodesLost != 0 || r.RestreamedChunks != 0 {
				t.Errorf("peer chaos %q escalated past the link layer: lost %d node(s), re-streamed %d chunks",
					tc.spec, r.NodesLost, r.RestreamedChunks)
			}
			tc.check(t, r)
		})
	}
}

// TestPeerChaosSeededRuns drives PRNG-derived schedules on the peer link:
// same seed, same faults, bit-identical result.
func TestPeerChaosSeededRuns(t *testing.T) {
	for _, seed := range []string{"3", "5", "9"} {
		t.Run("seed-"+seed, func(t *testing.T) {
			r := runPeerChaosJoin(t, seed)
			assertBitIdentical(t, r, "peer seed "+seed)
			if r.NodesLost != 0 || r.RestreamedChunks != 0 {
				t.Errorf("peer seed %s escalated past the link layer: lost %d node(s), re-streamed %d chunks",
					seed, r.NodesLost, r.RestreamedChunks)
			}
		})
	}
}

// TestPeerChaosResumeMidBuild is the data plane's acceptance criterion: a
// peer connection torn mid-build resumes ack-based — only the unacked
// suffix is retransmitted, the worker does not die, the scheduler never
// hears about it, and the result is exact.
func TestPeerChaosResumeMidBuild(t *testing.T) {
	r := runPeerChaosJoin(t, "tear@3001")
	assertBitIdentical(t, r, "peer tear@3001")
	if r.Resumes < 1 {
		t.Fatal("the peer-link tear did not trigger a resume")
	}
	if r.RecoveryRung != 1 {
		t.Errorf("recovery rung %d, want 1 (ack-based peer resume)", r.RecoveryRung)
	}
	if r.NodesLost != 0 || r.RestreamedChunks != 0 {
		t.Errorf("peer resume should have sufficed: lost %d node(s), re-streamed %d chunks",
			r.NodesLost, r.RestreamedChunks)
	}
	if r.RetransmittedFrames < 1 {
		t.Error("no frames retransmitted across the peer disconnect")
	}
	if r.RetransmittedFrames >= r.SessionFrames {
		t.Errorf("retransmitted %d of %d reliable frames: the peer resume replayed everything instead of the unacked suffix",
			r.RetransmittedFrames, r.SessionFrames)
	}
}
