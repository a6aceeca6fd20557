package tcpnet_test

// Chaos property suite: a distributed join run under deterministic,
// scripted network faults must produce a bit-identical result (match count
// and XOR checksum) to the fault-free simulator run, with the session
// layer absorbing every fault on the cheapest possible recovery rung.

import (
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"ehjoin/internal/cluster"
	"ehjoin/internal/core"
	"ehjoin/internal/tcpnet"
)

// chaosBaseline computes the fault-free reference result once.
var chaosBaseline struct {
	once     sync.Once
	matches  uint64
	checksum uint64
	err      error
}

func baselineRun(t *testing.T) (uint64, uint64) {
	t.Helper()
	b := &chaosBaseline
	b.once.Do(func() {
		r, err := core.Run(distConfig(core.Split))
		if err != nil {
			b.err = err
			return
		}
		b.matches, b.checksum = r.Matches, r.Checksum
	})
	if b.err != nil {
		t.Fatalf("fault-free baseline: %v", b.err)
	}
	return b.matches, b.checksum
}

// runChaosJoin runs the Split join across TCP workers with worker 0's
// connection (initial and every redial) wrapped in the given chaos plan.
// With coordSide the plan wraps the coordinator's end of worker 0's first
// connection instead, so write-offset faults land in the
// coordinator→worker stream. opts are added to the coordinator's.
func runChaosJoin(t *testing.T, spec string, coordSide bool, workers int, opts ...tcpnet.Option) *core.Report {
	t.Helper()
	plan, err := tcpnet.ParseChaos(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Workers dial sequentially so worker 0 is deterministically the
	// chaos-wrapped connection.
	l := listen(t)
	conns, wg := startWorkerLoops(t, l, workers, func(i int) {
		var wrap func(net.Conn) net.Conn
		if i == 0 && !coordSide {
			wrap = plan.Wrap // only worker 0's end suffers, if any
		}
		if err := tcpnet.RunWorker(dialer(l, wrap), joinFactory, tcpnet.WithWorkerP2P("127.0.0.1:0")); err != nil {
			t.Errorf("worker %d: %v", i, err)
		}
	})
	if coordSide {
		conns[0] = plan.Wrap(conns[0])
	}

	// A flipped length prefix leaves the reader waiting on a body that
	// never arrives; the heartbeat is what breaks that connection, so keep
	// its timeout short (stalls in the plans stay well under it).
	report, err := runCluster(t, distConfig(core.Split), l, conns, wg, cluster.Setup{Options: every(append(opts,
		tcpnet.WithHeartbeat(100*time.Millisecond, 3*time.Second),
		tcpnet.WithDrainTimeout(60*time.Second))...)})
	if err != nil {
		t.Fatalf("chaos run %q: %v", plan, err)
	}
	return report
}

func assertBitIdentical(t *testing.T, r *core.Report, spec string) {
	t.Helper()
	matches, checksum := baselineRun(t)
	if r.Matches != matches || r.Checksum != checksum {
		t.Errorf("chaos %q: result diverged: %d matches (checksum %#x), fault-free run has %d (%#x)",
			spec, r.Matches, r.Checksum, matches, checksum)
	}
}

// TestChaosFaultMatrix drives one fault class per subtest. Every class must
// leave the join result bit-identical to the fault-free run; the per-class
// counters prove the fault actually fired and was absorbed on rung 1
// (session resume) — never by the scheduler's rung-2 re-streaming.
func TestChaosFaultMatrix(t *testing.T) {
	cases := []struct {
		name, spec string
		coordSide  bool
		check      func(t *testing.T, r *core.Report)
	}{
		// A worker's own writes are small control frames, where a flipped
		// byte can hit a length prefix instead of a checksummed body; the
		// coordinator's stream is mostly chunk bodies.
		{"corruption", "corrupt@20000", true, func(t *testing.T, r *core.Report) {
			if r.ChecksumFailures < 1 {
				t.Error("no checksum failure recorded: the corruption never fired or went undetected")
			}
			if r.Resumes < 1 {
				t.Error("corrupted frame did not trigger a session resume")
			}
		}},
		{"torn-write", "tear@2500", false, func(t *testing.T, r *core.Report) {
			if r.Resumes < 1 {
				t.Error("torn write did not trigger a session resume")
			}
		}},
		{"mid-frame-drop", "drop@30001", false, func(t *testing.T, r *core.Report) {
			if r.Resumes < 1 {
				t.Error("mid-frame connection drop did not trigger a session resume")
			}
		}},
		{"stalls", "stallr@9000:40;stallw@1500:25", false, func(t *testing.T, r *core.Report) {
			if r.Resumes != 0 {
				t.Errorf("stalls caused %d resume(s); delays must not look like failures", r.Resumes)
			}
		}},
		{"duplication", "dup@2;dup@4", false, func(t *testing.T, r *core.Report) {
			if r.DuplicateFrames < 2 {
				t.Errorf("dedup shed %d duplicate frames, want the 2 injected ones", r.DuplicateFrames)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := runChaosJoin(t, tc.spec, tc.coordSide, 2)
			assertBitIdentical(t, r, tc.spec)
			if r.NodesLost != 0 || r.RestreamedChunks != 0 {
				t.Errorf("chaos %q escalated past the session layer: lost %d node(s), re-streamed %d chunks",
					tc.spec, r.NodesLost, r.RestreamedChunks)
			}
			tc.check(t, r)
		})
	}
}

// TestChaosSeededRuns drives PRNG-derived schedules: same seed, same
// faults, and the result stays bit-identical regardless of what the seed
// happened to schedule.
func TestChaosSeededRuns(t *testing.T) {
	for _, seed := range []string{"3", "5", "9"} {
		t.Run("seed-"+seed, func(t *testing.T) {
			r := runChaosJoin(t, seed, false, 2)
			assertBitIdentical(t, r, "seed "+seed)
			if r.NodesLost != 0 || r.RestreamedChunks != 0 {
				t.Errorf("seed %s escalated past the session layer: lost %d node(s), re-streamed %d chunks",
					seed, r.NodesLost, r.RestreamedChunks)
			}
		})
	}
}

// TestChaosResumeIsIncremental is the PR's acceptance criterion: one
// transient disconnect recovers on rung 1, and the number of retransmitted
// frames is strictly smaller than the total reliable-frame count — the
// resume replayed only the unacked suffix, not the whole stream.
func TestChaosResumeIsIncremental(t *testing.T) {
	r := runChaosJoin(t, "tear@3001", false, 2)
	assertBitIdentical(t, r, "tear@3001")
	if r.Resumes < 1 {
		t.Fatal("the tear did not trigger a session resume")
	}
	if r.RecoveryRung != 1 {
		t.Errorf("recovery rung %d, want 1 (ack-based resume)", r.RecoveryRung)
	}
	if r.NodesLost != 0 || r.RestreamedChunks != 0 {
		t.Errorf("resume should have sufficed: lost %d node(s), re-streamed %d chunks",
			r.NodesLost, r.RestreamedChunks)
	}
	if r.RetransmittedFrames < 1 {
		t.Error("no frames retransmitted across the disconnect")
	}
	if r.RetransmittedFrames >= r.SessionFrames {
		t.Errorf("retransmitted %d of %d reliable frames: resume replayed everything instead of the unacked suffix",
			r.RetransmittedFrames, r.SessionFrames)
	}
}

// TestNoGoroutineOutlivesClose pins link teardown: once Close has
// returned and every RunWorker with it, no reader, writer, dialer or
// handshake goroutine is left. The two-worker run has a one-frame
// coordinator inbox, so readers are blocked posting to it when the run
// ends; the three-worker run resumes a chaos-torn link along the way.
func TestNoGoroutineOutlivesClose(t *testing.T) {
	base := runtime.NumGoroutine()
	assertBitIdentical(t, runChaosJoin(t, "", false, 2, tcpnet.WithInboxFrames(1)), "none")
	assertBitIdentical(t, runChaosJoin(t, "7", false, 3), "7")
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines 1 s after Close, %d before the runs:\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestParseChaosDeterminism pins that a seed maps to one schedule, stably.
func TestParseChaosDeterminism(t *testing.T) {
	for _, seed := range []string{"0", "7", "42", "1234567"} {
		a, err := tcpnet.ParseChaos(seed)
		if err != nil {
			t.Fatal(err)
		}
		b, err := tcpnet.ParseChaos(seed)
		if err != nil {
			t.Fatal(err)
		}
		if a.String() != b.String() {
			t.Errorf("seed %s is not deterministic: %q vs %q", seed, a, b)
		}
	}
	if p, err := tcpnet.ParseChaos(""); err != nil || p != nil {
		t.Errorf("empty spec: got (%v, %v), want disabled chaos", p, err)
	}
	if p, err := tcpnet.ParseChaos("corrupt@100;dup@3;stallw@50:10"); err != nil || p == nil {
		t.Errorf("script spec rejected: %v", err)
	}
}

func TestParseChaosRejectsBadSpecs(t *testing.T) {
	for _, spec := range []string{
		"bogus@1",        // unknown fault kind
		"corrupt",        // missing @ARG
		"corrupt@-5",     // negative offset
		"corrupt@x",      // non-numeric offset
		"dup@0",          // frame ordinals are 1-based
		"stallr@5",       // missing duration
		"stallw@5:abc",   // bad duration
		";",              // empty schedule
		"corrupt@1;;bad", // trailing garbage
	} {
		if _, err := tcpnet.ParseChaos(spec); err == nil {
			t.Errorf("spec %q accepted, want an error", spec)
		}
	}
}
