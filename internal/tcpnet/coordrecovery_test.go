package tcpnet_test

// Coordinator crash recovery, end to end (DESIGN.md §12): the coordinator
// is killed abruptly at scripted and randomized points of a real
// distributed join, a fresh coordinator is restored from the write-ahead
// checkpoint, the parked workers re-attach through their one resume
// handshake, and the resumed run must produce the exact fault-free result
// — Matches and Checksum bit-identical to the simulator's — with and
// without the spill and heavy-hitter paths.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"ehjoin/internal/cluster"
	"ehjoin/internal/core"
	"ehjoin/internal/tcpnet"
)

// killAt is one scripted coordinator kill: record recs of phase, or of
// the whole log with phase -1 (see WithCrashPoint).
type killAt struct {
	phase int
	recs  int64
}

// crashRun is a cluster with its write-ahead log on disk and the failure
// handler armed, whose coordinator incarnation n carries kills[n] as its
// crash point: Run restarts it from the log each time one fires, as
// ehjadist -coord-kill does.
type crashRun struct {
	*cluster.Cluster
	wal   *os.File
	wg    *sync.WaitGroup
	fired int // the incarnation last built: the kills that fired
}

func startCrashRun(t *testing.T, cfg core.Config, nWorkers int, kills ...killAt) *crashRun {
	t.Helper()
	wal, err := os.Create(filepath.Join(t.TempDir(), "coord.wal"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { wal.Close() })
	l := listen(t)
	r := &crashRun{wal: wal}
	var conns []net.Conn
	conns, r.wg = startWorkerLoops(t, l, nWorkers, func(i int) {
		// The workers dial l's address, which a restart rebinds.
		if err := tcpnet.RunWorker(dialer(l, nil), joinFactory, tcpnet.WithWorkerP2P("127.0.0.1:0")); err != nil {
			// Not fatal by itself: a worker that gives up is rung-3
			// territory, and the result-equality check is the arbiter
			// of whether recovery stayed exact.
			t.Logf("worker %d exit: %v", i, err)
		}
	})
	r.Cluster, err = cluster.Start(cfg, l, conns, cluster.Setup{
		Recover: true,
		WAL:     wal,
		Options: func(n int) []tcpnet.Option {
			r.fired = n
			o := []tcpnet.Option{
				tcpnet.WithDrainTimeout(30 * time.Second),
				tcpnet.WithHeartbeat(50*time.Millisecond, 2*time.Second),
			}
			if n < len(kills) {
				o = append(o, tcpnet.WithCrashPoint(kills[n].phase, kills[n].recs))
			}
			return o
		},
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// finish closes the cluster, waits for its workers, and returns the
// kills that fired and the final record count of the log.
func (r *crashRun) finish(t *testing.T) (fired int, records int64) {
	t.Helper()
	r.Close()
	r.wg.Wait()
	logged, err := os.ReadFile(r.wal.Name())
	if err != nil {
		t.Fatal(err)
	}
	snap, err := tcpnet.ReadSnapshot(bytes.NewReader(logged))
	if err != nil {
		t.Fatal(err)
	}
	return r.fired, int64(len(snap.Records))
}

// coordCrashRun runs cfg over nWorkers TCP workers on a crashRun armed
// with kills and returns the final report, how many kills fired, and the
// final record count of the log.
func coordCrashRun(t *testing.T, cfg core.Config, nWorkers int, kills ...killAt) (*core.Report, int, int64) {
	t.Helper()
	r := startCrashRun(t, cfg, nWorkers, kills...)
	got, err := r.Run()
	fired, records := r.finish(t)
	if err != nil {
		t.Fatalf("run failed after %d coordinator kill(s): %v", fired, err)
	}
	return got, fired, records
}

// checkRecovered asserts the resumed run's result is bit-identical to the
// fault-free oracle and that the report records how it got there: one
// coordinator restart per kill.
func checkRecovered(t *testing.T, got, want *core.Report, kills int64) {
	t.Helper()
	t.Logf("recovery: reattached=%d replays=%d restarts=%d rung=%d resumes=%d nodesLost=%d restreamed=%d",
		got.ReattachedWorkers, got.CheckpointReplays, got.CoordRestarts,
		got.RecoveryRung, got.Resumes, got.NodesLost, got.RestreamedChunks)
	if got.Matches != want.Matches || got.Checksum != want.Checksum {
		t.Errorf("recovered result %d/%#x, want %d/%#x",
			got.Matches, got.Checksum, want.Matches, want.Checksum)
	}
	if got.CoordRestarts != kills {
		t.Errorf("CoordRestarts = %d, want %d", got.CoordRestarts, kills)
	}
	if got.CheckpointReplays <= 0 {
		t.Error("CheckpointReplays = 0: the restored coordinator replayed nothing")
	}
	if got.ReattachedWorkers == 0 && got.NodesLost == 0 && got.RestreamedChunks == 0 {
		t.Error("recovery left no trace: no worker re-attached and nothing was re-streamed")
	}
}

// TestCoordRecoveryScriptedPoints kills the coordinator at a hand-picked
// record of each interesting phase — mid-build, the hybrid reshuffle,
// mid-probe, heavy-hitter detection, the out-of-core finish, and stats
// collection — with and without spill and heavy routing. The p2p-* cases run three workers, a
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
	hybrid := distConfig(core.Hybrid)

	// Phase indices follow core.Execute's step list for each config:
	// build, then (reshuffle), then (heavy detection), then probe, then
	// (out-of-core finish), then stats collection.
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
		{"p2p-hybrid-mid-reshuffle", hybrid, 3, 1, 8},
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
			got, fired, _ := coordCrashRun(t, tc.cfg, tc.workers, killAt{tc.phase, tc.recs})
			if fired != 1 {
				t.Fatalf("crash point (phase %d, record %d) never fired", tc.phase, tc.recs)
			}
			checkRecovered(t, got, want, 1)
		})
	}
}

// TestCoordRecoveryRandomizedPoints samples crash points uniformly over
// the whole log — the record count of a fault-free run, measured first —
// so the kill lands at arbitrary, unanticipated control-plane
// transitions, and arms a second kill at a random record of the restored
// coordinator's own log. Every sampled run must still match the
// fault-free result exactly and count one coordinator restart per kill
// that fired. Report batching makes the log length vary slightly between
// runs, so a late sample occasionally outlives the run without firing;
// those runs still serve as differential checks, and the firing rate of
// the first kill is asserted in bulk. The pair sweep runs two workers
// joined by a single peer link, the p2p sweep three. (Each sweep's seed
// hangs off its name's length, so a rename keeps the length.)
func TestCoordRecoveryRandomizedPoints(t *testing.T) {
	for _, mode := range []struct {
		name    string
		workers int
		trials  int
	}{
		{"pair", 2, 6},
		{"p2p", 3, 8},
	} {
		t.Run(mode.name, func(t *testing.T) {
			trials := mode.trials
			cfg := distConfig(core.Split)
			want, err := core.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			base, fired, total := coordCrashRun(t, cfg, mode.workers)
			if fired != 0 {
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
			hits := 0
			for trial := 0; trial < trials; trial++ {
				recs := 3 + rng.Int63n(total-3)
				// The restored coordinator counts records from its own
				// restart header, and has about total-recs left to write.
				again := 2 + rng.Int63n(total-recs+1)
				got, fired, _ := coordCrashRun(t, cfg, mode.workers, killAt{-1, recs}, killAt{-1, again})
				t.Logf("trial %d: kills at record %d/%d, then %d: %d fired", trial, recs, total, again, fired)
				if fired > 0 {
					hits++
				}
				if got.Matches != want.Matches || got.Checksum != want.Checksum {
					t.Errorf("trial %d (%d of the kills at records %d, %d fired): result %d/%#x, want %d/%#x "+
						"(reattached=%d resumes=%d rung=%d nodesLost=%d restreamed=%d probeDegraded=%d degraded=%v)",
						trial, fired, recs, again, got.Matches, got.Checksum, want.Matches, want.Checksum,
						got.ReattachedWorkers, got.Resumes, got.RecoveryRung, got.NodesLost,
						got.RestreamedChunks, got.DegradedProbeRecoveries, got.Degraded)
				}
				if got.CoordRestarts != int64(fired) {
					t.Errorf("trial %d: CoordRestarts = %d, want %d (the kills that fired)", trial, got.CoordRestarts, fired)
				}
			}
			if hits < trials*2/3 {
				t.Errorf("only %d of %d sampled crash points fired", hits, trials)
			}
		})
	}
}

// TestCoordRecoveryReplayRebuildsBuffers pins the claim replay rests on
// (DESIGN.md §12): replaying the log rebuilds each worker's retransmit
// buffer frame for frame and sequence number for sequence number. For
// every worker still live after the replay, each frame the killed
// coordinator still held for retransmission must sit in the restored
// buffer under the same sequence number, with the same kind, endpoints
// and message; only the piggybacked ack may differ. The restored buffer
// may hold more: it was never trimmed by a worker's ack, and the record
// that fired the crash replays although its act never ran.
func TestCoordRecoveryReplayRebuildsBuffers(t *testing.T) {
	spill := distConfig(core.Split)
	spill.MaxNodes = 3
	spill.SpillEnabled = true
	cases := []struct {
		name    string
		cfg     core.Config
		workers int
		phase   int
		recs    int64
	}{
		{"star-mid-build", distConfig(core.Split), 2, 0, 12},
		{"p2p-mid-probe", distConfig(core.Split), 3, 1, 12},
		{"p2p-spill-finish", spill, 3, 2, 2},
		{"p2p-hybrid-mid-reshuffle", distConfig(core.Hybrid), 3, 1, 8},
	}
	// Worker acks trim a buffer to nothing at times, so one case may
	// compare no frame; the sweep as a whole must compare some.
	total := 0
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := core.Run(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Run the first coordinator to its kill, and compare the
			// buffers between the restart and the resumed run.
			r := startCrashRun(t, tc.cfg, tc.workers, killAt{tc.phase, tc.recs})
			if _, err := core.Execute(tc.cfg, r.Coordinator()); !errors.Is(err, tcpnet.ErrCoordKilled) {
				r.finish(t)
				t.Fatalf("crash point (phase %d, record %d) never fired: %v", tc.phase, tc.recs, err)
			}
			killed := r.Coordinator()
			if err := r.Restart(); err != nil {
				r.finish(t)
				t.Fatal(err)
			}
			restored := r.Coordinator()
			compared := 0
			for w := 0; w < tc.workers; w++ {
				after, resumable, dead, err := tcpnet.RetransmitBuffer(restored, w)
				if err != nil {
					t.Fatalf("worker %d: restored buffer: %v", w, err)
				}
				if dead {
					continue
				}
				before, _, _, err := tcpnet.RetransmitBuffer(killed, w)
				if err != nil {
					t.Fatalf("worker %d: killed buffer: %v", w, err)
				}
				if !resumable {
					t.Errorf("worker %d: the replayed buffer overflowed its window", w)
					continue
				}
				for seq, b := range before {
					a, ok := after[seq]
					switch {
					case !ok:
						t.Errorf("worker %d seq %d: kind %d %d→%d is missing from the restored buffer",
							w, seq, b.Kind, b.From, b.To)
					case a.Kind != b.Kind || a.From != b.From || a.To != b.To:
						t.Errorf("worker %d seq %d: restored kind %d %d→%d, killed kind %d %d→%d",
							w, seq, a.Kind, a.From, a.To, b.Kind, b.From, b.To)
					case !bytes.Equal(a.Canon, b.Canon):
						t.Errorf("worker %d seq %d: kind %d %d→%d carries a different message",
							w, seq, b.Kind, b.From, b.To)
					}
					compared++
				}
			}
			got, err := r.Run()
			if fired, _ := r.finish(t); err != nil || fired != 1 {
				t.Fatalf("resumed run: %d restart(s), %v", fired, err)
			}
			t.Logf("compared %d buffered frames", compared)
			total += compared
			checkRecovered(t, got, want, 1)
		})
	}
	if total == 0 {
		t.Error("no killed coordinator held a buffered frame: the test compared nothing")
	}
}

// TestCoordRecoveryDoubleCrash kills the coordinator twice in one build
// phase: first at each of the first records after the log's header — the
// kickoff's injections and the first deliveries they cause — and then the
// restored coordinator at a later record of the same phase, and resumes
// from the log both of them wrote. The second replay must count the
// phase's root injections across the restart marker: the restored
// coordinator logs the ones it made itself, and the resumed run must skip
// all of them, or a source streams its build slice twice and the run
// fails build-tuple conservation.
func TestCoordRecoveryDoubleCrash(t *testing.T) {
	cfg := distConfig(core.Split)
	want, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for first := int64(2); first <= 9; first++ {
		for _, second := range []int64{4, 6, 10, 20} {
			t.Run(fmt.Sprintf("build-%d-then-%d", first, second), func(t *testing.T) {
				got, fired, _ := coordCrashRun(t, cfg, 2, killAt{0, first}, killAt{0, second})
				if fired != 2 {
					t.Fatalf("%d of the 2 kills fired", fired)
				}
				checkRecovered(t, got, want, 2)
			})
		}
	}
}
