package tcpnet

// Pinning tests for the WAL log-before-act ordering at the two transitions
// the walorder analyzer flagged: a worker death (markDead) and a rung-2
// epoch bump (applyResume). Crash injection fires exactly on the record of
// the transition itself; the log must already carry the record while none
// of the transition's downstream effects — the failure-handler callback,
// the reassignment frame — ever escaped. Together with the static check,
// this pins the discipline: the log is never behind observable state.

import (
	"bytes"
	"errors"
	"net"
	"testing"
	"time"

	rt "ehjoin/internal/runtime"
	wire "ehjoin/internal/wire"
)

// TestCrashAtDeathRecordKeepsLogAhead kills the coordinator inside the
// logRecord call that records a worker death. The CkptDeath record must be
// the log's final record, and the death's effects (the failure handler,
// and with it the join layer's purge) must not have run: a restore replays
// the death from the log instead of double-applying it.
func TestCrashAtDeathRecordKeepsLogAhead(t *testing.T) {
	l, server, client, _ := resumePair(t)
	advertisePeer(t, client)

	var wal bytes.Buffer
	deaths := make(chan error, 1)
	// Record 1 is the header, record 2 the injection; the CkptDeath
	// markDead logs when the resume window expires is record 3.
	c, err := NewCoordinator(nil, map[rt.NodeID]int{1: 0}, l, []net.Conn{server},
		WithResumeWindow(100*time.Millisecond),
		WithCheckpoint(&wal),
		WithCrashPoint(-1, 3),
		WithDrainTimeout(30*time.Second),
		WithHeartbeat(20*time.Millisecond, 10*time.Second),
		WithFailureHandler(func(worker int, nodes []rt.NodeID, cause error) {
			deaths <- cause
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	c.Inject(1, &testMsg{Seq: 0})
	drained := make(chan error, 1)
	go func() { drained <- c.Drain() }()

	// The worker dies and never re-attaches; the resume window expires and
	// markDead fires — its log write is the crash trigger.
	_ = client.Close()
	if err := <-drained; !errors.Is(err, ErrCoordKilled) {
		t.Fatalf("Drain = %v, want ErrCoordKilled", err)
	}
	c.Close()

	snap, err := ReadSnapshot(bytes.NewReader(wal.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	last := snap.Records[len(snap.Records)-1]
	if last.Kind != wire.CkptDeath || last.Worker != 0 {
		t.Errorf("final record kind %d worker %d, want CkptDeath for worker 0: "+
			"the death must be durable at the instant of the transition", last.Kind, last.Worker)
	}
	select {
	case cause := <-deaths:
		t.Errorf("failure handler ran (%v) after the crash: the death's effects must "+
			"stay behind the record, not race it", cause)
	default:
	}
}

// TestCrashAtEpochRecordKeepsLogAhead drives a rung-2 reassignment (a
// re-attach hello whose digest does not match) and kills the coordinator
// inside the CkptEpoch log write. The record — with the bumped session
// epoch — must be the log's final record, while the reassignment itself
// never escaped: no assignment frame on the wire, no full-reassign counted,
// no failure-handler purge.
func TestCrashAtEpochRecordKeepsLogAhead(t *testing.T) {
	l, server, client, dial := resumePair(t)
	advertisePeer(t, client)

	var wal bytes.Buffer
	deaths := make(chan error, 1)
	const n = 3
	// Records 1..4: header + three injections; the rung-2 CkptEpoch is 5.
	c, err := NewCoordinator(nil, map[rt.NodeID]int{1: 0}, l, []net.Conn{server},
		WithResumeWindow(10*time.Second),
		WithCheckpoint(&wal),
		WithCrashPoint(-1, n+2),
		WithDrainTimeout(30*time.Second),
		WithFailureHandler(func(worker int, nodes []rt.NodeID, cause error) {
			deaths <- cause
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for i := 0; i < n; i++ {
		c.Inject(1, &testMsg{Seq: i})
	}
	drained := make(chan error, 1)
	go func() { drained <- c.Drain() }()

	// Scripted worker: learn the session identity, then die.
	r := newWireReader(client)
	var session uint64
	var epoch uint32
	for seen := 0; seen < n; {
		f, err := r.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		if f.Kind == frameAssign {
			session, epoch = f.Session, f.Epoch
		}
		if f.Kind == frameMsg {
			seen++
		}
		putFrame(f)
	}
	_ = client.Close()

	// Re-attach with a corrupted digest: the cross-check refuses rung 1
	// and applyResume takes the rung-2 path, whose CkptEpoch write fires
	// the crash.
	hello := &frame{Kind: frameCoordResume, Session: session, Epoch: epoch,
		LastSeq: n, AckedSeq: 0, CanReplay: true,
		Digest: assignDigest(session, epoch, []int32{1}) ^ 1}
	raw, err := appendFrame(nil, hello, 0, n)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(raw); err != nil {
		t.Fatal(err)
	}

	// The reassignment must not escape: the killed coordinator closes the
	// connection without answering, instead of sending the fresh assign.
	rr := newWireReader(conn)
	if f, err := rr.ReadFrame(); err == nil {
		t.Errorf("killed coordinator answered the hello with frame kind %d: the "+
			"reassignment escaped ahead of the crash", f.Kind)
		putFrame(f)
	}
	if err := <-drained; !errors.Is(err, ErrCoordKilled) {
		t.Fatalf("Drain = %v, want ErrCoordKilled", err)
	}
	c.Close()

	snap, err := ReadSnapshot(bytes.NewReader(wal.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	last := snap.Records[len(snap.Records)-1]
	if last.Kind != wire.CkptEpoch || last.Worker != 0 {
		t.Fatalf("final record kind %d worker %d, want CkptEpoch for worker 0", last.Kind, last.Worker)
	}
	if last.SessEpoch != epoch+1 {
		t.Errorf("CkptEpoch carries session epoch %d, want %d (the bump must be in the "+
			"record before anything acts on it)", last.SessEpoch, epoch+1)
	}
	if stats := c.TransportStats(); stats.FullReassigns != 0 {
		t.Errorf("FullReassigns = %d after the crash, want 0: the reassignment ran past "+
			"the record", stats.FullReassigns)
	}
	select {
	case cause := <-deaths:
		t.Errorf("failure handler ran (%v) after the crash", cause)
	default:
	}
}
