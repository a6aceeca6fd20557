package tcpnet

// Unit-level crash-recovery tests: redial jitter bounds and spread, chaos
// against the resume listener's re-attach handshake — stalled, corrupt,
// and torn hellos must be shed without wedging the coordinator, a digest
// mismatch must land on rung 2, and a correct extended hello must still
// resume on rung 1 afterwards — and the replay's header checks.

import (
	"errors"
	"math/rand"
	"net"
	"strings"
	"testing"
	"time"

	rt "ehjoin/internal/runtime"
	wire "ehjoin/internal/wire"
)

func TestCoordRecoveryRedialJitter(t *testing.T) {
	const base = 200 * time.Millisecond
	rng := rand.New(rand.NewSource(1))
	if d := redialDelay(0, 0, rng); d != 0 {
		t.Errorf("redialDelay with base 0 = %v, want 0", d)
	}
	if d := redialDelay(3, base, nil); d != 0 {
		t.Errorf("redialDelay with nil rng = %v, want 0", d)
	}
	for i := 0; i < 1000; i++ {
		if d := redialDelay(0, base, rng); d < 0 || d > base/2 {
			t.Fatalf("first-attempt delay %v outside [0, %v]", d, base/2)
		}
		if d := redialDelay(1+i%5, base, rng); d < base/2 || d > base/2+base {
			t.Fatalf("retry delay %v outside [%v, %v]", d, base/2, base/2+base)
		}
	}

	// The point of the jitter is that a fleet of workers orphaned by the
	// same crash does not stampede the restarted listener in one instant:
	// independently seeded sources must spread their first redial across
	// the window, not cluster on a handful of instants.
	const fleet = 64
	distinct := make(map[time.Duration]bool, fleet)
	lo, hi := base, time.Duration(0)
	for seed := int64(0); seed < fleet; seed++ {
		d := redialDelay(0, base, rand.New(rand.NewSource(seed)))
		distinct[d] = true
		if d < lo {
			lo = d
		}
		if d > hi {
			hi = d
		}
	}
	if len(distinct) < fleet/2 {
		t.Errorf("%d distinct first-attempt delays across %d workers: jitter is correlated", len(distinct), fleet)
	}
	if hi-lo < base/8 {
		t.Errorf("first-attempt delays span only %v of a %v half-window", hi-lo, base/2)
	}
}

// chaosHello opens a raw connection to the resume listener and feeds it
// bytes that must never survive the handshake: garbage, a torn frame
// prefix, or nothing at all. Returns the connection for cleanup.
func chaosHello(t *testing.T, dial func() (net.Conn, error), payload []byte) net.Conn {
	t.Helper()
	conn, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	if len(payload) > 0 {
		if _, err := conn.Write(payload); err != nil {
			t.Fatal(err)
		}
	}
	return conn
}

// TestCoordRecoveryHandshakeChaos throws malformed re-attach attempts at
// the resume listener — a stalled connection that never speaks, pure
// garbage, and a torn frameCoordResume prefix — then proves the listener
// still serves: a correct extended hello resumes the session on rung 1,
// no reassignment, no death.
func TestCoordRecoveryHandshakeChaos(t *testing.T) {
	l, server, client, dial := resumePair(t)
	advertisePeer(t, client)

	deaths := make(chan error, 8)
	c, err := NewCoordinator(nil, map[rt.NodeID]int{1: 0}, []net.Conn{server},
		WithResume(l, 10*time.Second),
		WithDrainTimeout(30*time.Second),
		WithFailureHandler(func(worker int, nodes []rt.NodeID, cause error) {
			deaths <- cause
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 3
	for i := 0; i < n; i++ {
		c.Inject(1, &testMsg{Seq: i})
	}
	drained := make(chan error, 1)
	go func() { drained <- c.Drain() }()

	// Scripted worker: consume the assignment and the three messages,
	// remember the session identity, then die mid-run.
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

	// Chaos at the listener. None of these reach applyResume: the stalled
	// connection parks against the handshake read deadline, the other two
	// fail frame decoding and are dropped on the spot.
	stalled := chaosHello(t, dial, nil)
	defer stalled.Close()
	garbage := chaosHello(t, dial, []byte("this is not a frame and never will be"))
	defer garbage.Close()
	hello := &frame{Kind: frameCoordResume, Session: session, Epoch: epoch,
		LastSeq: n, AckedSeq: 0, CanReplay: true,
		Digest: assignDigest(session, epoch, []int32{1})}
	raw, err := appendFrame(nil, hello, 0, n)
	if err != nil {
		t.Fatal(err)
	}
	torn := chaosHello(t, dial, raw[:len(raw)/2])
	_ = torn.Close() // tear it: half a hello, then FIN

	// The real re-attach: same bytes, whole frame. Must come back as
	// frameResumeOK (rung 1) with nothing to retransmit — the hello
	// already acknowledged everything the coordinator ever sent.
	conn, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(raw); err != nil {
		t.Fatal(err)
	}
	rr := newWireReader(conn)
	f, err := rr.ReadFrame()
	if err != nil {
		t.Fatalf("reading the resume answer: %v", err)
	}
	if f.Kind != frameResumeOK {
		t.Fatalf("correct hello answered with frame kind %d, want frameResumeOK", f.Kind)
	}
	putFrame(f)

	// Settle quiescence: report the three deliveries processed.
	rep, err := appendFrame(nil, &frame{Kind: frameReport, Processed: n}, 1, n)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(rep); err != nil {
		t.Fatal(err)
	}
	if err := <-drained; err != nil {
		t.Fatalf("Drain across the chaos: %v", err)
	}

	stats := c.TransportStats()
	if stats.Resumes != 1 || stats.FullReassigns != 0 {
		t.Errorf("resumes %d, full reassigns %d; want 1 and 0", stats.Resumes, stats.FullReassigns)
	}
	select {
	case cause := <-deaths:
		t.Errorf("failure handler ran (%v): handshake chaos must not cost a recovery rung", cause)
	default:
	}
}

// TestCoordRecoveryDigestMismatch sends an extended hello whose digest
// does not match the coordinator's view of the session. The cross-check
// must refuse rung 1 and fall through to the rung-2 reassignment: a fresh
// assignment under a bumped epoch, with the failure handler told to purge
// and re-stream.
func TestCoordRecoveryDigestMismatch(t *testing.T) {
	l, server, client, dial := resumePair(t)
	advertisePeer(t, client)

	deaths := make(chan error, 8)
	c, err := NewCoordinator(nil, map[rt.NodeID]int{1: 0}, []net.Conn{server},
		WithResume(l, 10*time.Second),
		WithDrainTimeout(30*time.Second),
		WithFailureHandler(func(worker int, nodes []rt.NodeID, cause error) {
			deaths <- cause
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 3
	for i := 0; i < n; i++ {
		c.Inject(1, &testMsg{Seq: i})
	}
	drained := make(chan error, 1)
	go func() { drained <- c.Drain() }()

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
	rr := newWireReader(conn)
	f, err := rr.ReadFrame()
	if err != nil {
		t.Fatalf("reading the reassignment: %v", err)
	}
	if f.Kind != frameAssign {
		t.Fatalf("mismatched digest answered with frame kind %d, want a fresh frameAssign", f.Kind)
	}
	if f.Epoch != epoch+1 {
		t.Errorf("reassignment carries epoch %d, want %d (bumped)", f.Epoch, epoch+1)
	}
	putFrame(f)

	if err := <-drained; err != nil {
		t.Fatalf("Drain across the reassignment: %v", err)
	}
	select {
	case cause := <-deaths:
		if !strings.Contains(cause.Error(), "not resumable") {
			t.Errorf("failure cause %q does not name the resume refusal", cause)
		}
	default:
		t.Fatal("failure handler never ran: the join layer would not re-stream the lost state")
	}
	stats := c.TransportStats()
	if stats.Resumes != 0 || stats.FullReassigns != 1 {
		t.Errorf("resumes %d, full reassigns %d; want 0 and 1", stats.Resumes, stats.FullReassigns)
	}
}

// TestCoordRecoveryRootInjectsSurviveInterleavedMarks replays a hand-built
// log in which a worker's report and a worker relay were received between
// the dequeues of a phase's injections — what a fast worker does to a
// kickoff. Every injection must still count: the resumed run skips exactly
// RootInjects() entries of the phase's list, and an injection the count
// misses is delivered a second time (a source streams its build slice
// twice). Only a delivery from a node ends the prefix; an injection logged
// after one is a failure handler's, not the phase's.
func TestCoordRecoveryRootInjectsSurviveInterleavedMarks(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	const worker, localA, localB = 1, 2, 3
	inject := func(kind wire.CkptKind, to int32, w int32) *wire.CkptRecord {
		return &wire.CkptRecord{Kind: kind, From: int32(rt.NoNode), To: to, Worker: w, Msg: &testMsg{}}
	}
	snap := &Snapshot{Records: []*wire.CkptRecord{
		{Kind: wire.CkptHeader, Version: wire.CkptVersion, SessionBase: 0x770000, P2P: true,
			AssignIDs: []int32{worker}, AssignWorkers: []int32{0}, PeerAddrs: []string{"127.0.0.1:1"}},
		inject(wire.CkptRelay, worker, 0),     // injection to a worker node: logged at route
		inject(wire.CkptDelivery, localA, -1), // first local injection dequeued
		{Kind: wire.CkptMark, Worker: 0, Seq: 1, Processed: 1},
		{Kind: wire.CkptRelay, From: worker, To: worker, Worker: 0, Seq: 2, Msg: &testMsg{}},
		inject(wire.CkptDelivery, localB, -1), // second local injection dequeued
		{Kind: wire.CkptDelivery, From: worker, To: localA, Worker: 0, Seq: 3, Msg: &testMsg{}},
		inject(wire.CkptDelivery, localA, -1), // a failure handler's injection
	}}
	var delivered int64
	actors := map[rt.NodeID]rt.Actor{
		localA: &countActor{n: &delivered},
		localB: &countActor{n: &delivered},
	}
	c, err := RestoreCoordinator(snap, actors, WithResume(l, time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got := c.RootInjects(); got != 3 {
		t.Errorf("RootInjects = %d, want 3: the mark and the worker relay sit inside the prefix, "+
			"the worker's delivery ends it", got)
	}
	if delivered != 4 {
		t.Errorf("replay delivered %d messages to local actors, want 4", delivered)
	}
}

// TestRestoreRejectsStarCheckpoint pins the header check: a log whose
// header P2P byte is 0 came from a coordinator that relayed
// worker-to-worker chunks itself. Replaying it would regenerate relays no
// worker of this build expects, so RestoreCoordinator refuses it with a
// typed error before replaying a single record.
func TestRestoreRejectsStarCheckpoint(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var delivered int64
	snap := &Snapshot{Records: []*wire.CkptRecord{
		{Kind: wire.CkptHeader, Version: wire.CkptVersion, SessionBase: 0x770000,
			AssignIDs: []int32{1}, AssignWorkers: []int32{0}},
		{Kind: wire.CkptDelivery, From: int32(rt.NoNode), To: 2, Worker: -1, Msg: &testMsg{}},
	}}
	_, err = RestoreCoordinator(snap, map[rt.NodeID]rt.Actor{2: &countActor{n: &delivered}}, WithResume(l, time.Second))
	if !errors.Is(err, ErrStarCheckpoint) {
		t.Fatalf("RestoreCoordinator on a star header = %v, want ErrStarCheckpoint", err)
	}
	if delivered != 0 {
		t.Errorf("replay delivered %d message(s) before rejecting the header", delivered)
	}
}
