package tcpnet

// Unit-level crash-recovery tests: redial jitter bounds and spread, chaos
// against the resume listener's re-attach handshake — stalled, corrupt,
// torn, oversize and retired-format hellos must be shed without wedging
// the coordinator, a digest mismatch must land on rung 2, and a correct
// hello must still resume on rung 1 afterwards — the replay's header
// checks, the replay of every checkpoint record kind, and the restored
// coordinator's skip of what its log absorbed.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"slices"
	"strings"
	"testing"
	"time"

	rt "ehjoin/internal/runtime"
	wire "ehjoin/internal/wire"
)

func TestCoordRecoveryRedialJitter(t *testing.T) {
	const base = redialBackoff
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		if d := redialDelay(0, rng); d < 0 || d > base/2 {
			t.Fatalf("first-attempt delay %v outside [0, %v]", d, base/2)
		}
		if d := redialDelay(1+i%5, rng); d < base/2 || d > base/2+base {
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
		d := redialDelay(0, rand.New(rand.NewSource(seed)))
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

// closedByPeer asserts the far end closes conn: a read returns EOF, not
// a frame, within the handshake deadline.
func closedByPeer(t *testing.T, conn net.Conn, what string) {
	t.Helper()
	_ = conn.SetReadDeadline(time.Now().Add(2 * resumeHandshakeTimeout))
	if n, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Errorf("%s: read %d byte(s), %v; want the connection closed (EOF)", what, n, err)
	}
}

// oversizePrefix writes a length prefix claiming a gigabyte and closes the
// write side, so the far end's reader meets EOF mid-frame. (Whether it
// allocated for the claim is what the OversizePrefixBounded tests pin.)
func oversizePrefix(t *testing.T, conn net.Conn) {
	t.Helper()
	if _, err := conn.Write(binary.LittleEndian.AppendUint32(nil, 1<<30)); err != nil {
		t.Fatal(err)
	}
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
}

// TestCoordRecoveryHandshakeChaos throws malformed re-attach attempts at
// the resume listener — a stalled connection that never speaks, pure
// garbage, a torn frameCoordResume prefix, a length prefix claiming a
// gigabyte, and a CRC-valid hello in the retired digest-less format (kind
// 7) — then proves the listener still serves: a correct hello resumes the
// session on rung 1, no reassignment, no death. Every malformed
// connection that ends is closed by the coordinator.
func TestCoordRecoveryHandshakeChaos(t *testing.T) {
	l, server, client, dial := resumePair(t)
	advertisePeer(t, client)

	deaths := make(chan error, 8)
	c, err := NewCoordinator(nil, map[rt.NodeID]int{1: 0}, l, []net.Conn{server},
		WithResumeWindow(10*time.Second),
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
	// connection parks against the handshake read deadline, the others
	// fail frame decoding and are closed on the spot.
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
	oversize := chaosHello(t, dial, nil)
	defer oversize.Close()
	oversizePrefix(t, oversize)
	closedByPeer(t, oversize, "oversize prefix")
	closedByPeer(t, garbage, "garbage")
	// The retired hello: (session, epoch, lastSeq, canReplay) under kind 7,
	// with a valid CRC. It once resumed a session with no digest check.
	retired := binary.LittleEndian.AppendUint64(wire.OpenEnvelope(nil), 0) // seq
	retired = binary.LittleEndian.AppendUint64(retired, n)                 // ack
	retired = append(retired, 7)
	retired = binary.LittleEndian.AppendUint64(retired, session)
	retired = binary.LittleEndian.AppendUint32(retired, epoch)
	retired = binary.LittleEndian.AppendUint64(retired, n) // lastSeq
	retired = append(retired, 1)                           // canReplay
	retired, err = wire.SealEnvelope(retired, 0)
	if err != nil {
		t.Fatal(err)
	}
	old := chaosHello(t, dial, retired)
	defer old.Close()
	closedByPeer(t, old, "retired frameResume hello")

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
	rep, err := appendFrame(nil, &frame{Kind: frameReport, Rep: workerReport{Processed: n}}, 1, n)
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

// TestCoordRecoveryDigestMismatch sends a resume hello whose digest
// does not match the coordinator's view of the session. The cross-check
// must refuse rung 1 and fall through to the rung-2 reassignment: a fresh
// assignment under a bumped epoch, with the failure handler told to purge
// and re-stream.
func TestCoordRecoveryDigestMismatch(t *testing.T) {
	l, server, client, dial := resumePair(t)
	advertisePeer(t, client)

	deaths := make(chan error, 8)
	c, err := NewCoordinator(nil, map[rt.NodeID]int{1: 0}, l, []net.Conn{server},
		WithResumeWindow(10*time.Second),
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

// TestCoordRecoveryReplaysEveryCkptKind restores a hand-built log holding
// a record of every checkpoint kind the codec accepts — an injection both
// for a local node and for a worker's — and checks the effect each record
// must leave on the restored coordinator. A kind the replay switch lost
// fails the restore with ErrUnknownKind; a kind the codec gained fails the
// probe until it has a record and an effect here.
func TestCoordRecoveryReplaysEveryCkptKind(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Worker 0 serves node 1 and worker 1 node 4; node 2 is coordinator-local.
	const node0, node1, local = 1, 4, 2
	var delivered int64
	replays := []struct {
		rec    *wire.CkptRecord
		effect func(c *Coordinator) (got, want int64)
	}{
		{ // a restart marker left by a previous recovery
			&wire.CkptRecord{Kind: wire.CkptHeader, Version: wire.CkptVersion},
			func(c *Coordinator) (int64, int64) { return c.stats.CoordRestarts, 2 },
		},
		{
			&wire.CkptRecord{Kind: wire.CkptPhase, Phase: 0},
			func(c *Coordinator) (int64, int64) { return int64(c.drains), 1 },
		},
		{
			&wire.CkptRecord{Kind: wire.CkptDelivery, From: node0, To: local, Worker: 0, Seq: 1, Msg: &testMsg{}},
			func(*Coordinator) (int64, int64) { return delivered, 1 },
		},
		{ // for a local node: queued for the first Drain
			&wire.CkptRecord{Kind: wire.CkptInject, To: local, Root: true, Msg: &testMsg{}},
			func(c *Coordinator) (int64, int64) { return int64(len(c.queue)), 1 },
		},
		{ // for a worker's node: in the worker's retransmit buffer
			&wire.CkptRecord{Kind: wire.CkptInject, To: node0, Root: true, Msg: &testMsg{}},
			func(c *Coordinator) (int64, int64) {
				frames, _, _, err := RetransmitBuffer(c, 0)
				if err != nil {
					t.Fatal(err)
				}
				n := int64(0)
				for _, f := range frames {
					if frameKind(f.Kind) == frameMsg && f.To == node0 {
						n++
					}
				}
				return n, 1
			},
		},
		{
			&wire.CkptRecord{Kind: wire.CkptMark, Worker: 0, Seq: 2, Processed: 7, Emitted: 5},
			func(c *Coordinator) (int64, int64) { return c.workers[0].rep.Processed, 7 },
		},
		{
			&wire.CkptRecord{Kind: wire.CkptEpoch, Worker: 1, SessEpoch: 1, PeerEpoch: 3},
			func(c *Coordinator) (int64, int64) { return int64(c.peerEpochs[1]), 3 },
		},
		{
			&wire.CkptRecord{Kind: wire.CkptDeath, Worker: 1},
			func(c *Coordinator) (int64, int64) { return int64(c.workers[1].state), int64(linkDead) },
		},
	}
	snap := &Snapshot{Records: []*wire.CkptRecord{
		{Kind: wire.CkptHeader, Version: wire.CkptVersion, SessionBase: 0x770000,
			AssignIDs: []int32{node0, node1}, AssignWorkers: []int32{0, 1},
			PeerAddrs: []string{"127.0.0.1:1", "127.0.0.1:2"}},
	}}
	covered := make(map[wire.CkptKind]bool)
	for _, r := range replays {
		covered[r.rec.Kind] = true
		snap.Records = append(snap.Records, r.rec)
	}
	accepted := 0
	for k := wire.CkptKind(1); k != 0; k++ {
		if _, err := wire.AppendCheckpointRecord(nil, &wire.CkptRecord{Kind: k, Msg: &testMsg{}}); err != nil {
			if !errors.Is(err, wire.ErrUnknownKind) {
				t.Fatalf("kind %d: %v", k, err)
			}
			continue
		}
		accepted++
		if !covered[k] {
			t.Fatalf("the codec accepts checkpoint kind %d but this test has no record for it: "+
				"add one, with the effect its replay must leave", k)
		}
	}
	if accepted != len(covered) {
		t.Fatalf("the codec accepts %d checkpoint kinds, this test replays %d", accepted, len(covered))
	}

	c, err := RestoreCoordinator(snap, map[rt.NodeID]rt.Actor{local: &countActor{n: &delivered}}, l,
		WithResumeWindow(time.Second))
	if errors.Is(err, wire.ErrUnknownKind) {
		t.Fatalf("replay has no arm for a kind the codec writes: %v", err)
	}
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, r := range replays {
		if got, want := r.effect(c); got != want {
			t.Errorf("after replaying a kind-%d record to node %d: got %d, want %d", r.rec.Kind, r.rec.To, got, want)
		}
	}
}

// TestCoordRecoveryRootInjectCountIsExact replays a hand-built log in
// which the interrupted phase's root injections interleave with a
// worker's mark and delivery, a death, a failure handler's injection and
// a restart marker — what a fast worker, a dying one and an earlier
// recovery leave between a kickoff's records. The count is exactly the
// root CkptInject records since the last phase barrier: the barrier
// resets it, a restart marker does not, and nothing else moves it.
func TestCoordRecoveryRootInjectCountIsExact(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Worker 0 hosts node 1 and worker 1 node 4; nodes 2 and 3 are local.
	const node0, node1, localA, localB = 1, 4, 2, 3
	inject := func(to int32, root bool) *wire.CkptRecord {
		return &wire.CkptRecord{Kind: wire.CkptInject, To: to, Root: root, Msg: &testMsg{}}
	}
	dequeue := func(to int32) *wire.CkptRecord {
		return &wire.CkptRecord{Kind: wire.CkptDelivery, From: int32(rt.NoNode), To: to, Worker: -1, Msg: &testMsg{}}
	}
	snap := &Snapshot{Records: []*wire.CkptRecord{
		{Kind: wire.CkptHeader, Version: wire.CkptVersion, SessionBase: 0x770000,
			AssignIDs: []int32{node0, node1}, AssignWorkers: []int32{0, 1},
			PeerAddrs: []string{"127.0.0.1:1", "127.0.0.1:2"}},
		inject(localA, true), // phase 0's kickoff: counted, then reset
		dequeue(localA),
		{Kind: wire.CkptPhase, Phase: 0},
		inject(node0, true),  // 1: to a worker node
		inject(localA, true), // 2
		{Kind: wire.CkptMark, Worker: 0, Seq: 1, Processed: 1},
		inject(localB, true), // 3
		dequeue(localA),
		{Kind: wire.CkptDelivery, From: node0, To: localA, Worker: 0, Seq: 2, Msg: &testMsg{}},
		{Kind: wire.CkptDeath, Worker: 1},
		inject(localA, false), // the failure handler's: not counted
		{Kind: wire.CkptHeader, Version: wire.CkptVersion},
		inject(localB, true), // 4: the restored coordinator's own
	}}
	var delivered int64
	actors := map[rt.NodeID]rt.Actor{
		localA: &countActor{n: &delivered},
		localB: &countActor{n: &delivered},
	}
	c, err := RestoreCoordinator(snap, actors, l, WithResumeWindow(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.rootInjects != 4 {
		t.Errorf("root injections counted = %d, want 4", c.rootInjects)
	}
	if c.drains != 1 || c.skipDrains != 1 {
		t.Errorf("drains %d, Drains to skip %d; want 1 and 1", c.drains, c.skipDrains)
	}
	if delivered != 3 {
		t.Errorf("replay delivered %d messages to local actors, want 3", delivered)
	}
	// localB, the handler's localA and the last localB were never dequeued.
	if len(c.queue) != 3 {
		t.Errorf("%d deliveries left on the queue, want 3", len(c.queue))
	}
}

// TestCoordRecoveryHandlerInjectIsNotRoot: an injection made between
// Drains is logged root, and one a failure handler makes inside Drain is
// not, so a replay counts only the phase schedule's own. Worker 0 dies
// with a delivery outstanding; the handler injects to a local node.
func TestCoordRecoveryHandlerInjectIsNotRoot(t *testing.T) {
	l, server, client, _ := resumePair(t)
	advertisePeer(t, client)
	const local = 2
	var delivered int64
	var wal bytes.Buffer
	var c *Coordinator
	c, err := NewCoordinator(nil, map[rt.NodeID]int{1: 0}, l, []net.Conn{server},
		WithResumeWindow(100*time.Millisecond),
		WithCheckpoint(&wal),
		WithDrainTimeout(30*time.Second),
		WithFailureHandler(func(worker int, nodes []rt.NodeID, cause error) {
			c.Inject(local, &testMsg{Seq: 1})
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Register(local, &countActor{n: &delivered})
	c.Inject(1, &testMsg{Seq: 0})
	_ = client.Close()
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	if delivered != 1 {
		t.Fatalf("the handler's injection was delivered %d times, want 1", delivered)
	}
	snap, err := ReadSnapshot(bytes.NewReader(wal.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var roots []bool
	for _, rec := range snap.Records {
		if rec.Kind == wire.CkptInject {
			roots = append(roots, rec.Root)
		}
	}
	if !slices.Equal(roots, []bool{true, false}) {
		t.Errorf("injection records have root flags %v, want [true false]", roots)
	}
}

// resumeSchedule is a three-step phase schedule of root injections to one
// local node, numbered 0..5 across the steps.
var resumeSchedule = [][]int{{0, 1, 2}, {3}, {4, 5}}

// restoreAt restores a coordinator from a log that completed the first k
// steps of resumeSchedule — every injection logged, delivered and the
// step's barrier passed — and then logged the first j root injections of
// step k before the crash. Worker 0, hosting node 1, died before all of
// it, so every Drain quiesces on the local node 2 alone. Returns the
// restored coordinator, its continued log, and node 2's actor.
func restoreAt(t *testing.T, k, j int) (*Coordinator, *bytes.Buffer, *seqActor) {
	t.Helper()
	const local = 2
	recs := []*wire.CkptRecord{
		{Kind: wire.CkptHeader, Version: wire.CkptVersion, SessionBase: 0x770000,
			AssignIDs: []int32{1}, AssignWorkers: []int32{0}, PeerAddrs: []string{"127.0.0.1:1"}},
		{Kind: wire.CkptDeath, Worker: 0},
	}
	for i := 0; i <= k && i < len(resumeSchedule); i++ {
		injects := resumeSchedule[i]
		if i == k {
			injects = injects[:min(j, len(injects))]
			for n := len(resumeSchedule[i]); n < j; n++ {
				injects = append(injects, 100+n) // an overcounting log
			}
		}
		for _, seq := range injects {
			recs = append(recs, &wire.CkptRecord{Kind: wire.CkptInject, To: local, Root: true, Msg: &testMsg{Seq: seq}})
		}
		if i == k {
			break
		}
		for _, seq := range injects {
			recs = append(recs, &wire.CkptRecord{Kind: wire.CkptDelivery, From: int32(rt.NoNode), To: local,
				Worker: -1, Msg: &testMsg{Seq: seq}})
		}
		recs = append(recs, &wire.CkptRecord{Kind: wire.CkptPhase, Phase: int32(i)})
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	col := &seqActor{}
	var wal bytes.Buffer
	c, err := RestoreCoordinator(&Snapshot{Records: recs}, map[rt.NodeID]rt.Actor{local: col}, l,
		WithCheckpoint(&wal), WithDrainTimeout(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	return c, &wal, col
}

// runResumeSchedule drives the whole of resumeSchedule against c, the way
// core.ResumeExecute drives a phase schedule: every step's injections,
// then its Drain.
func runResumeSchedule(c *Coordinator) error {
	for _, step := range resumeSchedule {
		for _, seq := range step {
			c.Inject(2, &testMsg{Seq: seq})
		}
		if err := c.Drain(); err != nil {
			return err
		}
	}
	return nil
}

// TestCoordRecoverySkipsWhatTheLogAbsorbed restores at every
// (completed steps k, logged injections j) of a three-step schedule and
// runs the whole schedule against the restored coordinator. The local
// node must see every injection exactly once, in schedule order — the
// replay delivers the completed steps, the first real Drain the j logged
// injections still queued, and the rest come from the resumed run. The
// continued log must hold a barrier for each step from k on and an
// injection record for each injection the resumed run did not skip.
func TestCoordRecoverySkipsWhatTheLogAbsorbed(t *testing.T) {
	want := []int{0, 1, 2, 3, 4, 5}
	for k, step := range resumeSchedule {
		for j := 0; j <= len(step); j++ {
			c, wal, col := restoreAt(t, k, j)
			err := runResumeSchedule(c)
			c.Close()
			if err != nil {
				t.Fatalf("k=%d j=%d: resumed schedule: %v", k, j, err)
			}
			if !slices.Equal(col.seqs, want) {
				t.Errorf("k=%d j=%d: node received %v, want %v", k, j, col.seqs, want)
			}
			snap, err := ReadSnapshot(bytes.NewReader(wal.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			var phases, injected []int
			for _, rec := range snap.Records {
				switch rec.Kind {
				case wire.CkptPhase:
					phases = append(phases, int(rec.Phase))
				case wire.CkptInject:
					injected = append(injected, rec.Msg.(*testMsg).Seq)
				}
			}
			var wantPhases []int
			for i := k; i < len(resumeSchedule); i++ {
				wantPhases = append(wantPhases, i)
			}
			skipped := j
			for _, s := range resumeSchedule[:k] {
				skipped += len(s)
			}
			if !slices.Equal(phases, wantPhases) {
				t.Errorf("k=%d j=%d: continued log has barriers %v, want %v", k, j, phases, wantPhases)
			}
			if !slices.Equal(injected, want[skipped:]) {
				t.Errorf("k=%d j=%d: continued log injects %v, want %v", k, j, injected, want[skipped:])
			}
		}
	}
}

// TestCoordRecoveryRejectsOvercount: a log that holds more root
// injections of the interrupted phase than the resumed run makes fails
// that phase's Drain, naming the surplus, before anything more is
// delivered.
func TestCoordRecoveryRejectsOvercount(t *testing.T) {
	for k, step := range resumeSchedule {
		c, _, col := restoreAt(t, k, len(step)+1)
		delivered := len(col.seqs)
		err := runResumeSchedule(c)
		c.Close()
		want := fmt.Sprintf("the log holds 1 more root injection(s) of phase %d than the resumed run made", k)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("k=%d: resumed schedule = %v, want %q", k, err, want)
		}
		if len(col.seqs) != delivered {
			t.Errorf("k=%d: %d deliveries after the restore, want none", k, len(col.seqs)-delivered)
		}
	}
}

// TestRestoreRejectsStaleVersionCheckpoint: a version-5 log logs its
// injections as relay records this build no longer replays, so
// RestoreCoordinator refuses it with the version error before replaying a
// single record, and closes the listener it was handed.
func TestRestoreRejectsStaleVersionCheckpoint(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var delivered int64
	snap := &Snapshot{Records: []*wire.CkptRecord{
		{Kind: wire.CkptHeader, Version: 5, SessionBase: 0x770000,
			AssignIDs: []int32{1}, AssignWorkers: []int32{0}, PeerAddrs: []string{"127.0.0.1:1"}},
		{Kind: wire.CkptDelivery, From: int32(rt.NoNode), To: 2, Worker: -1, Msg: &testMsg{}},
	}}
	_, err = RestoreCoordinator(snap, map[rt.NodeID]rt.Actor{2: &countActor{n: &delivered}}, l, WithResumeWindow(time.Second))
	want := fmt.Sprintf("checkpoint version 5, this coordinator speaks %d", wire.CkptVersion)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("RestoreCoordinator on a version-5 header = %v, want %q", err, want)
	}
	if delivered != 0 {
		t.Errorf("replay delivered %d message(s) before rejecting the header", delivered)
	}
	if err := l.Close(); !errors.Is(err, net.ErrClosed) {
		t.Errorf("listener after a rejected restore: Close = %v, want net.ErrClosed", err)
	}
}

// TestRestoreRejectsMalformedLog feeds RestoreCoordinator logs that break
// replay in each of the ways it checks for: a record naming a worker the
// header does not have, a delivery whose destination is not
// coordinator-local, an injection for a node nobody hosts, a local actor's
// send or an injection's delivery that replay never regenerated, and an
// epoch that skips. Each must fail the restore with
// an error naming the problem, never a panic, and close the listener.
func TestRestoreRejectsMalformedLog(t *testing.T) {
	// Worker 0 hosts node 1; node 2 is coordinator-local.
	const remote, local = 1, 2
	cases := []struct {
		name string
		rec  *wire.CkptRecord
		want string
	}{
		{"mark-out-of-range", &wire.CkptRecord{Kind: wire.CkptMark, Worker: 1, Seq: 1}, "mark for nonexistent worker 1"},
		{"epoch-out-of-range", &wire.CkptRecord{Kind: wire.CkptEpoch, Worker: -1, SessEpoch: 1}, "epoch for nonexistent worker -1"},
		{"death-out-of-range", &wire.CkptRecord{Kind: wire.CkptDeath, Worker: 5}, "death for nonexistent worker 5"},
		{"delivery-to-worker-node",
			&wire.CkptRecord{Kind: wire.CkptDelivery, From: int32(rt.NoNode), To: remote, Worker: -1, Msg: &testMsg{}},
			"not coordinator-local"},
		{"inject-to-unknown-node",
			&wire.CkptRecord{Kind: wire.CkptInject, To: 9, Root: true, Msg: &testMsg{}},
			"for unknown node 9"},
		{"unregenerated-local-send",
			&wire.CkptRecord{Kind: wire.CkptDelivery, From: local, To: local, Worker: -1, Msg: &testMsg{}},
			"replay did not regenerate it"},
		{"uninjected-delivery",
			&wire.CkptRecord{Kind: wire.CkptDelivery, From: int32(rt.NoNode), To: local, Worker: -1, Msg: &testMsg{}},
			"replay did not regenerate it"},
		{"epoch-skips", &wire.CkptRecord{Kind: wire.CkptEpoch, Worker: 0, SessEpoch: 2, PeerEpoch: 1},
			"worker 0 at epoch 1, log says 2"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			snap := &Snapshot{Records: []*wire.CkptRecord{
				{Kind: wire.CkptHeader, Version: wire.CkptVersion, SessionBase: 0x770000,
					AssignIDs: []int32{remote}, AssignWorkers: []int32{0}, PeerAddrs: []string{"127.0.0.1:1"}},
				tc.rec,
			}}
			var delivered int64
			c, err := RestoreCoordinator(snap, map[rt.NodeID]rt.Actor{local: &countActor{n: &delivered}}, l,
				WithResumeWindow(time.Second))
			if err == nil {
				c.Close()
				t.Fatalf("RestoreCoordinator accepted the log; want an error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("RestoreCoordinator = %v, want an error containing %q", err, tc.want)
			}
			if err := l.Close(); !errors.Is(err, net.ErrClosed) {
				t.Errorf("listener after a rejected restore: Close = %v, want net.ErrClosed", err)
			}
		})
	}
}
