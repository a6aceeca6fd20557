package tcpnet

// Regression pins for transport bugs, the first three fixed alongside the
// p2p data plane:
//
//  1. the drain timeout measured absolute elapsed time instead of
//     inactivity, so a healthy run that simply took longer than the
//     timeout was killed while traffic was flowing;
//  2. pooled frame structs relied on every call site zeroing fields,
//     so a newly added field could leak values between frames;
//  3. a one-directional link under sustained load never acked — piggyback
//     acks need outbound traffic and idle acks need a blocking point, so
//     a stage handoff on a peer link ballooned the sender's retransmit
//     buffer until the session overflowed and lost resumability;
//  4. a peer hello that beat the acceptor's own assignment was dropped and
//     cost the dialer a fixed 100 ms retry delay;
//  5. a worker answered pings from its actor loop, so one long Receive got
//     a healthy worker declared dead.
//  6. a 4-byte length prefix made any listener — the coordinator's, or a
//     worker's peer listener — allocate up to 1 GiB before reading a byte.

import (
	"bytes"
	"errors"
	"io"
	"net"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	rt "ehjoin/internal/runtime"
)

// slowEcho bounces every message back after a fixed processing delay —
// a worker actor that makes real progress, just slowly.
type slowEcho struct {
	to    rt.NodeID
	delay time.Duration
}

func (s *slowEcho) Receive(env rt.Env, from rt.NodeID, m rt.Message) {
	time.Sleep(s.delay)
	env.Send(s.to, m)
}

// chainActor drives a strict ping-pong: each echo it receives triggers the
// next round, so exactly one message is in flight and progress is spread
// evenly across the whole drain instead of batched.
type chainActor struct {
	peer   rt.NodeID
	rounds int
	got    *int64
}

func (c *chainActor) Receive(env rt.Env, from rt.NodeID, m rt.Message) {
	atomic.AddInt64(c.got, 1)
	if seq := m.(*testMsg).Seq; seq+1 < c.rounds {
		env.Send(c.peer, &testMsg{Seq: seq + 1})
	}
}

// TestDrainTimeoutIsInactivityNotAbsolute pins the drain-timeout
// semantics: a drain that runs much longer than the timeout must succeed
// as long as progress keeps arriving within each timeout window. Before
// the fix the timer measured time since Drain started, so this run —
// 150 ping-pong rounds at 2ms each, under a 100ms timeout — was killed
// mid-flight despite never going quiet.
func TestDrainTimeoutIsInactivityNotAbsolute(t *testing.T) {
	server, client := tcpPair(t)
	const rounds = 150
	const delay = 2 * time.Millisecond
	const driver = rt.NodeID(50)
	workerDone := runTestWorker(firstConn(client, nil), map[rt.NodeID]rt.Actor{1: &slowEcho{to: driver, delay: delay}})
	const timeout = 100 * time.Millisecond
	c, err := NewCoordinator(nil, map[rt.NodeID]int{1: 0}, testListener(t), []net.Conn{server},
		WithDrainTimeout(timeout))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var got int64
	c.Register(driver, &chainActor{peer: 1, rounds: rounds, got: &got})

	c.Inject(1, &testMsg{Seq: 0})
	start := time.Now()
	if err := c.Drain(); err != nil {
		t.Fatalf("drain with continuous progress timed out after %v: %v", time.Since(start), err)
	}
	elapsed := time.Since(start)
	if atomic.LoadInt64(&got) != rounds {
		t.Fatalf("driver saw %d of %d rounds", got, rounds)
	}
	if elapsed < 2*timeout {
		t.Fatalf("drain finished in %v; the scenario must outlive the %v timeout to pin anything", elapsed, timeout)
	}
	c.Close()
	if err := <-workerDone; err != nil {
		t.Fatalf("worker exit: %v", err)
	}
}

// TestHeartbeatSurvivesLongReceive pins pongs off the actor loop: a worker
// whose actor spends 1 s inside one Receive — five heartbeat timeouts — is
// busy, not dead. The link reader answers the coordinator's pings
// meanwhile, so Drain completes with no death and no recovery rung. (A
// wedged actor loop is still caught: its inbox fills, the coordinator's
// outbox stalls, and the stall timeout fails the worker.)
func TestHeartbeatSurvivesLongReceive(t *testing.T) {
	server, client := tcpPair(t)
	const sink = rt.NodeID(50)
	workerDone := runTestWorker(firstConn(client, nil), map[rt.NodeID]rt.Actor{1: &slowEcho{to: sink, delay: time.Second}})
	c, err := NewCoordinator(nil, map[rt.NodeID]int{1: 0}, testListener(t), []net.Conn{server},
		WithHeartbeat(20*time.Millisecond, 200*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var got int64
	c.Register(sink, &countActor{n: &got})

	c.Inject(1, &testMsg{})
	if err := c.Drain(); err != nil {
		t.Fatalf("a long Receive failed the drain: %v", err)
	}
	if got != 1 {
		t.Fatalf("sink received %d of 1 echo", got)
	}
	if ts := c.TransportStats(); ts.Resumes != 0 || ts.FullReassigns != 0 {
		t.Errorf("resumes %d, full reassigns %d; want no recovery rung", ts.Resumes, ts.FullReassigns)
	}
	c.Close()
	if err := <-workerDone; err != nil {
		t.Fatalf("worker exit: %v", err)
	}
}

// TestAckDebtPeerLink pins the ack-debt bound on the receive site the bug
// was found on: a p2p peer link carrying a stage handoff. The link is
// one-directional — the receiving worker emits nothing back — so piggyback
// acks never happen, and under sustained load the event loop never reaches
// the blocking-point idle ack either. The receiver must volunteer a bare
// ack once ackDebtThreshold frames are unacknowledged, and (because the
// ack is encoded asynchronously by the link's writer goroutine) must not
// flood one ack per frame while the writer lags: with the outbox never
// drained, exactly one ack per threshold of inbound frames may appear.
func TestAckDebtPeerLink(t *testing.T) {
	var got int64
	lk := &link{
		idx:   1,
		sess:  newSession(1, 0, 0),
		state: linkLive,
		out:   make(chan *frame, 16),
	}
	w := &worker{
		coord:  &link{idx: -1, sess: newSession(0, 0, 0)},
		actors: map[rt.NodeID]rt.Actor{1: &countActor{n: &got}},
		p2p: &p2pState{
			self:          0,
			n:             2,
			links:         []*link{nil, lk},
			peerEmitted:   make([]int64, 2),
			peerProcessed: make([]int64, 2),
		},
	}
	deliver := func(seq uint64) {
		f := getFrame()
		f.Kind, f.From, f.To, f.Seq = frameMsg, 9, 1, seq
		f.Msg = &testMsg{Seq: int(seq)}
		if _, err := w.handleEvent(linkEvent{src: 1, gen: lk.gen, f: f}); err != nil {
			t.Fatalf("frame %d: %v", seq, err)
		}
	}

	const rounds = 4
	for seq := uint64(1); seq <= rounds*ackDebtThreshold; seq++ {
		deliver(seq)
		switch {
		case seq == ackDebtThreshold-1:
			if n := len(lk.out); n != 0 {
				t.Fatalf("ack volunteered at debt %d, below the threshold %d", seq, ackDebtThreshold)
			}
			if debt := lk.sess.ackDebt(); debt != seq {
				t.Fatalf("ack debt %d after %d unacked frames", debt, seq)
			}
		case seq%ackDebtThreshold == 0:
			if n := len(lk.out); uint64(n) != seq/ackDebtThreshold {
				t.Fatalf("%d acks queued after %d frames; want exactly one per %d",
					n, seq, ackDebtThreshold)
			}
		}
	}
	if int(got) != rounds*ackDebtThreshold {
		t.Fatalf("actor saw %d of %d deliveries", got, rounds*ackDebtThreshold)
	}
	for i := 0; i < rounds; i++ {
		f := <-lk.out
		if f.Kind != frameAck {
			t.Fatalf("queued frame %d has kind %d, want frameAck", i, f.Kind)
		}
		putFrame(f)
	}
}

// TestAckDebtCoordLink pins the same bound on the worker's coordinator
// link (a pure build-phase ingest stream: the coordinator delivers chunks,
// the worker emits nothing). Here the test plays a writer that keeps up —
// it encodes whatever the link queued after every frame — so the debt
// resets on the spot and the stream must carry exactly one ack per
// threshold of frames — no more, no fewer.
func TestAckDebtCoordLink(t *testing.T) {
	var got int64
	var wire bytes.Buffer
	sess := newSession(0, 0, 0)
	lk := &link{idx: -1, sess: sess, state: linkLive, out: make(chan *frame, 16)}
	enc := newSessionWriter(&wire, sess)
	w := &worker{
		coord:  lk,
		actors: map[rt.NodeID]rt.Actor{1: &countActor{n: &got}},
	}
	const frames = 600 // two full thresholds plus a tail that must stay silent
	for seq := uint64(1); seq <= frames; seq++ {
		f := getFrame()
		f.Kind, f.From, f.To, f.Seq = frameMsg, int32(rt.NoNode), 1, seq
		f.Msg = &testMsg{Seq: int(seq)}
		if _, err := w.handleEvent(linkEvent{src: -1, gen: lk.gen, f: f}); err != nil {
			t.Fatalf("frame %d: %v", seq, err)
		}
		for len(lk.out) > 0 {
			_ = enc.WriteFrame(<-lk.out)
		}
	}
	_ = enc.Flush()
	if int(got) != frames {
		t.Fatalf("actor saw %d of %d deliveries", got, frames)
	}
	r := newWireReader(&wire)
	var acks []uint64
	for {
		f, err := r.ReadFrame()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatalf("decoding the worker's output: %v", err)
		}
		if f.Kind != frameAck {
			t.Fatalf("worker emitted kind %d on a pure ingest stream, want only frameAck", f.Kind)
		}
		acks = append(acks, f.Ack)
		putFrame(f)
	}
	want := []uint64{ackDebtThreshold, 2 * ackDebtThreshold}
	if !reflect.DeepEqual(acks, want) {
		t.Fatalf("ingest stream carried acks %v, want %v", acks, want)
	}
}

// TestAckDebtCoordinatorSide pins the mirror-image site: a worker streams
// results up (probe-phase output) with nothing routed back to it, so the
// coordinator's apply loop must volunteer the ack. Frames are fed to apply
// directly — the drain loop only runs inside Drain — and the assertion
// reads the coordinator's actual output off the worker-side socket, so it
// covers the whole path: debt trigger, writer-goroutine encode, flush.
func TestAckDebtCoordinatorSide(t *testing.T) {
	server, client := tcpPair(t)
	advertisePeer(t, client)
	c, err := NewCoordinator(nil, map[rt.NodeID]int{1: 0}, testListener(t), []net.Conn{server})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var got int64
	const sink = rt.NodeID(50)
	c.Register(sink, &countActor{n: &got})

	r := newWireReader(client)
	f, err := r.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if f.Kind != frameAssign {
		t.Fatalf("first frame kind %d, want frameAssign", f.Kind)
	}
	putFrame(f)

	w := c.workers[0]
	for seq := uint64(1); seq <= 2*ackDebtThreshold; seq++ {
		f := getFrame()
		f.Kind, f.From, f.To, f.Seq = frameMsg, 1, int32(sink), seq
		f.Msg = &testMsg{Seq: int(seq)}
		c.apply(linkEvent{src: 0, gen: w.gen, f: f})
		if seq == ackDebtThreshold-1 {
			// No outbound traffic has acked anything yet: if any receive
			// below the threshold had volunteered, the debt would be short.
			if debt := w.sess.ackDebt(); debt != seq {
				t.Fatalf("ack debt %d after %d unacked frames: an ack fired below the threshold", debt, seq)
			}
		}
	}
	// Reading the socket is the synchronization: the volunteer ack must
	// come through the writer goroutine, and nothing else may be sent on a
	// one-directional stream — so the next frame is a bare ack covering at
	// least one full threshold. (Its exact cover depends on when the writer
	// got to it; the per-threshold pacing is pinned by the two synchronous
	// worker-side tests above.)
	_ = client.SetReadDeadline(time.Now().Add(5 * time.Second))
	af, err := r.ReadFrame()
	if err != nil {
		t.Fatalf("reading the volunteer ack: %v", err)
	}
	if af.Kind != frameAck || af.Ack < ackDebtThreshold {
		t.Fatalf("frame after the stream: kind %d ack %d, want a frameAck covering >= %d",
			af.Kind, af.Ack, ackDebtThreshold)
	}
	putFrame(af)
}

// TestPutFrameZeroesEveryField pins the pooled-frame hygiene invariant:
// putFrame must zero the whole struct, so a recycled frame can never leak
// a previous frame's fields — including fields added later (the reflect
// comparison against the zero value covers the full struct, whatever it
// grows to).
func TestPutFrameZeroesEveryField(t *testing.T) {
	for kind, fx := range kindFixtures() {
		f := getFrame()
		*f = *fx
		f.Seq, f.Ack = 7, 9 // fixtures leave the envelope zero; dirty it too
		putFrame(f)
		if !reflect.DeepEqual(*f, frame{}) {
			t.Errorf("kind %d: putFrame left residue: %+v", kind, *f)
		}
	}
}

// TestDirtyPooledFrameRoundTrip is the end-to-end version: decode a
// maximally populated frame of every kind, recycle it, then decode a
// minimal control frame and demand it carries nothing but its own fields.
// This is the exact path a leaked field would take into protocol logic —
// e.g. a stale Worker index or peer address book riding a framePing.
func TestDirtyPooledFrameRoundTrip(t *testing.T) {
	for kind := range kindFixtures() {
		var bb bytes.Buffer
		w := newWireWriter(&bb)
		if err := w.WriteFrame(kindFixtures()[kind]); err != nil {
			t.Fatalf("kind %d: encode: %v", kind, err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		r := newWireReader(&bb)
		rich, err := r.ReadFrame()
		if err != nil {
			t.Fatalf("kind %d: decode: %v", kind, err)
		}
		putFrame(rich) // back to the pool, possibly reused just below

		bb.Reset()
		w = newWireWriter(&bb)
		if err := w.WriteFrame(&frame{Kind: framePing}); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		r = newWireReader(&bb)
		ping, err := r.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		if want := (frame{Kind: framePing}); !reflect.DeepEqual(*ping, want) {
			t.Errorf("after recycling kind %d, a ping decoded with stale fields: %+v", kind, *ping)
		}
		putFrame(ping)
	}
}

// TestEarlyPeerHelloWaitsForAssignment pins the peer-link start-up race:
// worker 1 applies its assignment and dials worker 0 before worker 0 has
// applied its own. Worker 0 used to drop that hello (it did not know its
// index yet), the dialer read EOF and slept the fixed peerDialBackoff, and
// the first use of the link — heavy-hitter detection — started 100 ms
// late. The hello must wait for the assignment instead: one dial, and a
// live link within 25 ms of the assignment landing.
func TestEarlyPeerHelloWaitsForAssignment(t *testing.T) {
	const base = uint64(0xABCD) << 16
	newWorker := func() *worker {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		w := &worker{
			mux:   newMux(16),
			coord: &link{idx: -1, sess: newSession(0, 0, 0)},
			p2p:   &p2pState{self: -1, l: l},
		}
		t.Cleanup(w.teardown)
		return w
	}
	acceptor, dialer := newWorker(), newWorker()
	go acceptor.peerAcceptLoop(acceptor.p2p.l)
	var dials int64
	dialer.p2p.wrap = func(c net.Conn) net.Conn { atomic.AddInt64(&dials, 1); return c }
	assign := func(w *worker, self int32) {
		f := getFrame()
		f.Kind, f.Worker, f.Session = frameAssign, self, base
		f.Peers = []string{acceptor.p2p.l.Addr().String(), dialer.p2p.l.Addr().String()}
		f.Epochs = []uint32{1, 1}
		if err := w.applyP2PAssign(f); err != nil {
			t.Fatal(err)
		}
		putFrame(f)
	}
	pump := func(w *worker, ev linkEvent) {
		if _, err := w.handleEvent(ev); err != nil {
			t.Fatal(err)
		}
	}

	assign(dialer, 1) // spawns the dialer toward worker 0
	select {
	case ev := <-acceptor.inbox: // the hello, ahead of worker 0's assignment
		pump(acceptor, ev)
	case <-time.After(5 * time.Second):
		t.Fatal("no hello reached the acceptor")
	}
	assign(acceptor, 0) // late: the hello has already been handled

	deadline := time.After(25 * time.Millisecond)
	for dialer.p2p.links[0].state != linkLive {
		select {
		case ev := <-acceptor.inbox:
			pump(acceptor, ev)
		case ev := <-dialer.inbox:
			pump(dialer, ev)
		case <-deadline:
			t.Fatalf("peer link not live 25 ms after the acceptor's assignment (%d dial(s))", atomic.LoadInt64(&dials))
		}
	}
	if lk := acceptor.p2p.links[1]; lk.state != linkLive {
		t.Errorf("acceptor's end of the link is in state %d, want live", lk.state)
	}
	if n := atomic.LoadInt64(&dials); n != 1 {
		t.Errorf("dialer connected %d times, want 1: the early hello was dropped", n)
	}
}

// TestPeerListenerShedsOversizePrefix sends a worker's peer listener a
// frame prefix claiming a gigabyte, then EOF. The connection is closed,
// and the worker goes on serving: the next message is delivered with no
// recovery rung.
func TestPeerListenerShedsOversizePrefix(t *testing.T) {
	server, client := tcpPair(t)
	var got int64
	done := runTestWorker(firstConn(client, nil), map[rt.NodeID]rt.Actor{1: &countActor{n: &got}})
	c, err := NewCoordinator(nil, map[rt.NodeID]int{1: 0}, testListener(t), []net.Conn{server})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	conn, err := net.Dial("tcp", c.peerAddrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	oversizePrefix(t, conn)
	closedByPeer(t, conn, "oversize prefix on the peer listener")

	c.Inject(1, &testMsg{})
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	if got := atomic.LoadInt64(&got); got != 1 {
		t.Fatalf("worker delivered %d of 1 message after the hostile connection", got)
	}
	if ts := c.TransportStats(); ts.Resumes != 0 || ts.FullReassigns != 0 {
		t.Errorf("resumes %d, full reassigns %d; want no recovery rung", ts.Resumes, ts.FullReassigns)
	}
	c.Close()
	if err := <-done; err != nil {
		t.Fatalf("worker exit: %v", err)
	}
}
