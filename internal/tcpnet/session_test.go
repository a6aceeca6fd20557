package tcpnet

// Session-layer tests: retransmit-buffer bookkeeping, sequence dedup, and
// the recovery ladder's first two rungs exercised over real TCP with
// scripted chaos faults.

import (
	"net"
	"strings"
	"testing"
	"time"

	rt "ehjoin/internal/runtime"
)

func TestSessionRetransmitBuffer(t *testing.T) {
	s := newSession(7, 4, 1<<20)
	for i := 0; i < 4; i++ {
		if _, err := s.encode(&frame{Kind: frameMsg, To: 1, Msg: &testMsg{Seq: i}}); err != nil {
			t.Fatal(err)
		}
	}
	if len(s.buf) != 4 || !s.resumable() {
		t.Fatalf("after 4 sends: buf %d, resumable %v; want 4, true", len(s.buf), s.resumable())
	}
	s.peerAck(2)
	if len(s.buf) != 2 {
		t.Fatalf("after ack 2: buf holds %d frames, want 2", len(s.buf))
	}
	if got := s.unackedSince(3); len(got) != 1 {
		t.Fatalf("unackedSince(3): %d frames, want 1", len(got))
	}
	// Stale and duplicate acks must be no-ops.
	s.peerAck(1)
	s.peerAck(2)
	if len(s.buf) != 2 {
		t.Fatalf("stale ack trimmed the buffer to %d frames", len(s.buf))
	}
	// Three more unacked sends exceed maxFrames=4: eviction makes the
	// epoch non-resumable, permanently.
	for i := 4; i < 7; i++ {
		if _, err := s.encode(&frame{Kind: frameMsg, To: 1, Msg: &testMsg{Seq: i}}); err != nil {
			t.Fatal(err)
		}
	}
	if s.resumable() {
		t.Fatal("retransmit window overflowed but the session still claims to be resumable")
	}
	s.peerAck(6)
	if s.resumable() {
		t.Fatal("overflow flag must be sticky: a later ack cannot restore resumability")
	}
	if s.bumpEpoch() != 1 {
		t.Fatal("bumpEpoch: want epoch 1")
	}
	s.reset()
	if !s.resumable() || len(s.buf) != 0 || s.framesSent() != 0 {
		t.Fatalf("reset left state behind: resumable %v, buf %d, framesSent %d",
			s.resumable(), len(s.buf), s.framesSent())
	}
}

func TestSessionAcceptSeq(t *testing.T) {
	s := newSession(7, 0, 0)
	for seq := uint64(1); seq <= 3; seq++ {
		process, err := s.acceptSeq(seq)
		if err != nil || !process {
			t.Fatalf("acceptSeq(%d) = %v, %v; want process", seq, process, err)
		}
	}
	// Duplicates (a retransmission overlap) are silently shed and counted.
	for _, seq := range []uint64{1, 2, 3} {
		process, err := s.acceptSeq(seq)
		if err != nil || process {
			t.Fatalf("acceptSeq(dup %d) = %v, %v; want silent drop", seq, process, err)
		}
	}
	if s.dupes() != 3 {
		t.Fatalf("duplicate count %d, want 3", s.dupes())
	}
	// A gap means an undetected loss: the connection must fail, never
	// paper over it.
	if _, err := s.acceptSeq(5); err == nil {
		t.Fatal("acceptSeq(5) after 3: want a sequence-gap error")
	}
}

// resumePair returns a listening coordinator endpoint: the accepted server
// conn for NewCoordinator, the listener to hand to WithResume, and a dial
// function for the worker side.
func resumePair(t *testing.T) (net.Listener, net.Conn, net.Conn, func() (net.Conn, error)) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dial := func() (net.Conn, error) {
		return net.Dial("tcp", l.Addr().String())
	}
	type dialRes struct {
		c   net.Conn
		err error
	}
	ch := make(chan dialRes, 1)
	go func() {
		c, err := dial()
		ch <- dialRes{c, err}
	}()
	server, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	d := <-ch
	if d.err != nil {
		t.Fatal(d.err)
	}
	// The coordinator owns the listener (WithResume) and the conns; no
	// cleanup here beyond a safety net.
	t.Cleanup(func() { l.Close(); server.Close(); d.c.Close() })
	return l, server, d.c, dial
}

// TestResumeAfterTear is the ladder's rung 1 end to end: a chaos tear
// breaks the worker's connection mid-run; the worker redials and the
// session resumes by replaying only unacked frames. Every echo must arrive
// exactly once and in order, and the retransmit count must be strictly
// smaller than the total reliable-frame count — the acceptance criterion
// that resume is incremental, not a full re-send.
//
// The tear cuts the coordinator's end of the connection. Before offset
// 6000 that stream carries only the assignment and message frames — all
// 300 messages are written before the worker's echoes could owe a bare
// ack — so the tear always lands in a reliable frame the worker has not
// seen, and at least that frame must be retransmitted. (Torn on the worker's
// end, the cut could fall in a bare ack after everything was delivered,
// leaving nothing to retransmit.)
func TestResumeAfterTear(t *testing.T) {
	plan, err := ParseChaos("tear@6000")
	if err != nil {
		t.Fatal(err)
	}
	l, server, client, dial := resumePair(t)

	const sink = rt.NodeID(50)
	done := runTestWorker(client, map[rt.NodeID]rt.Actor{1: &echoActor{to: sink}},
		WithWorkerResume(dial, 10, 10*time.Millisecond))
	c, err := NewCoordinator(nil, map[rt.NodeID]int{1: 0}, []net.Conn{plan.Wrap(server)},
		WithResume(l, 5*time.Second),
		WithDrainTimeout(30*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	col := &seqActor{}
	c.Register(sink, col)

	const n = 300
	pad := make([]byte, 64)
	for i := 0; i < n; i++ {
		c.Inject(1, &testMsg{Seq: i, Pad: pad})
	}
	if err := c.Drain(); err != nil {
		t.Fatalf("Drain across the tear: %v", err)
	}
	if len(col.seqs) != n {
		t.Fatalf("collector holds %d of %d echoes", len(col.seqs), n)
	}
	for i, s := range col.seqs {
		if s != i {
			t.Fatalf("echo order violated at position %d: got seq %d (duplicate or loss)", i, s)
		}
	}
	stats := c.TransportStats()
	if stats.Resumes != 1 {
		t.Errorf("resumes %d, want exactly 1", stats.Resumes)
	}
	if stats.FullReassigns != 0 {
		t.Errorf("full reassigns %d, want 0 (resume must suffice)", stats.FullReassigns)
	}
	if stats.RetransmittedFrames < 1 {
		t.Error("no frames retransmitted across a mid-run tear")
	}
	if stats.RetransmittedFrames >= stats.FramesSent {
		t.Errorf("retransmitted %d of %d reliable frames: resume replayed everything instead of the unacked suffix",
			stats.RetransmittedFrames, stats.FramesSent)
	}
	c.Close()
	if err := <-done; err != nil {
		t.Fatalf("worker exit: %v", err)
	}
}

// TestResumeWindowOverflowFallsBack is rung 2: a worker that reads frames
// but never acks overflows the coordinator's 4-frame retransmit window;
// its resume attempt must be answered with a fresh assignment (not a
// resume), and the failure handler must see the death so the join layer
// runs its purge + re-stream recovery.
func TestResumeWindowOverflowFallsBack(t *testing.T) {
	l, server, client, dial := resumePair(t)
	advertisePeer(t, client)

	// Buffered beyond any plausible death count: the handler runs on the
	// drain loop, so it must never block (the scripted worker's final
	// connection close can raise a second, post-test death).
	causeCh := make(chan error, 8)
	c, err := NewCoordinator(nil, map[rt.NodeID]int{1: 0}, []net.Conn{server},
		WithResume(l, time.Second),
		WithRetransmitWindow(4, 1<<20),
		WithDrainTimeout(30*time.Second),
		WithFailureHandler(func(worker int, nodes []rt.NodeID, cause error) {
			causeCh <- cause
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 8 // twice the window: guarantees eviction of unacked frames
	workerErr := make(chan error, 1)
	go func() {
		workerErr <- func() error {
			r := newWireReader(client)
			var session uint64
			seen := 0
			for seen < n {
				f, err := r.ReadFrame()
				if err != nil {
					return err
				}
				if f.Kind == frameAssign {
					session = f.Session
				}
				if f.Kind == frameMsg {
					seen++
				}
				putFrame(f)
			}
			client.Close() // drop without ever having acked anything

			conn, err := dial()
			if err != nil {
				return err
			}
			defer conn.Close()
			w := newWireWriter(conn)
			hello := &frame{Kind: frameResume, Session: session, LastSeq: uint64(n), CanReplay: true}
			if err := w.WriteFrame(hello); err != nil {
				return err
			}
			if err := w.Flush(); err != nil {
				return err
			}
			r = newWireReader(conn)
			f, err := r.ReadFrame()
			if err != nil {
				return err
			}
			defer putFrame(f)
			if f.Kind != frameAssign {
				t.Errorf("overflowed session answered with frame kind %d, want a fresh assignment", f.Kind)
			}
			if f.Epoch != 1 {
				t.Errorf("reassignment carries epoch %d, want 1 (bumped)", f.Epoch)
			}
			return nil
		}()
	}()

	for i := 0; i < n; i++ {
		c.Inject(1, &testMsg{Seq: i})
	}
	if err := c.Drain(); err != nil {
		t.Fatalf("Drain across the fallback: %v", err)
	}
	if err := <-workerErr; err != nil {
		t.Fatalf("scripted worker: %v", err)
	}
	select {
	case cause := <-causeCh:
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

// TestResumeWindowExpiry is rung 3: with no redial inside the resume
// window, the worker is declared dead and the failure handler runs.
func TestResumeWindowExpiry(t *testing.T) {
	l, server, client, _ := resumePair(t)
	advertisePeer(t, client)

	causeCh := make(chan error, 1)
	c, err := NewCoordinator(nil, map[rt.NodeID]int{1: 0}, []net.Conn{server},
		WithResume(l, 300*time.Millisecond),
		WithDrainTimeout(30*time.Second),
		WithFailureHandler(func(worker int, nodes []rt.NodeID, cause error) {
			causeCh <- cause
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	c.Inject(1, &testMsg{Seq: 0})
	client.Close() // the "process" dies and never comes back
	if err := c.Drain(); err != nil {
		t.Fatalf("Drain across the expiry: %v", err)
	}
	select {
	case cause := <-causeCh:
		if !strings.Contains(cause.Error(), "no resume within") {
			t.Errorf("failure cause %q does not name the expired resume window", cause)
		}
	default:
		t.Fatal("failure handler never ran after the resume window expired")
	}
	if c.workers[0].state != stateDead {
		t.Fatalf("worker state %v after window expiry, want dead", c.workers[0].state)
	}
}
