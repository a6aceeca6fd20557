package tcpnet

// Hostile hellos on the three accept paths: the coordinator's bootstrap
// read (NewCoordinator), its resume listener (resumeHandshake →
// applyResume) and a worker's peer listener (peerAcceptHandshake →
// installPeerConn). Each path is sent a wrong session, a wrong or stale
// epoch, a digest mismatch (coordinator only: a peer hello carries no
// digest), a LastSeq past the frames sent, a LastSeq below the ack floor,
// and a slowloris that sends no bytes. None may take a rung-1 resume or
// trim a retransmitted frame, no goroutine may outlive the test, and a
// connection the path refuses is closed within the handshake deadline.

import (
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	rt "ehjoin/internal/runtime"
)

// hostileHello is one bad hello, built from the hello the path would
// accept; a nil edit is the slowloris, which sends nothing at all.
type hostileHello struct {
	name string
	edit func(f *frame)
}

// hostileHellos lists the bad hellos for a path whose sessions have sent 3
// frames with the ack floor at 1. digest is false on the peer path.
func hostileHellos(digest bool) []hostileHello {
	hs := []hostileHello{
		{"wrong session", func(f *frame) { f.Session ^= 1 << 40 }},
		{"wrong epoch", func(f *frame) { f.Epoch-- }},
		{"lastSeq past framesSent", func(f *frame) { f.LastSeq = 4 }},
		{"lastSeq below the ack floor", func(f *frame) { f.LastSeq = 0 }},
		{"slowloris", nil},
	}
	if digest {
		hs = append(hs, hostileHello{"digest mismatch", func(f *frame) { f.Digest ^= 1 }})
	}
	return hs
}

// sendHello dials with dial and writes h edited by edit (nothing for the
// slowloris), returning the connection and when it was opened.
func sendHello(t *testing.T, dial func() (net.Conn, error), h frame, edit func(*frame)) (net.Conn, time.Time) {
	t.Helper()
	conn, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if edit != nil {
		edit(&h)
		raw, err := appendFrame(nil, &h, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(raw); err != nil {
			t.Fatal(err)
		}
	}
	return conn, time.Now()
}

// closedInTime asserts the far end closed conn, sending nothing, within
// the handshake deadline (plus a second of slack) of since.
func closedInTime(t *testing.T, conn net.Conn, since time.Time) {
	t.Helper()
	limit := resumeHandshakeTimeout + time.Second
	_ = conn.SetReadDeadline(since.Add(limit))
	if n, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("read %d byte(s), %v; want the connection closed (EOF) within %v", n, err, limit)
	}
}

// noGoroutineLeft waits up to a second for the goroutine count to fall
// back to base.
func noGoroutineLeft(t *testing.T, base int) {
	t.Helper()
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > base; {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines left, %d before:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestHostileHelloBootstrap sends each bad hello where NewCoordinator
// reads a worker's first frame, its data-plane address. Nothing there has
// a session to resume: every hello fails the constructor, and the
// connection and the listener are closed.
func TestHostileHelloBootstrap(t *testing.T) {
	base := runtime.NumGoroutine()
	t.Run("paths", func(t *testing.T) {
		for _, hh := range hostileHellos(true) {
			t.Run(hh.name, func(t *testing.T) {
				t.Parallel()
				server, client := tcpPair(t)
				good := frame{Kind: frameCoordResume, Session: 7, Epoch: 1, LastSeq: 2, AckedSeq: 2,
					CanReplay: true, Digest: assignDigest(7, 1, []int32{1})}
				_, since := sendHello(t, firstConn(client, nil), good, hh.edit)
				if _, err := NewCoordinator(nil, map[rt.NodeID]int{1: 0}, testListener(t), []net.Conn{server}); err == nil {
					t.Fatal("NewCoordinator accepted a worker whose first frame is not its address")
				}
				closedInTime(t, client, since)
			})
		}
	})
	noGoroutineLeft(t, base)
}

// TestHostileHelloResumeListener sends each bad hello to a coordinator
// whose one worker died after reading the assignment and three messages
// and acking the first. The coordinator owns the epochs, so a hello that
// names the worker's live session but cannot replay is answered on rung 2
// — a fresh assignment under a bumped epoch, the worker's nodes handed to
// the failure handler — never with a resume. A hello naming no session, or
// none at all, closes its connection and leaves the session as it was: a
// correct hello afterwards resumes on rung 1 and replays frames 2 and 3.
func TestHostileHelloResumeListener(t *testing.T) {
	base := runtime.NumGoroutine()
	t.Run("paths", func(t *testing.T) {
		for _, hh := range hostileHellos(true) {
			t.Run(hh.name, func(t *testing.T) {
				t.Parallel()
				hostileResumeHello(t, hh)
			})
		}
	})
	noGoroutineLeft(t, base)
}

func hostileResumeHello(t *testing.T, hh hostileHello) {
	l, server, client, dial := resumePair(t)
	advertisePeer(t, client)
	deaths := make(chan error, 8)
	c, err := NewCoordinator(nil, map[rt.NodeID]int{1: 0}, l, []net.Conn{server},
		WithResumeWindow(30*time.Second), WithDrainTimeout(30*time.Second),
		WithFailureHandler(func(worker int, nodes []rt.NodeID, cause error) { deaths <- cause }))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const n = 3
	for i := 0; i < n; i++ {
		c.Inject(1, &testMsg{Seq: i})
	}
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
	// Ack frame 1, then die. Both events are in the inbox before Drain
	// starts, so the floor is in place before any hello is applied.
	ack, err := appendFrame(nil, &frame{Kind: frameAck}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Write(ack); err != nil {
		t.Fatal(err)
	}
	_ = client.Close()
	for len(c.inbox) < 2 {
		time.Sleep(time.Millisecond)
	}
	drained := make(chan error, 1)
	go func() { drained <- c.Drain() }()

	good := frame{Kind: frameCoordResume, Session: session, Epoch: epoch, LastSeq: 1, AckedSeq: 0,
		CanReplay: true, Digest: assignDigest(session, epoch, []int32{1})}
	conn, since := sendHello(t, dial, good, hh.edit)
	if hh.name == "wrong session" || hh.edit == nil {
		closedInTime(t, conn, since)
		// The session is untouched: the correct hello resumes from the
		// floor and replays both frames the worker never acked.
		conn, _ = sendHello(t, dial, good, func(*frame) {})
		rr := newWireReader(conn)
		f, err := rr.ReadFrame()
		if err != nil || f.Kind != frameResumeOK {
			t.Fatalf("correct hello after the bad one: %v, %v; want frameResumeOK", f, err)
		}
		putFrame(f)
		rep, err := appendFrame(nil, &frame{Kind: frameReport, Rep: workerReport{Processed: n}}, 1, n)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(rep); err != nil {
			t.Fatal(err)
		}
		if err := <-drained; err != nil {
			t.Fatal(err)
		}
		if s := c.TransportStats(); s.Resumes != 1 || s.RetransmittedFrames != 2 || s.FullReassigns != 0 {
			t.Errorf("resumes %d, retransmitted %d, reassigns %d; want 1, 2, 0",
				s.Resumes, s.RetransmittedFrames, s.FullReassigns)
		}
		select {
		case cause := <-deaths:
			t.Errorf("failure handler ran (%v)", cause)
		default:
		}
		return
	}
	f, err := newWireReader(conn).ReadFrame()
	if err != nil {
		t.Fatalf("reading the answer: %v", err)
	}
	if f.Kind != frameAssign || f.Epoch != epoch+1 {
		t.Fatalf("answered with frame kind %d at epoch %d; want a fresh assignment at epoch %d", f.Kind, f.Epoch, epoch+1)
	}
	putFrame(f)
	if err := <-drained; err != nil {
		t.Fatal(err)
	}
	if s := c.TransportStats(); s.Resumes != 0 || s.RetransmittedFrames != 0 || s.FullReassigns != 1 {
		t.Errorf("resumes %d, retransmitted %d, reassigns %d; want 0, 0, 1",
			s.Resumes, s.RetransmittedFrames, s.FullReassigns)
	}
	if cause := <-deaths; !strings.Contains(cause.Error(), "not resumable") {
		t.Errorf("failure cause %q does not name the verdict's reason", cause)
	}
}

// TestHostileHelloPeerListener sends each bad hello to a worker's peer
// listener, at the accepting end of a link that has sent frames 1–3 with
// frame 1 acked. The link must stay down with its buffer and floor as they
// were, and no resume may be counted. A wrong session or epoch is a
// dialer that has not caught up: the hello is dropped and the worker goes
// on. A position the buffer cannot serve is loss no peer link can mask:
// the worker fails, for the coordinator's recovery ladder to take over.
// The correct hello, sent last, resumes and replays frames 2 and 3.
func TestHostileHelloPeerListener(t *testing.T) {
	base := runtime.NumGoroutine()
	t.Run("paths", func(t *testing.T) {
		hs := append(hostileHellos(false), hostileHello{"correct", func(*frame) {}})
		for _, hh := range hs {
			t.Run(hh.name, func(t *testing.T) {
				t.Parallel()
				hostilePeerHello(t, hh)
			})
		}
	})
	noGoroutineLeft(t, base)
}

func hostilePeerHello(t *testing.T, hh hostileHello) {
	const sessBase = uint64(0xBEEF) << 16
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	w := &worker{mux: newMux(16), coord: &link{idx: -1, sess: newSession(0, 0, 0)}, p2p: &p2pState{self: -1, l: l}}
	defer w.teardown()
	go w.peerAcceptLoop(l)
	af := getFrame()
	af.Kind, af.Worker, af.Session = frameAssign, 0, sessBase
	af.Peers, af.Epochs = []string{l.Addr().String(), "127.0.0.1:1"}, []uint32{1, 1}
	if err := w.applyP2PAssign(af); err != nil {
		t.Fatal(err)
	}
	putFrame(af)
	lk := w.p2p.links[1] // accepting end: worker 1 dials worker 0
	for i := 0; i < 3; i++ {
		if err := lk.buffer(&frame{Kind: frameMsg, To: 1, Msg: &testMsg{Seq: i}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := lk.sess.peerAck(1); err != nil {
		t.Fatal(err)
	}
	good := frame{Kind: framePeerHello, From: 1, Session: lk.sess.id, Epoch: lk.sess.epoch, LastSeq: 1, CanReplay: true}
	conn, since := sendHello(t, func() (net.Conn, error) { return net.Dial("tcp", l.Addr().String()) }, good, hh.edit)
	if hh.edit != nil {
		select {
		case ev := <-w.inbox:
			if _, err := w.handleEvent(ev); err != nil {
				t.Fatal(err)
			}
		case <-time.After(resumeHandshakeTimeout):
			t.Fatal("the hello never reached the worker's loop")
		}
	}
	if hh.name == "correct" {
		r := newWireReader(conn)
		for _, want := range []uint64{0, 2, 3} { // the helloOK, then the replay
			f, err := r.ReadFrame()
			if err != nil || f.Seq != want || (want == 0) != (f.Kind == framePeerHelloOK) {
				t.Fatalf("correct hello: read %v, %v; want the frame with seq %d", f, err, want)
			}
			putFrame(f)
		}
		if lk.state != linkLive {
			t.Fatalf("correct hello left the link %v", lk.state)
		}
		return
	}
	closedInTime(t, conn, since)
	lk.sess.mu.Lock()
	buffered, acked := len(lk.sess.buf), lk.sess.acked
	lk.sess.mu.Unlock()
	if lk.state == linkLive || buffered != 2 || acked != 1 || w.p2p.resumes != 0 || w.retransmitted != 0 {
		t.Fatalf("link %v, %d buffered, acked %d, %d resumes, %d retransmitted; want down, 2, 1, 0, 0",
			lk.state, buffered, acked, w.p2p.resumes, w.retransmitted)
	}
	unservable := strings.HasPrefix(hh.name, "lastSeq")
	if (w.fatal != nil) != unservable || (unservable && !strings.Contains(w.fatal.Error(), "not resumable")) {
		t.Fatalf("worker error %v; want one naming the refusal exactly when the position cannot be served", w.fatal)
	}
}

// TestHostileResumeReplyTrimsNothing is the dialing end of the same
// check: a worker whose coordinator link has frames 1–3 buffered reads a
// resume reply. A position past the frames sent is refused before the
// reply's ack is applied, so nothing is trimmed; an ack past them is
// refused after the accepted position has trimmed exactly up to it. Each
// refusal hangs up and redials.
func TestHostileResumeReplyTrimsNothing(t *testing.T) {
	base := runtime.NumGoroutine()
	for _, c := range []struct {
		lastSeq, ack uint64
		buffered     int
		acked        uint64
	}{{4, 2, 3, 0}, {1, 10, 2, 1}} {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		w := &worker{mux: newMux(16), coord: &link{idx: -1, sess: newSession(0, 0, 0)},
			p2p:  &p2pState{self: -1, l: l},
			dial: func() (net.Conn, error) { return nil, io.ErrClosedPipe }}
		for i := 0; i < 3; i++ {
			if err := w.coord.buffer(&frame{Kind: frameMsg, To: 1, Msg: &testMsg{Seq: i}}); err != nil {
				t.Fatal(err)
			}
		}
		ours, theirs := net.Pipe()
		reply := getFrame()
		reply.Kind, reply.LastSeq, reply.Ack = frameResumeOK, c.lastSeq, c.ack
		if _, err := w.installCoordConn(linkEvent{gen: w.coord.gen, f: reply, hs: &handshake{conn: ours, r: newWireReader(ours)}}); err != nil {
			t.Fatal(err)
		}
		s := w.coord.sess
		s.mu.Lock()
		buffered, acked := len(s.buf), s.acked
		s.mu.Unlock()
		if buffered != c.buffered || acked != c.acked || w.coord.state == linkLive {
			t.Errorf("reply at %d acking %d: %d buffered, acked %d, link %v; want %d, %d, down",
				c.lastSeq, c.ack, buffered, acked, w.coord.state, c.buffered, c.acked)
		}
		if _, err := theirs.Read(make([]byte, 1)); err != io.EOF {
			t.Errorf("reply at %d acking %d: the connection is still open (%v)", c.lastSeq, c.ack, err)
		}
		w.teardown()
	}
	noGoroutineLeft(t, base)
}
