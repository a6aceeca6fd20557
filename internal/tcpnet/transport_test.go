package tcpnet

// Transport-level tests: they exercise the frame codec, the writer
// goroutine + bounded outbox, report coalescing, a resume that leaves
// healthy workers running, and the FIFO/flush discipline the quiescence
// predicate depends on — all below the join protocol, with synthetic
// actors.

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"io"
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	rt "ehjoin/internal/runtime"
	"ehjoin/internal/wire"
)

// testMsg is the synthetic payload; it rides the gob fallback codec.
type testMsg struct {
	Seq int
	Pad []byte
}

func (m *testMsg) WireSize() int { return 8 + len(m.Pad) }

func init() { gob.Register(&testMsg{}) }

// echoActor bounces every message to a fixed destination.
type echoActor struct{ to rt.NodeID }

func (e *echoActor) Receive(env rt.Env, from rt.NodeID, m rt.Message) { env.Send(e.to, m) }

// countActor counts deliveries; the counter is atomic so tests can watch
// it from other goroutines.
type countActor struct{ n *int64 }

func (c *countActor) Receive(env rt.Env, from rt.NodeID, m rt.Message) { atomic.AddInt64(c.n, 1) }

// seqActor records the Seq of every testMsg it receives, in arrival order.
type seqActor struct{ seqs []int }

func (s *seqActor) Receive(env rt.Env, from rt.NodeID, m rt.Message) {
	s.seqs = append(s.seqs, m.(*testMsg).Seq)
}

// tcpPair returns a connected loopback (server, client) pair.
func tcpPair(t *testing.T) (net.Conn, net.Conn) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	type dialRes struct {
		c   net.Conn
		err error
	}
	ch := make(chan dialRes, 1)
	go func() {
		c, err := net.Dial("tcp", l.Addr().String())
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
	t.Cleanup(func() { server.Close(); d.c.Close() })
	return server, d.c
}

// runTestWorker serves a worker over conn with the given actors, reporting
// RunWorker's result on the returned channel. Start it before
// NewCoordinator, which waits for the worker's bootstrap frame.
func runTestWorker(conn net.Conn, actors map[rt.NodeID]rt.Actor, opts ...WorkerOption) <-chan error {
	done := make(chan error, 1)
	opts = append([]WorkerOption{WithWorkerP2P("127.0.0.1:0")}, opts...)
	go func() {
		done <- RunWorker(conn, func(blob []byte, id rt.NodeID) (rt.Actor, error) {
			return actors[id], nil
		}, opts...)
	}()
	return done
}

// advertisePeer writes the bootstrap frame a worker opens its coordinator
// link with, so a scripted worker end gets past NewCoordinator's
// address-book read.
func advertisePeer(t *testing.T, conn net.Conn) {
	t.Helper()
	w := newWireWriter(conn)
	if err := w.WriteFrame(&frame{Kind: framePeerAddr, Addr: "127.0.0.1:1"}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	frames := []*frame{
		{Kind: frameAssign, Session: 0xABCD0001, Epoch: 3, CfgBlob: []byte("config bytes"), IDs: []int32{3, 1, 9}},
		{Kind: frameAssign, IDs: []int32{}},
		{Kind: frameMsg, From: -1, To: 7, Msg: &testMsg{Seq: 42, Pad: []byte{1, 2, 3}}},
		{Kind: frameReport, Processed: 123456789, Emitted: 987654321,
			WFrames: 11, WResumes: 2, WRetrans: 5, WChecksum: 1, WDups: 3},
		{Kind: framePing},
		{Kind: framePong},
		{Kind: frameResume, Session: 0xABCD0001, Epoch: 2, LastSeq: 77, CanReplay: true},
		{Kind: frameCoordResume, Session: 0xABCD0001, Epoch: 2, LastSeq: 77,
			AckedSeq: 70, Digest: 0x0123456789ABCDEF, CanReplay: true},
		{Kind: frameResumeOK, LastSeq: 1234},
		{Kind: frameAck},
		{Kind: frameShutdown},
	}
	var bb bytes.Buffer
	w := newWireWriter(&bb)
	for _, f := range frames {
		if err := w.WriteFrame(f); err != nil {
			t.Fatalf("WriteFrame kind %d: %v", f.Kind, err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := newWireReader(&bb)
	for i, want := range frames {
		got, err := r.ReadFrame()
		if err != nil {
			t.Fatalf("ReadFrame %d (kind %d): %v", i, want.Kind, err)
		}
		if got.Kind != want.Kind || !bytes.Equal(got.CfgBlob, want.CfgBlob) ||
			got.From != want.From || got.To != want.To ||
			got.Processed != want.Processed || got.Emitted != want.Emitted ||
			got.Session != want.Session || got.Epoch != want.Epoch ||
			got.LastSeq != want.LastSeq || got.CanReplay != want.CanReplay ||
			got.AckedSeq != want.AckedSeq || got.Digest != want.Digest ||
			got.WFrames != want.WFrames || got.WResumes != want.WResumes ||
			got.WRetrans != want.WRetrans || got.WChecksum != want.WChecksum ||
			got.WDups != want.WDups {
			t.Fatalf("frame %d: got %+v, want %+v", i, got, want)
		}
		if len(want.IDs) > 0 && !reflect.DeepEqual(got.IDs, want.IDs) {
			t.Fatalf("frame %d IDs: got %v, want %v", i, got.IDs, want.IDs)
		}
		if want.Msg != nil && !reflect.DeepEqual(got.Msg, want.Msg) {
			t.Fatalf("frame %d Msg: got %#v, want %#v", i, got.Msg, want.Msg)
		}
		putFrame(got)
	}
}

// TestFrameSequencing pins that a session writer sequences reliable frames
// (msg, report) and leaves control frames unsequenced, and that acks ride
// every outgoing frame.
func TestFrameSequencing(t *testing.T) {
	var bb bytes.Buffer
	s := newSession(42, 0, 0)
	w := newSessionWriter(&bb, s)
	s.lastSeqSeen = 9 // pretend we received frames 1..9 from the peer
	for _, f := range []*frame{
		{Kind: frameMsg, To: 1, Msg: &testMsg{Seq: 1}},
		{Kind: framePing},
		{Kind: frameReport, Processed: 1},
		{Kind: frameMsg, To: 1, Msg: &testMsg{Seq: 2}},
	} {
		if err := w.WriteFrame(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := newWireReader(&bb)
	wantSeqs := []uint64{1, 0, 2, 3}
	for i, wantSeq := range wantSeqs {
		f, err := r.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		if f.Seq != wantSeq {
			t.Errorf("frame %d: seq %d, want %d", i, f.Seq, wantSeq)
		}
		if f.Ack != 9 {
			t.Errorf("frame %d: ack %d, want 9", i, f.Ack)
		}
		putFrame(f)
	}
	if got := len(s.buf); got != 3 {
		t.Errorf("retransmit buffer holds %d frames, want 3 (control frames must not be buffered)", got)
	}
}

func TestFrameDecodeErrors(t *testing.T) {
	var bb bytes.Buffer
	w := newWireWriter(&bb)
	if err := w.WriteFrame(&frame{Kind: frameReport, Processed: 1, Emitted: 2}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	full := bb.Bytes()
	for cut := 1; cut < len(full); cut++ {
		r := newWireReader(bytes.NewReader(full[:cut]))
		_, err := r.ReadFrame()
		if err == nil {
			t.Fatalf("frame truncated to %d of %d bytes decoded without error", cut, len(full))
		}
		if !errors.Is(err, wire.ErrTruncated) {
			t.Fatalf("truncation to %d bytes: got %v, want ErrTruncated", cut, err)
		}
		if errors.Is(err, io.EOF) {
			t.Fatalf("truncation to %d bytes must not look like a clean close: %v", cut, err)
		}
	}
	// A clean close at a frame boundary is bare io.EOF — the one
	// stream-end the worker may treat as shutdown.
	r := newWireReader(bytes.NewReader(full))
	if f, err := r.ReadFrame(); err != nil {
		t.Fatal(err)
	} else {
		putFrame(f)
	}
	if _, err := r.ReadFrame(); err != io.EOF {
		t.Fatalf("clean close: got %v, want bare io.EOF", err)
	}

	r = newWireReader(bytes.NewReader([]byte{0, 0, 0, 0}))
	if _, err := r.ReadFrame(); !errors.Is(err, wire.ErrBadLength) {
		t.Errorf("zero-length frame: got %v, want ErrBadLength", err)
	}
	r = newWireReader(bytes.NewReader([]byte{1, 0, 0, 0, 99}))
	if _, err := r.ReadFrame(); !errors.Is(err, wire.ErrBadLength) {
		t.Errorf("sub-minimum frame length: got %v, want ErrBadLength", err)
	}
}

// TestFrameCorruptionDetected flips every byte of an encoded frame in turn;
// the reader must reject each mutation with a typed error (checksum, bad
// length, or truncation) and must never panic or silently accept it.
func TestFrameCorruptionDetected(t *testing.T) {
	var bb bytes.Buffer
	w := newWireWriter(&bb)
	if err := w.WriteFrame(&frame{Kind: frameMsg, From: 2, To: 7,
		Msg: &testMsg{Seq: 5, Pad: []byte("payload bytes here")}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	full := bb.Bytes()
	for i := range full {
		for _, flip := range []byte{0x01, 0xFF} {
			mut := append([]byte(nil), full...)
			mut[i] ^= flip
			r := newWireReader(bytes.NewReader(mut))
			f, err := r.ReadFrame()
			if err == nil {
				// Only acceptable if a length-prefix mutation made the
				// frame shorter but internally consistent — impossible
				// with a CRC over the whole body.
				t.Fatalf("byte %d ^ %#x: corrupted frame decoded without error (%+v)", i, flip, f)
			}
			if !errors.Is(err, wire.ErrChecksum) && !errors.Is(err, wire.ErrBadLength) &&
				!errors.Is(err, wire.ErrTruncated) {
				t.Fatalf("byte %d ^ %#x: untyped decode error %v", i, flip, err)
			}
		}
	}
}

// TestAssignmentIDsSorted pins reproducible worker assignments: whatever
// order the assignment map iterates in, each worker's id list ships
// sorted. (Before this was pinned, actor construction order — and with it
// recovery behaviour — varied run to run.)
func TestAssignmentIDsSorted(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		server, client := net.Pipe()
		go func() {
			w := newWireWriter(client)
			_ = w.WriteFrame(&frame{Kind: framePeerAddr, Addr: "127.0.0.1:1"})
			_ = w.Flush()
			r := newWireReader(client)
			for {
				f, err := r.ReadFrame()
				if err != nil {
					return
				}
				putFrame(f)
			}
		}()
		assignment := map[rt.NodeID]int{5: 0, 1: 0, 4: 0, 2: 0, 3: 0, 11: 1, 10: 1}
		c, err := NewCoordinator(nil, assignment, []net.Conn{server, dummyConn(t)})
		if err != nil {
			t.Fatal(err)
		}
		if want := []int32{1, 2, 3, 4, 5}; !reflect.DeepEqual(c.perWorker[0], want) {
			t.Fatalf("trial %d: worker 0 ids %v, want %v", trial, c.perWorker[0], want)
		}
		if want := []int32{10, 11}; !reflect.DeepEqual(c.perWorker[1], want) {
			t.Fatalf("trial %d: worker 1 ids %v, want %v", trial, c.perWorker[1], want)
		}
		c.Close()
		client.Close()
	}
}

// dummyConn is a loopback connection whose far side advertises a peer
// address and then just discards input.
func dummyConn(t *testing.T) net.Conn {
	t.Helper()
	server, client := tcpPair(t)
	advertisePeer(t, client)
	go func() {
		buf := make([]byte, 4096)
		for {
			if _, err := client.Read(buf); err != nil {
				return
			}
		}
	}()
	return server
}

// TestDeadWorkerHeartbeatNotReset pins that Drain's heartbeat-window reset
// skips tombstoned workers: resurrecting lastHeard on a dead worker made
// monitoring state lie about when the worker was last seen.
func TestDeadWorkerHeartbeatNotReset(t *testing.T) {
	c, err := NewCoordinator(nil, map[rt.NodeID]int{1: 0, 2: 1},
		[]net.Conn{dummyConn(t), dummyConn(t)},
		WithHeartbeat(time.Hour, time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	long := time.Now().Add(-time.Hour)
	dead, live := c.workers[0], c.workers[1]
	dead.state = stateDead
	dead.lastHeard = long
	live.lastHeard = long
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	if !dead.lastHeard.Equal(long) {
		t.Errorf("Drain reset lastHeard on a dead worker (moved by %v)", dead.lastHeard.Sub(long))
	}
	if live.lastHeard.Equal(long) {
		t.Error("Drain did not reset lastHeard on a live worker")
	}
}

// recordingConn captures everything written through it (the worker→
// coordinator stream) so tests can count frames by kind. Reads wait for
// gate to close, so a backlog can build up before the worker sees any of
// it.
type recordingConn struct {
	net.Conn
	gate chan struct{}
	mu   sync.Mutex
	buf  bytes.Buffer
}

func (c *recordingConn) Read(p []byte) (int, error) {
	<-c.gate
	return c.Conn.Read(p)
}

func (c *recordingConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.buf.Write(p)
	c.mu.Unlock()
	return c.Conn.Write(p)
}

// countFrames parses the captured stream and counts frames of one kind.
func (c *recordingConn) countFrames(t *testing.T, kind frameKind) int {
	t.Helper()
	c.mu.Lock()
	data := append([]byte(nil), c.buf.Bytes()...)
	c.mu.Unlock()
	count := 0
	for len(data) > 0 {
		if len(data) < frameHeaderLen {
			t.Fatalf("captured stream ends mid-header (%d bytes left)", len(data))
		}
		n := int(binary.LittleEndian.Uint32(data))
		data = data[frameHeaderLen:]
		if n < minBodyLen || n > len(data) {
			t.Fatalf("captured stream has bad frame length %d (%d bytes left)", n, len(data))
		}
		if frameKind(data[envelopeLen]) == kind {
			count++
		}
		data = data[n:]
	}
	return count
}

// TestReportCoalescing pins the fix for the report storm: a worker handed a
// pipelined batch of n messages must not send one report per message, only
// one per blocking point. The messages are injected (and sitting in socket
// buffers) before the worker reads anything, so their delivery is
// maximally pipelined and the worker sees a full inbox throughout.
func TestReportCoalescing(t *testing.T) {
	server, client := tcpPair(t)
	rec := &recordingConn{Conn: client, gate: make(chan struct{})}
	var got int64
	workerDone := runTestWorker(rec, map[rt.NodeID]rt.Actor{1: &countActor{n: &got}})

	c, err := NewCoordinator(nil, map[rt.NodeID]int{1: 0}, []net.Conn{server})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 200
	for i := 0; i < n; i++ {
		c.Inject(1, &testMsg{Seq: i})
	}
	// Give the writer goroutine time to push the batch into the socket
	// buffers, then let the worker read the backlog.
	time.Sleep(50 * time.Millisecond)
	close(rec.gate)

	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	if atomic.LoadInt64(&got) != n {
		t.Fatalf("worker processed %d of %d messages", got, n)
	}
	reports := rec.countFrames(t, frameReport)
	if reports < 1 {
		t.Fatal("worker sent no reports; Drain should not have returned")
	}
	if reports > n/4 {
		t.Errorf("worker sent %d reports for %d pipelined messages; want coalescing (≤ %d)",
			reports, n, n/4)
	}
	c.Close()
	if err := <-workerDone; err != nil {
		t.Fatalf("worker exit: %v", err)
	}
}

// TestWritePathNoDeadlockUnderBackpressure reproduces the mutual write
// stall: a tiny coordinator inbox stops readLoop, echo traffic fills the
// sockets in both directions, and on the old transport route's blocking
// encode deadlocked against the worker's blocked Send. The writer
// goroutine + bounded outbox (with the drain loop servicing its inbox
// while an outbox is full) must complete the run instead.
func TestWritePathNoDeadlockUnderBackpressure(t *testing.T) {
	server, client := tcpPair(t)
	const sink = rt.NodeID(50)
	workerDone := runTestWorker(client, map[rt.NodeID]rt.Actor{1: &echoActor{to: sink}})

	c, err := NewCoordinator(nil, map[rt.NodeID]int{1: 0}, []net.Conn{server},
		WithInboxFrames(2),
		WithDrainTimeout(30*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var got int64
	c.Register(sink, &countActor{n: &got})

	// 64 × 256 KiB echoes ≈ 16 MiB each way: far beyond what socket
	// buffers absorb, so both directions hit real TCP backpressure.
	const n = 64
	pad := make([]byte, 256<<10)
	for i := 0; i < n; i++ {
		c.Inject(1, &testMsg{Seq: i, Pad: pad})
	}
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	if got != n {
		t.Fatalf("sink received %d of %d echoes", got, n)
	}
	c.Close()
	if err := <-workerDone; err != nil {
		t.Fatalf("worker exit: %v", err)
	}
}

// TestRedialDoesNotStallHealthyWorkers pins that recovery happens off the
// drain loop: while one worker sits in its resume window (disconnected,
// its redial blocked until released), echo traffic through the other
// worker must keep flowing. The redial is released only once every echo
// through the healthy worker has round-tripped — proof the drain loop
// served it meanwhile — and the doomed worker then resumes on rung 1, so
// Drain finishes with no death.
func TestRedialDoesNotStallHealthyWorkers(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	pair := func() (net.Conn, net.Conn) {
		client, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		server, err := l.Accept()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { server.Close(); client.Close() })
		return server, client
	}
	doomedServer, doomedClient := pair()
	healthyServer, healthyClient := pair()

	release := make(chan struct{})
	redial := func() (net.Conn, error) {
		<-release
		return net.Dial("tcp", l.Addr().String())
	}
	var got int64
	const sink = rt.NodeID(50)
	const n = 50
	doomedDone := runTestWorker(doomedClient, map[rt.NodeID]rt.Actor{1: &echoActor{to: sink}},
		WithWorkerResume(redial, 1, time.Millisecond))
	healthyDone := runTestWorker(healthyClient, map[rt.NodeID]rt.Actor{2: &echoActor{to: sink}})

	deaths := make(chan error, 2)
	c, err := NewCoordinator(nil, map[rt.NodeID]int{1: 0, 2: 1},
		[]net.Conn{doomedServer, healthyServer},
		WithResume(l, 30*time.Second),
		WithDrainTimeout(30*time.Second),
		WithFailureHandler(func(worker int, nodes []rt.NodeID, cause error) {
			deaths <- cause
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Register(sink, &countActor{n: &got})

	// One round trip through the doomed worker first: it holds its
	// assignment, so losing the connection leaves state worth resuming.
	c.Inject(1, &testMsg{Seq: -1})
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	// Kill the doomed worker's connection; its redial blocks until every
	// echo through the healthy worker is back. The message for the doomed
	// worker keeps Drain from passing the barrier before the resume.
	doomedClient.Close()
	go func() {
		for atomic.LoadInt64(&got) < 1+n {
			time.Sleep(time.Millisecond)
		}
		close(release)
	}()

	c.Inject(1, &testMsg{Seq: -2})
	for i := 0; i < n; i++ {
		c.Inject(2, &testMsg{Seq: i})
	}
	if err := c.Drain(); err != nil {
		t.Fatalf("Drain across the resume window: %v", err)
	}
	if got != 2+n {
		t.Fatalf("sink received %d of %d echoes", got, 2+n)
	}
	if stats := c.TransportStats(); stats.Resumes != 1 || stats.FullReassigns != 0 {
		t.Errorf("resumes %d, full reassigns %d; want 1 and 0", stats.Resumes, stats.FullReassigns)
	}
	select {
	case cause := <-deaths:
		t.Errorf("failure handler ran (%v): the doomed worker should have resumed", cause)
	default:
	}
	if c.workers[0].state != stateLive {
		t.Fatalf("doomed worker state %v after its resume, want live", c.workers[0].state)
	}
	c.Close()
	for name, done := range map[string]<-chan error{"doomed": doomedDone, "healthy": healthyDone} {
		if err := <-done; err != nil {
			t.Errorf("%s worker exit: %v", name, err)
		}
	}
}

// TestQuiescenceFIFOOrdering pins the property the quiescence predicate
// depends on: buffering and coalescing must preserve per-connection FIFO
// order, and Drain must not return while a flushed-but-unprocessed frame
// is still in flight. Every injected message round-trips through a remote
// echo; when Drain returns, the local collector must hold every sequence
// number, in order — a report overtaking the messages it follows, or an
// early flush being lost, breaks the count or the order.
func TestQuiescenceFIFOOrdering(t *testing.T) {
	server, client := tcpPair(t)
	const sink = rt.NodeID(50)
	workerDone := runTestWorker(client, map[rt.NodeID]rt.Actor{1: &echoActor{to: sink}})
	c, err := NewCoordinator(nil, map[rt.NodeID]int{1: 0}, []net.Conn{server})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	col := &seqActor{}
	c.Register(sink, col)

	const rounds, perRound = 3, 500
	next := 0
	for round := 0; round < rounds; round++ {
		for i := 0; i < perRound; i++ {
			c.Inject(1, &testMsg{Seq: next})
			next++
		}
		if err := c.Drain(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		// Quiescence means every echo is back: no in-flight frames.
		if len(col.seqs) != next {
			t.Fatalf("round %d: Drain returned with %d of %d echoes delivered",
				round, len(col.seqs), next)
		}
	}
	for i, s := range col.seqs {
		if s != i {
			t.Fatalf("echo order violated at position %d: got seq %d", i, s)
		}
	}
	c.Close()
	if err := <-workerDone; err != nil {
		t.Fatalf("worker exit: %v", err)
	}
}
