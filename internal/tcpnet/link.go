package tcpnet

import (
	"errors"
	"net"
	"time"

	rt "ehjoin/internal/runtime"
	wire "ehjoin/internal/wire"
)

// A link is one end of one connection, and every connection in a run has
// a link at each end: the coordinator holds one per worker, a worker holds
// one toward the coordinator and one per peer. The link owns the
// connection mechanics all four ends share:
//
//   - a reader goroutine that decodes frames into its owner's merged inbox
//     and answers pings itself;
//   - a writer goroutine behind a bounded outbox, which batches frames and
//     flushes exactly when the outbox runs dry;
//   - the session (sequencing, retransmit buffer, dedup), its receive gate
//     and its ack policy;
//   - start, retire, and a down state in which reliable frames are
//     sequenced straight into the retransmit buffer for replay on resume.
//
// The owners keep what is theirs: quiescence counters, the write-ahead log,
// recovery decisions, peer epochs and node ownership. Links are owned by
// one event loop (the coordinator's Drain, a worker's RunWorker) and are not
// safe for concurrent use; the goroutines they spawn share only the session
// (mutex-guarded) and channels.

// linkStallTimeout bounds how long a worker's full outbox may refuse a
// frame before the link is retired to the session buffer and
// re-established; the coordinator's bound is its heartbeat timeout (see
// Coordinator.stallTimeout).
const linkStallTimeout = 10 * time.Second

// linkState is the lifecycle of one link.
type linkState uint8

const (
	linkDown linkState = iota // no connection: reliable frames sequence into the session buffer
	linkLive                  // a connection, with its reader and writer running
	linkDead                  // the far end was declared dead: nothing more is sent or accepted
)

func (s linkState) String() string { return [...]string{"down", "live", "dead"}[s] }

// handshake is a fresh connection a dial or accept goroutine hands to the
// event loop. r already holds any bytes read past the handshake frame. A
// dialer whose schedule ran out posts one with no connection.
type handshake struct {
	conn net.Conn
	r    *wireReader
}

// readHandshake reads one handshake frame from a fresh connection, under
// the handshake deadline.
func readHandshake(conn net.Conn, r *wireReader) (*frame, error) {
	_ = conn.SetReadDeadline(time.Now().Add(resumeHandshakeTimeout))
	f, err := r.ReadFrame()
	_ = conn.SetReadDeadline(time.Time{})
	return f, err
}

// linkEvent is one entry in an event loop's merged inbox: a decoded frame,
// or the final read error, from the reader of link src's connection
// generation gen — or, with hs set, a handshake outcome whose hello (or
// hello reply) is f. The coordinator's inbox holds 65536 of these, and the
// garbage collector scans all of it, so the fields are packed into 40
// bytes.
type linkEvent struct {
	f   *frame
	err error
	hs  *handshake
	gen int32
	src int16 // the link: a worker index (< MaxWorkers), or -1 for a worker's coordinator link and for resume hellos
	// more: the reader already holds bytes of the next frame, so the batch
	// this frame belongs to is still arriving.
	more bool
}

// drop releases an event nobody will apply: the frame goes back to the
// pool, and a handshake's connection, if it has one, is closed.
func (ev linkEvent) drop() {
	if ev.f != nil {
		putFrame(ev.f)
	}
	if ev.hs != nil && ev.hs.conn != nil {
		_ = ev.hs.conn.Close()
	}
}

// mux is one event loop's merged inbox. pending holds the events deferred
// while a full outbox was draining; they are applied first, in arrival
// order. done closes at shutdown, so no reader or handshake blocks forever
// posting to a loop that has stopped reading.
type mux struct {
	inbox   chan linkEvent
	pending []linkEvent
	done    chan struct{}
}

func newMux(frames int) mux {
	return mux{inbox: make(chan linkEvent, frames), done: make(chan struct{})}
}

// poll returns the oldest deferred event, else one already waiting in the
// inbox, without blocking.
func (m *mux) poll() (linkEvent, bool) {
	if len(m.pending) > 0 {
		ev := m.pending[0]
		m.pending[0] = linkEvent{}
		m.pending = m.pending[1:]
		return ev, true
	}
	select {
	case ev := <-m.inbox:
		return ev, true
	default:
		return linkEvent{}, false
	}
}

// post hands a handshake outcome to the loop, or closes its connection if
// the loop shuts down (or cancel closes) first. Shutdown is checked before
// the post, so a loop that has shut stops taking handshakes.
func (m *mux) post(ev linkEvent, cancel <-chan struct{}) {
	select {
	case <-m.done:
	case <-cancel:
	default:
		select {
		case m.inbox <- ev:
			return
		case <-m.done:
		case <-cancel:
		}
	}
	ev.drop()
}

// shut stops every reader and handshake goroutine posting to the loop and
// closes the connections of handshake events still queued: their far ends
// would otherwise sit out the handshake deadline. Idempotent.
func (m *mux) shut() {
	select {
	case <-m.done:
		return
	default:
	}
	close(m.done)
	for {
		ev, ok := m.poll()
		if !ok {
			return
		}
		ev.drop()
	}
}

// link is one connection end; see the comment at the top of this file.
type link struct {
	idx   int // the far end: a worker index, or -1 for a worker's coordinator link
	sess  *session
	conn  net.Conn
	out   chan *frame   // writer outbox; non-nil only while live
	wdone chan struct{} // closed when the writer has exited
	gen   int32         // bumped whenever a connection is installed or retired; older events are stale
	state linkState

	stop     chan struct{} // cancels the link's dialer goroutine, if any
	everLive bool          // live before in this epoch: the next start is a resume (peer links)

	checksumFails int64 // corrupted frames this link's readers rejected
}

// start installs conn as the live connection. The writer puts first (the
// handshake reply or assignment that must lead) and then retrans (the
// unacked suffix being replayed) on the wire before anything queued; the
// reader posts to m until the connection fails or m shuts.
func (l *link) start(conn net.Conn, r *wireReader, first *frame, retrans [][]byte, m *mux) {
	l.conn = conn
	l.state = linkLive
	l.gen++
	l.out = make(chan *frame, defaultOutboxFrames)
	l.wdone = make(chan struct{})
	pong := make(chan struct{}, 1)
	go writeLoop(conn, newSessionWriter(conn, l.sess), l.out, pong, l.wdone, first, retrans)
	go readLoop(int16(l.idx), l.gen, r, m.inbox, pong, m.done)
}

// retire tears the connection down: the socket closes first (a writer
// blocked on a wedged peer returns), then the writer drains the outbox
// into the session's retransmit buffer and exits, so no reliable frame is
// lost. A pending dialer is cancelled, and the generation bump makes
// events still in flight from the old connection stale. A live link is
// left down; a dead one stays dead.
func (l *link) retire() {
	if l.stop != nil {
		close(l.stop)
		l.stop = nil
	}
	if l.state == linkLive {
		_ = l.conn.Close()
		close(l.out)
		<-l.wdone
		l.out = nil
		l.state = linkDown
	}
	l.gen++
}

// shutdown closes a live link cleanly: last goes out behind everything
// already queued, the writer flushes it all, and only then does the
// socket close. A jammed outbox drops last; the close still delivers EOF,
// which the far end reads as a clean shutdown too.
func (l *link) shutdown(last frameKind) {
	if l.state != linkLive {
		return
	}
	l.offer(last)
	close(l.out)
	<-l.wdone
	_ = l.conn.Close()
	l.out = nil
	l.state = linkDown
	l.gen++
}

// offer queues a bare frame of kind k if the outbox has room and drops it
// otherwise. Acks and the shutdown frame are best-effort: a full outbox is
// traffic already in flight, which carries the ack.
func (l *link) offer(k frameKind) {
	if l.state != linkLive {
		return
	}
	f := getFrame()
	f.Kind = k
	select {
	case l.out <- f:
	default:
		putFrame(f)
	}
}

// send queues f on the live outbox. The fast path never blocks. While the
// outbox is full the owner's loop keeps servicing its inbox, deferring
// events to m.pending in arrival order, so the far end's writes — and so
// its reads, and so this outbox — keep moving and two ends flooding each
// other cannot write-deadlock. It reports false, leaving f with the
// caller, when the outbox accepted nothing for the whole stall timeout.
func (l *link) send(f *frame, m *mux, stall time.Duration) bool {
	select {
	case l.out <- f:
		return true
	default:
	}
	t := time.NewTimer(stall)
	defer t.Stop()
	for {
		select {
		case l.out <- f:
			return true
		case ev := <-m.inbox:
			m.pending = append(m.pending, ev)
		case <-t.C:
			return false
		}
	}
}

// buffer sequences f straight into the retransmit buffer of a link that
// has no connection, to be replayed in order with everything before it
// when the link resumes. It takes ownership of f.
func (l *link) buffer(f *frame) error {
	_, err := l.sess.encode(f)
	if r, ok := f.Msg.(rt.Releaser); ok && err == nil {
		r.Release()
	}
	putFrame(f)
	return err
}

// receive runs the session's receive gate on an event from this link's
// reader. It returns the frame to apply; or nil and no error for an event
// from a retired connection or a duplicate from a retransmission overlap
// (recycled here); or the connection's read error, a sequence gap —
// loss the session failed to mask — or an ack for a frame never sent, for
// the owner to treat as a broken connection. The frame's piggybacked ack
// trims the retransmit buffer.
func (l *link) receive(ev linkEvent) (*frame, error) {
	if ev.gen != l.gen || l.state != linkLive {
		if ev.f != nil {
			putFrame(ev.f)
		}
		return nil, nil
	}
	if ev.err != nil {
		if errors.Is(ev.err, wire.ErrChecksum) {
			l.checksumFails++
		}
		return nil, ev.err
	}
	f := ev.f
	if err := l.sess.peerAck(f.Ack); err != nil {
		putFrame(f)
		return nil, err
	}
	if f.Seq > 0 {
		ok, err := l.sess.acceptSeq(f.Seq)
		if err != nil || !ok {
			putFrame(f)
			return nil, err
		}
	}
	return f, nil
}

// payAckDebt runs after every applied reliable frame. A receive direction
// that is busy while its send direction is silent — a stage handoff on a
// peer link, a build-phase ingest, results streaming up — gets no
// piggyback acks, and its loop may never reach an idle ack, so once
// ackDebtThreshold frames are unacknowledged the link volunteers a bare
// one. The writer encodes it asynchronously and the debt only resets then:
// the modulo keeps the trigger to one ack per threshold of inbound frames
// meanwhile.
func (l *link) payAckDebt() {
	if debt := l.sess.ackDebt(); debt >= ackDebtThreshold && debt%ackDebtThreshold == 0 {
		l.offer(frameAck)
	}
}

// idleAck offers a bare ack when frames were received that nothing sent
// since has acknowledged, so the far end's retransmit buffer keeps
// trimming during one-sided traffic. A frame already queued is enough: the
// writer stamps the ack when it encodes it. Owners call idleAck at their
// blocking points and on the session tick.
func (l *link) idleAck() {
	if l.state == linkLive && len(l.out) == 0 && l.sess.needAck() {
		l.offer(frameAck)
	}
}

// writeLoop owns one connection's buffered writer: it batches queued
// frames and flushes exactly when the outbox runs dry — immediately before
// it would block — so everything the far end is waiting on is on the wire.
// A pong request from the reader is answered in the same stream. On a
// write error it closes the connection (the failure surfaces through the
// reader) and keeps draining the outbox; the session writer keeps
// sequencing reliable frames into the retransmit buffer meanwhile, so
// nothing is lost and senders are never blocked behind a wedged socket. It
// exits when the outbox is closed.
func writeLoop(conn net.Conn, w *wireWriter, out <-chan *frame, pong <-chan struct{}, done chan<- struct{}, first *frame, retrans [][]byte) {
	defer close(done)
	if first != nil {
		_ = w.WriteFrame(first)
		putFrame(first)
	}
	for _, b := range retrans {
		_ = w.WriteRaw(b)
	}
	// The handshake reply and replay must hit the wire before the loop
	// parks on an empty outbox: the far end is blocked waiting for them.
	if w.Err() == nil {
		_ = w.Flush()
	}
	if w.Err() != nil {
		_ = conn.Close()
	}
	pongFrame := frame{Kind: framePong}
	for {
		select {
		case f, ok := <-out:
			if !ok {
				if w.Err() == nil {
					_ = w.Flush()
				}
				return
			}
			_ = w.WriteFrame(f)
			// Encoded (or failed for good): the frame's bytes live in the
			// session's retransmit buffer now, so a message that lent the
			// transport a pooled buffer gets it back.
			if r, ok := f.Msg.(rt.Releaser); ok {
				r.Release()
			}
			putFrame(f)
		case <-pong:
			_ = w.WriteFrame(&pongFrame)
		}
		if w.Err() == nil && len(out) == 0 {
			_ = w.Flush()
		}
		if w.Err() != nil {
			_ = conn.Close()
		}
	}
}

// readLoop decodes one connection's frames into inbox until the connection
// fails — the error is the last event posted — or done closes. Pings are
// answered here, not on the owner's loop, so a long actor Receive cannot
// starve the heartbeat: the reader asks the writer for a pong through its
// one-slot pong channel, and never touches the outbox, which retire
// closes. The ping is still posted, so the loop sees where each batch of
// frames ends (more).
func readLoop(src int16, gen int32, r *wireReader, inbox chan<- linkEvent, pong chan<- struct{}, done <-chan struct{}) {
	for {
		f, err := r.ReadFrame()
		if err == nil && f.Kind == framePing {
			select {
			case pong <- struct{}{}:
			default: // a pong is already on its way
			}
		}
		select {
		case inbox <- linkEvent{src: src, gen: gen, f: f, err: err, more: err == nil && r.Buffered() > 0}:
		case <-done:
			if f != nil {
				putFrame(f)
			}
			return
		}
		if err != nil {
			return
		}
	}
}
