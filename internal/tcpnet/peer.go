package tcpnet

// Worker side of the peer-to-peer data plane (see RunWorker and
// WithWorkerP2P).
//
// Control traffic — assignments, spill negotiation, reports, heartbeats,
// peer-epoch bumps — flows over each worker's coordinator link.
// Chunk-bearing messages between workers travel over direct worker↔worker
// connections, as between the join processes of a switched cluster. Every
// peer link runs the same session layer as the coordinator links (wire.go,
// session.go), so it inherits CRC32C integrity, seq/ack dedup, bounded
// retransmit buffers, and ack-based resume for free.
//
// Topology and ownership:
//
//   - Worker i dials every peer j < i and accepts connections from every
//     peer j > i, so each unordered pair shares exactly one link.
//   - Both ends derive the link's session id independently (pairSession)
//     from the run's session base, and its epoch from the coordinator-owned
//     per-worker peer epochs carried in assignments and framePeerEpoch
//     broadcasts. When either end of a pair is reassigned from scratch the
//     pair epoch changes, both ends reset the link, and the dialer
//     re-establishes it — the peer-link equivalent of the rung-2 recovery.
//   - A peer link whose retransmit window overflows while disconnected is
//     unrecoverable locally: the worker exits with an error, the
//     coordinator sees its connection drop, and the ordinary worker
//     recovery ladder (resume → reassign → death) takes over. Escalating a
//     link failure to a worker failure keeps exactly-once delivery without
//     a second recovery protocol.
//
// A worker multiplexes many connections: per-connection read goroutines
// post decoded frames into a merged inbox and the main loop (RunWorker)
// applies them — a miniature of the coordinator's own drain loop, with
// the same backpressure discipline (bounded per-link outboxes drained by
// writer goroutines; while an outbox is full the main loop keeps servicing
// its inbox into a pending queue, so two workers flooding each other
// cannot write-deadlock).

import (
	"errors"
	"fmt"
	"net"
	"time"

	rt "ehjoin/internal/runtime"
	wire "ehjoin/internal/wire"
)

// peerDialBackoff paces peer-link dial retries. Retries are cheap and
// local, so the cadence is much tighter than the coordinator redial
// policy: a rejected handshake during an epoch-bump race should converge
// in milliseconds.
const peerDialBackoff = 100 * time.Millisecond

// peerInboxFrames sizes a worker's event inbox. The coordinator's
// inbox (defaultInboxFrames) absorbs fan-in from every worker in the
// cluster; a worker's fans in from its peer links plus the coordinator
// link, so a fraction of that depth gives the same headroom without
// zeroing megabytes of channel buffer per worker at startup. Deadlock
// freedom does not depend on the capacity — the main loop defers inbox
// events to the pending queue whenever it blocks on an outbox.
const peerInboxFrames = 8192

// peerStallTimeout bounds how long a full peer outbox may refuse a frame
// before the link is retired to the session buffer (and re-established by
// the dialer side), mirroring the coordinator's stallTimeout.
const peerStallTimeout = 10 * time.Second

// linkState is the lifecycle of one peer link.
type linkState uint8

const (
	linkDown linkState = iota // no connection; frames buffer in the session
	linkLive
	linkDead // the coordinator declared the peer dead
)

// peerLink is this worker's end of one direct worker↔worker connection.
type peerLink struct {
	idx      int // the peer's worker index
	sess     *session
	conn     net.Conn
	out      chan *frame   // writer-goroutine outbox; non-nil only while live
	wdone    chan struct{} // closed when the writer goroutine has exited
	stop     chan struct{} // cancels the active dialer goroutine, if any
	gen      int           // bumped whenever a connection is retired or installed
	state    linkState
	everLive bool // a reconnect of a once-live link counts as a resume
}

// peerEvent is one entry in the worker's merged inbox: a decoded frame
// or error from an installed connection (gen-checked against the link), or
// a handshake outcome (a dialed link's helloOK, or an accepted connection's
// hello, distinguished by f.Kind).
type peerEvent struct {
	src  int // peer worker index; -1 = the coordinator link
	gen  int // connection generation; -1 for accepted-hello events
	f    *frame
	err  error
	conn net.Conn
	r    *wireReader // holds bytes the handshake already buffered
	// more: the read loop already holds bytes of the next frame, so the
	// batch this frame belongs to is still arriving.
	more bool
}

// p2pState is the worker's data-plane state.
type p2pState struct {
	self   int // this worker's index; -1 until the first assignment
	n      int
	l      net.Listener
	addrs  []string // peer address book from the assignment
	owner  map[rt.NodeID]int
	base   uint64   // session base shared with the coordinator link
	epochs []uint32 // coordinator-owned per-worker peer epochs

	links []*peerLink
	// early parks hellos that arrived before this worker's first
	// assignment — a higher-indexed peer applied its own and dialed first —
	// at most one per source; applyP2PAssign installs them.
	early   []peerEvent
	inbox   chan peerEvent
	pending []peerEvent // events deferred while a full peer outbox was draining
	done    chan struct{}

	wrap func(net.Conn) net.Conn // test hook: interpose chaos on dialed peer conns

	// Per-peer data-plane counters, indexed by worker; reported to the
	// coordinator for the generalized quiescence predicate.
	peerEmitted      []int64
	peerProcessed    []int64
	repPeerEmitted   []int64 // as of the last report sent
	repPeerProcessed []int64
	dropped          int64 // messages dropped toward dead peers
	repDropped       int64
	// resumes counts peer-link session resumes. Each pair resume is
	// counted exactly once fleet-wide — by the dialer end — because the
	// coordinator (which owns the coordinator-link resume count) never
	// observes peer links and folds this in verbatim from reports.
	resumes    int64
	repResumes int64
}

// advertiseAddr turns the listener's bind address into one peers can dial:
// an unspecified host (":0", "0.0.0.0") is replaced with the address this
// worker reaches the coordinator from.
func advertiseAddr(l net.Addr, coordLocal net.Addr) string {
	host, port, err := net.SplitHostPort(l.String())
	if err != nil {
		return l.String()
	}
	if ip := net.ParseIP(host); ip == nil || ip.IsUnspecified() {
		if ch, _, cerr := net.SplitHostPort(coordLocal.String()); cerr == nil {
			host = ch
		}
	}
	return net.JoinHostPort(host, port)
}

// handlePeerEvent applies one inbox event. It returns shutdown=true on a
// clean coordinator shutdown and a non-nil error when the worker cannot
// continue.
func (w *worker) handlePeerEvent(ev peerEvent, coordGen *int) (shutdown bool, err error) {
	if ev.src < 0 {
		return w.handleCoordEvent(ev, coordGen)
	}
	p := w.p2p
	if ev.conn != nil {
		w.installPeerConn(ev)
		return false, nil
	}
	if ev.src >= len(p.links) || p.links[ev.src] == nil {
		if ev.f != nil {
			putFrame(ev.f)
		}
		return false, nil
	}
	lk := p.links[ev.src]
	if ev.gen != lk.gen || lk.state != linkLive {
		if ev.f != nil {
			putFrame(ev.f) // stale frame from a retired connection
		}
		return false, nil
	}
	if ev.err != nil {
		if errors.Is(ev.err, wire.ErrChecksum) {
			w.checksumFails++
		}
		w.peerLinkBroken(lk)
		return false, nil
	}
	f := ev.f
	lk.sess.peerAck(f.Ack)
	if f.Seq > 0 {
		ok, serr := lk.sess.acceptSeq(f.Seq)
		if serr != nil {
			// A sequence gap is loss the link failed to mask: drop the
			// connection and let the resume handshake restore order.
			putFrame(f)
			w.peerLinkBroken(lk)
			return false, nil
		}
		if !ok {
			putFrame(f) // duplicate from a retransmission overlap
			return false, nil
		}
	}
	switch f.Kind {
	case frameMsg:
		p.peerProcessed[ev.src]++
		w.queue = append(w.queue, localDelivery{
			from: rt.NodeID(f.From), to: rt.NodeID(f.To), msg: f.Msg,
		})
		putFrame(f)
		if derr := w.drainLocal(); derr != nil {
			return false, derr
		}
		w.ackPeerDebt(lk)
		return false, nil
	case frameAck:
		putFrame(f) // the peerAck above is the whole point
		return false, nil
	default:
		kind := f.Kind
		putFrame(f)
		return false, fmt.Errorf("tcpnet: worker got unexpected peer frame kind %d", kind)
	}
}

// handleCoordEvent applies one coordinator-link event.
func (w *worker) handleCoordEvent(ev peerEvent, coordGen *int) (shutdown bool, err error) {
	if ev.gen != *coordGen {
		if ev.f != nil {
			putFrame(ev.f)
		}
		return false, nil
	}
	if ev.err != nil {
		return w.coordReconnect(coordGen, ev.err)
	}
	f := ev.f
	w.sess.peerAck(f.Ack)
	if f.Seq > 0 {
		ok, serr := w.sess.acceptSeq(f.Seq)
		if serr != nil {
			putFrame(f)
			return w.coordReconnect(coordGen, serr)
		}
		if !ok {
			putFrame(f)
			return false, nil
		}
	}
	switch f.Kind {
	case frameAssign:
		aerr := w.applyAssign(f)
		putFrame(f)
		return false, aerr
	case frameMsg:
		w.processed++
		w.queue = append(w.queue, localDelivery{
			from: rt.NodeID(f.From), to: rt.NodeID(f.To), msg: f.Msg,
		})
		putFrame(f)
		if derr := w.drainLocal(); derr != nil {
			return false, derr
		}
		// Cap the coordinator link's ack debt mid-batch: a sustained
		// ingest stream may never reach the loop's blocking-point ack.
		if w.sess.ackDebt() >= ackDebtThreshold {
			_ = w.enc.WriteFrame(&frame{Kind: frameAck})
			_ = w.enc.Flush()
		}
		return false, nil
	case framePing:
		// Pong immediately: heavy peer traffic can keep the loop away from
		// its blocking-point flush for longer than the heartbeat timeout.
		putFrame(f)
		_ = w.enc.WriteFrame(&frame{Kind: framePong})
		_ = w.enc.Flush()
		return false, nil
	case framePeerEpoch:
		from, epoch := int(f.From), f.Epoch
		putFrame(f)
		return false, w.applyPeerEpoch(from, epoch)
	case framePeerDown:
		from := int(f.From)
		putFrame(f)
		w.applyPeerDown(from)
		return false, nil
	case frameAck:
		putFrame(f)
		return false, nil
	case frameShutdown:
		putFrame(f)
		return true, nil
	default:
		kind := f.Kind
		putFrame(f)
		return false, fmt.Errorf("tcpnet: worker got unexpected frame kind %d", kind)
	}
}

// coordReconnect runs the synchronous coordinator-link recovery (see
// worker.reconnect) and restarts the read goroutine on success. Peer
// links are untouched by a rung-1 resume; a rung-2 reassignment rebuilds
// them inside applyAssign.
func (w *worker) coordReconnect(coordGen *int, cause error) (shutdown bool, err error) {
	r, rerr := w.reconnect(cause)
	if rerr != nil {
		return false, rerr
	}
	if r == nil {
		return true, nil // clean shutdown
	}
	*coordGen++
	go w.peerReadLoop(-1, *coordGen, r)
	return false, nil
}

// applyP2PAssign installs the data-plane half of an assignment: identity,
// address book, ownership map, peer epochs, and a full rebuild of every
// peer link under the assignment's epochs.
func (w *worker) applyP2PAssign(f *frame) error {
	p := w.p2p
	p.self = int(f.Worker)
	p.n = len(f.Peers)
	if p.self < 0 || p.self >= p.n || p.n != len(f.Epochs) {
		return fmt.Errorf("tcpnet: malformed assignment: worker %d of %d peers, %d epochs",
			p.self, p.n, len(f.Epochs))
	}
	p.addrs = append([]string(nil), f.Peers...)
	p.epochs = append([]uint32(nil), f.Epochs...)
	p.base = f.Session &^ 0xFFFF
	p.owner = make(map[rt.NodeID]int, len(f.MapIDs))
	for i, id := range f.MapIDs {
		p.owner[rt.NodeID(id)] = int(f.MapWorkers[i])
	}
	if p.links == nil {
		p.links = make([]*peerLink, p.n)
	}
	p.peerEmitted = make([]int64, p.n)
	p.peerProcessed = make([]int64, p.n)
	p.repPeerEmitted = make([]int64, p.n)
	p.repPeerProcessed = make([]int64, p.n)
	p.dropped, p.repDropped = 0, 0
	for j := 0; j < p.n; j++ {
		if j == p.self {
			continue
		}
		lk := p.links[j]
		if lk == nil {
			lk = &peerLink{idx: j, sess: newSession(0, w.opts.maxFrames, w.opts.maxBytes)}
			p.links[j] = lk
		} else {
			w.retireLink(lk)
			lk.state = linkDown
			lk.everLive = false
		}
		lk.sess.adopt(pairSession(p.base, p.self, j), p.epochs[p.self]+p.epochs[j])
		if p.self > j {
			w.spawnPeerDialer(lk)
		}
	}
	early := p.early
	p.early = nil
	for _, ev := range early {
		w.installPeerConn(ev)
	}
	return nil
}

// applyPeerEpoch handles a coordinator broadcast that peer `from` was
// reassigned from scratch: everything buffered toward it is obsolete (the
// re-stream regenerates it), so the link resets under the new pair epoch
// and the dialer side re-establishes it.
func (w *worker) applyPeerEpoch(from int, epoch uint32) error {
	p := w.p2p
	if p.self < 0 || from < 0 || from >= len(p.links) || from == p.self || p.links[from] == nil {
		return fmt.Errorf("tcpnet: peer epoch bump for unknown worker %d", from)
	}
	p.epochs[from] = epoch
	lk := p.links[from]
	if lk.state == linkDead {
		return nil
	}
	w.retireLink(lk)
	lk.state = linkDown
	lk.everLive = false
	lk.sess.adopt(pairSession(p.base, p.self, from), p.epochs[p.self]+p.epochs[from])
	p.peerEmitted[from], p.peerProcessed[from] = 0, 0
	if p.self > from {
		w.spawnPeerDialer(lk)
	}
	return nil
}

// applyPeerDown tombstones a dead peer's link: the connection (if any) is
// retired and every future send toward the peer is dropped, mirroring the
// coordinator dropping messages to dead workers. The scheduler's death
// recovery reroutes around the node.
func (w *worker) applyPeerDown(from int) {
	p := w.p2p
	if p.self < 0 || from < 0 || from >= len(p.links) || from == p.self || p.links[from] == nil {
		return
	}
	lk := p.links[from]
	w.retireLink(lk)
	lk.state = linkDead
}

// peerLinkBroken retires a failed peer connection. The session keeps
// buffering outbound frames for replay; if its retransmit window already
// overflowed the loss cannot be masked and the worker escalates to a fatal
// error (the coordinator then runs the ordinary worker recovery ladder).
func (w *worker) peerLinkBroken(lk *peerLink) {
	w.retireLink(lk)
	lk.state = linkDown
	if !lk.sess.resumable() {
		if w.fatal == nil {
			w.fatal = fmt.Errorf("tcpnet: peer link to worker %d lost with an overflowed retransmit window", lk.idx)
		}
		return
	}
	if w.p2p.self > lk.idx {
		w.spawnPeerDialer(lk)
	}
}

// retireLink tears down lk's connection machinery (dialer, writer
// goroutine, socket) and bumps the generation so in-flight events from the
// old connection are recognized as stale. The writer goroutine drains its
// outbox into the session's retransmit buffer before exiting, so no
// reliable frame is lost. Idempotent on an already-down link.
func (w *worker) retireLink(lk *peerLink) {
	if lk.stop != nil {
		close(lk.stop)
		lk.stop = nil
	}
	if lk.state == linkLive {
		_ = lk.conn.Close()
		close(lk.out)
		<-lk.wdone
		lk.out = nil
	}
	lk.gen++
}

// spawnPeerDialer starts the background goroutine that (re-)establishes
// the link to a lower-indexed peer. It captures the link's current
// generation and epoch; an epoch bump retires it via lk.stop and spawns a
// fresh dialer.
func (w *worker) spawnPeerDialer(lk *peerLink) {
	stop := make(chan struct{})
	lk.stop = stop
	go w.dialPeer(lk.idx, lk.gen, w.p2p.addrs[lk.idx], lk.sess, lk.sess.epochNow(), stop)
}

// dialPeer dials a peer's data-plane listener until the handshake
// succeeds, the link is retired (stop), or the worker shuts down (done).
// Rejected handshakes are expected during epoch-bump races — the two ends
// learn the new epoch at different times — and resolve by retrying.
func (w *worker) dialPeer(idx, gen int, addr string, sess *session, epoch uint32, stop chan struct{}) {
	backoff := time.NewTimer(0)
	if !backoff.Stop() {
		<-backoff.C
	}
	defer backoff.Stop()
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			backoff.Reset(peerDialBackoff)
			select {
			case <-backoff.C:
			case <-stop:
				return
			case <-w.p2p.done:
				return
			}
		}
		select {
		case <-stop:
			return
		case <-w.p2p.done:
			return
		default:
		}
		conn, err := net.DialTimeout("tcp", addr, resumeHandshakeTimeout)
		if err != nil {
			continue
		}
		if w.p2p.wrap != nil {
			conn = w.p2p.wrap(conn)
		}
		r, okf, herr := peerDialHandshake(conn, w.p2p.self, sess, epoch)
		if herr != nil {
			_ = conn.Close()
			continue
		}
		ev := peerEvent{src: idx, gen: gen, f: okf, conn: conn, r: r}
		select {
		case w.p2p.inbox <- ev:
		case <-stop:
			putFrame(okf)
			_ = conn.Close()
		case <-w.p2p.done:
			putFrame(okf)
			_ = conn.Close()
		}
		return
	}
}

// peerDialHandshake runs the dialing side of the peer handshake: send the
// hello, read the helloOK. The returned reader keeps any bytes buffered
// past the helloOK; the caller installs the connection and replays the
// unacked suffix on the main loop, where the session is quiescent.
func peerDialHandshake(conn net.Conn, self int, sess *session, epoch uint32) (*wireReader, *frame, error) {
	enc := newWireWriter(conn)
	hello := &frame{Kind: framePeerHello, From: int32(self), Session: sess.id,
		Epoch: epoch, LastSeq: sess.seen(), CanReplay: sess.resumable()}
	if err := enc.WriteFrame(hello); err != nil {
		return nil, nil, err
	}
	if err := enc.Flush(); err != nil {
		return nil, nil, err
	}
	_ = conn.SetReadDeadline(time.Now().Add(resumeHandshakeTimeout))
	r := newWireReader(conn)
	f, err := r.ReadFrame()
	if err != nil {
		return nil, nil, err
	}
	_ = conn.SetReadDeadline(time.Time{})
	if f.Kind != framePeerHelloOK {
		kind := f.Kind
		putFrame(f)
		return nil, nil, fmt.Errorf("tcpnet: unexpected peer handshake reply kind %d", kind)
	}
	return r, f, nil
}

// peerAcceptLoop hands accepted data-plane connections to handshake
// goroutines. It exits when the listener closes (worker teardown).
func (w *worker) peerAcceptLoop(l net.Listener) {
	for {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		go w.peerAcceptHandshake(conn)
	}
}

// peerAcceptHandshake reads a dialing peer's hello and parks it in the
// inbox; the main loop decides whether to accept. Anything malformed just
// drops the connection — the dialer retries on its own schedule.
func (w *worker) peerAcceptHandshake(conn net.Conn) {
	_ = conn.SetReadDeadline(time.Now().Add(resumeHandshakeTimeout))
	r := newWireReader(conn)
	f, err := r.ReadFrame()
	if err != nil {
		_ = conn.Close()
		return
	}
	_ = conn.SetReadDeadline(time.Time{})
	if f.Kind != framePeerHello || f.From < 0 {
		putFrame(f)
		_ = conn.Close()
		return
	}
	ev := peerEvent{src: int(f.From), gen: -1, f: f, conn: conn, r: r}
	select {
	case w.p2p.inbox <- ev:
	case <-w.p2p.done:
		putFrame(f)
		_ = conn.Close()
	}
}

// installPeerConn installs a handshake outcome on the main loop: a dialed
// connection's helloOK, or an accepted connection's hello. Replay
// decisions happen here — not in the handshake goroutines — because the
// unacked-suffix snapshot must be ordered against the main loop's own
// encodes into the same session.
func (w *worker) installPeerConn(ev peerEvent) {
	p := w.p2p
	f := ev.f
	if p.self < 0 && f.Kind == framePeerHello {
		// The peer's assignment landed before ours. Dropping the connection
		// would cost its dialer a full peerDialBackoff; hold the hello until
		// the assignment says whether its session and epoch are right.
		w.parkEarlyHello(ev)
		return
	}
	if p.self < 0 || ev.src < 0 || ev.src >= len(p.links) || ev.src == p.self || p.links[ev.src] == nil {
		putFrame(f)
		_ = ev.conn.Close()
		return
	}
	lk := p.links[ev.src]
	if f.Kind == framePeerHelloOK {
		// Our dialer finished. Stale if the link was retired (epoch bump,
		// teardown) since the dial started.
		if ev.gen != lk.gen || lk.state != linkDown {
			putFrame(f)
			_ = ev.conn.Close()
			return
		}
		lk.sess.peerAck(f.LastSeq)
		if !lk.sess.resumable() {
			putFrame(f)
			_ = ev.conn.Close()
			if w.fatal == nil {
				w.fatal = fmt.Errorf("tcpnet: peer link to worker %d overflowed its retransmit window while disconnected", lk.idx)
			}
			return
		}
		retrans := lk.sess.unackedSince(f.LastSeq)
		putFrame(f)
		lk.stop = nil // the dialer exits after posting
		w.installLink(lk, ev.conn, ev.r, nil, retrans)
		return
	}
	// An accepted hello (dialer is always the higher index).
	if f.Kind != framePeerHello || ev.src <= p.self || lk.state == linkDead ||
		f.Session != lk.sess.id || f.Epoch != lk.sess.epochNow() {
		// Wrong pair identity or a stale/racing epoch: drop the connection
		// and let the dialer retry once both ends have converged.
		putFrame(f)
		_ = ev.conn.Close()
		return
	}
	if !f.CanReplay || !lk.sess.resumable() {
		putFrame(f)
		_ = ev.conn.Close()
		if w.fatal == nil {
			w.fatal = fmt.Errorf("tcpnet: peer link to worker %d is not resumable: retransmit window overflowed", lk.idx)
		}
		return
	}
	if lk.state == linkLive {
		// The peer noticed the failure before we did; retire our end first.
		w.retireLink(lk)
		lk.state = linkDown
	}
	lk.sess.peerAck(f.LastSeq)
	retrans := lk.sess.unackedSince(f.LastSeq)
	okf := getFrame()
	okf.Kind, okf.LastSeq = framePeerHelloOK, lk.sess.seen()
	putFrame(f)
	w.installLink(lk, ev.conn, ev.r, okf, retrans)
}

// parkEarlyHello holds an accepted hello for applyP2PAssign. A source's
// newer hello replaces its older one: the dialer gave up on that
// connection (handshake timeout) and dialed again.
func (w *worker) parkEarlyHello(ev peerEvent) {
	p := w.p2p
	for i, old := range p.early {
		if old.src == ev.src {
			putFrame(old.f)
			_ = old.conn.Close()
			p.early[i] = ev
			return
		}
	}
	p.early = append(p.early, ev)
}

// installLink attaches the writer goroutine and read loop to a freshly
// handshaken connection. first (acceptor side) is the helloOK that must
// precede the replay; retrans is the unacked suffix being replayed.
func (w *worker) installLink(lk *peerLink, conn net.Conn, r *wireReader, first *frame, retrans [][]byte) {
	lk.conn = conn
	lk.state = linkLive
	lk.gen++
	lk.out = make(chan *frame, defaultOutboxFrames)
	lk.wdone = make(chan struct{})
	go writeLoop(conn, newSessionWriter(conn, lk.sess), lk.out, lk.wdone, first, retrans)
	go w.peerReadLoop(lk.idx, lk.gen, r)
	if lk.everLive {
		// The dialer end owns the pair's resume count (each end would
		// otherwise report the same event); retransmissions are per-end —
		// each side replays its own unacked suffix.
		if lk.idx < w.p2p.self {
			w.p2p.resumes++
		}
		w.retransmitted += int64(len(retrans))
	}
	lk.everLive = true
}

// peerReadLoop decodes one connection's frames into the merged inbox.
// src == -1 is the coordinator link.
func (w *worker) peerReadLoop(src, gen int, r *wireReader) {
	for {
		f, err := r.ReadFrame()
		ev := peerEvent{src: src, gen: gen, f: f, err: err, more: err == nil && r.Buffered() > 0}
		select {
		case w.p2p.inbox <- ev:
		case <-w.p2p.done:
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

// sendPeer ships one message over the direct link to worker j. A live link
// takes the outbox fast path; a down link sequences straight into the
// session's retransmit buffer for replay on reconnect (exactly the
// coordinator's route-while-reconnecting path); a dead link drops the
// message, mirroring the simulator dropping sends to crashed nodes.
func (w *worker) sendPeer(j int, from, to rt.NodeID, m rt.Message) {
	p := w.p2p
	lk := p.links[j]
	if lk.state == linkDead {
		p.dropped++
		return
	}
	if lk.state == linkLive {
		f := getFrame()
		f.Kind, f.From, f.To, f.Msg = frameMsg, int32(from), int32(to), m
		if w.enqueuePeer(lk, f) {
			p.peerEmitted[j]++
			return
		}
		// The stall path retired the link (or went fatal); fall through to
		// the session buffer so the message rides the eventual resume.
		if w.fatal != nil {
			return
		}
	}
	w.bufferPeer(lk, from, to, m)
}

// bufferPeer sequences a message into a down link's retransmit buffer. An
// overflow here is unmaskable loss: the worker goes fatal and the
// coordinator's worker-level recovery takes over.
func (w *worker) bufferPeer(lk *peerLink, from, to rt.NodeID, m rt.Message) {
	f := getFrame()
	f.Kind, f.From, f.To, f.Msg = frameMsg, int32(from), int32(to), m
	_, err := lk.sess.encode(f)
	putFrame(f)
	if err != nil {
		if w.fatal == nil {
			w.fatal = fmt.Errorf("tcpnet: worker encode %T to peer %d: %w", m, lk.idx, err)
		}
		return
	}
	if !lk.sess.resumable() {
		if w.fatal == nil {
			w.fatal = fmt.Errorf("tcpnet: peer link to worker %d overflowed its retransmit window while disconnected", lk.idx)
		}
		return
	}
	w.p2p.peerEmitted[lk.idx]++
}

// enqueuePeer puts f on a live link's outbox. While the outbox is full the
// main loop keeps servicing its inbox into the pending queue — the same
// anti-deadlock discipline as Coordinator.send — and a link that accepts
// nothing for the whole stall timeout is retired to the session buffer
// (the frame is then sequenced there by the caller via bufferPeer).
// Reports whether f was enqueued.
func (w *worker) enqueuePeer(lk *peerLink, f *frame) bool {
	select {
	case lk.out <- f:
		return true
	default:
	}
	stall := time.NewTimer(peerStallTimeout)
	defer stall.Stop()
	for {
		select {
		case lk.out <- f:
			return true
		case ev := <-w.p2p.inbox:
			w.p2p.pending = append(w.p2p.pending, ev)
		case <-stall.C:
			putFrame(f)
			w.peerLinkBroken(lk)
			return false
		}
	}
}

// ackPeerDebt volunteers a bare ack on a live peer link whose receive
// direction has outpaced piggyback acks. Stage handoffs make peer links
// one-directional: without a mid-batch ack the sender's retransmit
// buffer only trims at this worker's blocking points, ballooning under
// sustained load until the session loses resumability. The ack is
// encoded by the link's writer goroutine, so the debt counter resets
// only once it drains — the modulo keeps the trigger to one ack per
// threshold of inbound frames rather than one per frame meanwhile.
func (w *worker) ackPeerDebt(lk *peerLink) {
	if lk.state != linkLive {
		return
	}
	if debt := lk.sess.ackDebt(); debt < ackDebtThreshold || debt%ackDebtThreshold != 0 {
		return
	}
	f := getFrame()
	f.Kind = frameAck
	select {
	case lk.out <- f:
	default:
		putFrame(f) // a full outbox is traffic that will carry the ack
	}
}

// peerIdleAcks flushes a bare ack on every live peer link whose receive
// direction has gone quiet, so peer retransmit buffers keep trimming
// during one-sided traffic.
func (w *worker) peerIdleAcks() {
	p := w.p2p
	for _, lk := range p.links {
		if lk == nil || lk.state != linkLive || !lk.sess.needAck() {
			continue
		}
		f := getFrame()
		f.Kind = frameAck
		select {
		case lk.out <- f:
		default:
			putFrame(f) // traffic in flight will carry the ack
		}
	}
}

// teardownP2P cancels every background goroutine (read loops, dialers, the
// accept loop) and closes every peer connection. Writer goroutines drain
// their outboxes before exiting, so teardown leaves no goroutine behind.
func (w *worker) teardownP2P() {
	p := w.p2p
	close(p.done)
	_ = p.l.Close()
	for _, ev := range p.early {
		putFrame(ev.f)
		_ = ev.conn.Close()
	}
	p.early = nil
	for _, lk := range p.links {
		if lk == nil {
			continue
		}
		w.retireLink(lk)
		if lk.state == linkLive {
			lk.state = linkDown
		}
	}
}
