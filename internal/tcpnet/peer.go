package tcpnet

// Worker side of the peer-to-peer data plane (see RunWorker and
// WithWorkerP2P).
//
// Control traffic — assignments, spill negotiation, reports, heartbeats,
// peer-epoch bumps — flows over each worker's coordinator link.
// Chunk-bearing messages between workers travel over direct worker↔worker
// connections, as between the join processes of a switched cluster. A
// peer link is the same link (link.go) as a coordinator link, so it has
// the same session layer — CRC32C integrity, seq/ack dedup, bounded
// retransmit buffers, ack-based resume — and posts into the same event
// loop. What this file adds is who dials whom, and what a link's epoch
// is:
//
//   - Worker i dials every peer j < i and accepts connections from every
//     peer j > i, so each unordered pair shares exactly one link. The
//     dialer is the same background loop that redials the coordinator
//     (dialLoop), paced at peerDialBackoff and never giving up.
//   - Both ends derive the link's session id independently (pairSession)
//     from the run's session base, and its epoch from the coordinator-owned
//     per-worker peer epochs carried in assignments and framePeerEpoch
//     broadcasts. When either end of a pair is reassigned from scratch the
//     pair epoch changes, both ends reset the link, and the dialer
//     re-establishes it — the peer-link equivalent of the rung-2 recovery.
//   - A peer link that cannot resume (its window overflowed while down, or
//     a hello's verdict is reassign) is unrecoverable locally: the worker
//     exits with an error, the coordinator sees its connection drop, and
//     the ordinary worker recovery ladder (resume → reassign → death)
//     takes over. Escalating a link failure to a worker failure keeps
//     exactly-once delivery without a second recovery protocol.

import (
	"errors"
	"fmt"
	"net"
	"time"

	rt "ehjoin/internal/runtime"
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

// p2pState is the worker's data-plane state.
type p2pState struct {
	self   int // this worker's index; -1 until the first assignment
	n      int
	l      net.Listener
	addr   string   // l's advertised address, as sent at bootstrap
	addrs  []string // peer address book from the assignment
	owner  map[rt.NodeID]int
	base   uint64   // session base shared with the coordinator link
	epochs []uint32 // coordinator-owned per-worker peer epochs

	links []*link
	// early parks hellos that arrived before this worker's first
	// assignment — a higher-indexed peer applied its own and dialed first —
	// at most one per source; applyP2PAssign installs them.
	early []linkEvent

	wrap func(net.Conn) net.Conn // test hook: interpose chaos on dialed peer conns

	// Per-peer data-plane counters, indexed by worker; reported to the
	// coordinator for the generalized quiescence predicate.
	peerEmitted   []int64
	peerProcessed []int64
	dropped       int64 // messages dropped toward dead peers
	// resumes counts peer-link session resumes. Each pair resume is
	// counted exactly once fleet-wide — by the dialer end — because the
	// coordinator (which owns the coordinator-link resume count) never
	// observes peer links and folds this in verbatim from reports.
	resumes int64
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

// applyPeerFrame applies one frame from a peer link: chunk-bearing
// messages for this worker's actors, and bare acks.
func (w *worker) applyPeerFrame(lk *link, f *frame) error {
	switch f.Kind {
	case frameMsg:
		w.p2p.peerProcessed[lk.idx]++
		return w.deliver(f)
	case frameAck:
		putFrame(f) // the piggybacked ack is the whole point
		return nil
	default:
		kind := f.Kind
		putFrame(f)
		return fmt.Errorf("tcpnet: worker got unexpected peer frame kind %d", kind)
	}
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
		p.links = make([]*link, p.n)
	}
	p.peerEmitted = make([]int64, p.n)
	p.peerProcessed = make([]int64, p.n)
	p.dropped = 0
	// The fresh counters read as already reported: a reassignment alone
	// sends no report.
	w.rep.PeerEmitted, w.rep.PeerProcessed = make([]int64, p.n), make([]int64, p.n)
	w.rep.WDropped = 0
	for j := 0; j < p.n; j++ {
		if j == p.self {
			continue
		}
		if p.links[j] == nil {
			p.links[j] = &link{idx: j, sess: newSession(0, 0, 0)}
		}
		w.resetPeerLink(p.links[j])
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
	if p.links[from].state == linkDead {
		return nil
	}
	w.resetPeerLink(p.links[from])
	p.peerEmitted[from], p.peerProcessed[from] = 0, 0
	return nil
}

// resetPeerLink restarts lk under the current pair epoch: its connection
// and everything buffered toward the peer belong to the old epoch, and the
// dialer end re-establishes the link.
func (w *worker) resetPeerLink(lk *link) {
	p := w.p2p
	lk.retire()
	lk.state = linkDown
	lk.everLive = false
	lk.sess.adopt(pairSession(p.base, p.self, lk.idx), p.epochs[p.self]+p.epochs[lk.idx])
	if p.self > lk.idx {
		w.spawnPeerDialer(lk)
	}
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
	lk.retire()
	lk.state = linkDead
}

// linkBroken retires a failed connection; the session keeps buffering
// outbound frames for replay. The coordinator link is redialed at once. A
// peer link whose retransmit window already overflowed cannot be masked,
// so the worker escalates to a fatal error (the coordinator then runs the
// ordinary worker recovery ladder); otherwise its dialer end
// re-establishes it.
func (w *worker) linkBroken(lk *link, cause error) {
	lk.retire()
	if lk == w.coord {
		w.lost = cause
		w.spawnCoordDialer()
		return
	}
	if !lk.sess.resumable() {
		w.peerUnresumable(lk, errors.New("lost with an overflowed retransmit window"))
		return
	}
	if w.p2p.self > lk.idx {
		w.spawnPeerDialer(lk)
	}
}

// spawnPeerDialer starts the dialer that (re-)establishes the link to a
// lower-indexed peer, under the link's current generation and epoch; an
// epoch bump retires it via lk.stop and spawns a fresh one. Rejected
// handshakes are expected during epoch-bump races — the two ends learn
// the new epoch at different times — and resolve by retrying.
func (w *worker) spawnPeerDialer(lk *link) {
	p := w.p2p
	addr, wrap := p.addrs[lk.idx], p.wrap
	dial := func() (net.Conn, error) {
		conn, err := net.DialTimeout("tcp", addr, resumeHandshakeTimeout)
		if err == nil && wrap != nil {
			conn = wrap(conn)
		}
		return conn, err
	}
	hello := lk.sess.hello(framePeerHello, nil)
	hello.From = int32(p.self)
	w.redial(lk, peerPause, dial, []*frame{hello}, framePeerHelloOK)
}

// peerPause paces a peer dialer: the first attempt at once, then one every
// peerDialBackoff for as long as the link needs one.
func peerPause(attempt int) (time.Duration, bool) {
	if attempt == 0 {
		return 0, true
	}
	return peerDialBackoff, true
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
	r := w.newReader(conn)
	f, err := readHandshake(conn, r)
	ev := linkEvent{gen: -1, f: f, hs: &handshake{conn: conn, r: r}}
	if err != nil || f.Kind != framePeerHello || f.From < 0 || f.From >= MaxWorkers {
		ev.drop()
		return
	}
	ev.src = int16(f.From)
	w.post(ev, nil)
}

// installPeerConn installs a handshake outcome on the main loop: a dialed
// connection's helloOK, or an accepted connection's hello. Replay
// decisions happen here — not in the handshake goroutines — because the
// unacked-suffix snapshot must be ordered against the main loop's own
// encodes into the same session.
func (w *worker) installPeerConn(ev linkEvent) {
	p := w.p2p
	f := ev.f
	if p.self < 0 && f.Kind == framePeerHello {
		// The peer's assignment landed before ours. Dropping the connection
		// would cost its dialer a full peerDialBackoff; hold the hello until
		// the assignment says whether its session and epoch are right.
		w.parkEarlyHello(ev)
		return
	}
	src := int(ev.src)
	if p.self < 0 || src < 0 || src >= len(p.links) || src == p.self || p.links[src] == nil {
		ev.drop()
		return
	}
	lk := p.links[src]
	var err error
	if f.Kind == framePeerHelloOK {
		// Our dialer finished. Stale if the link was retired (epoch bump,
		// teardown) since the dial started.
		if ev.gen != lk.gen || lk.state != linkDown {
			ev.drop()
			return
		}
		lk.stop = nil // the dialer exits after posting
	} else {
		// An accepted hello (dialer is always the higher index). A refused
		// one — wrong pair identity, a stale or racing epoch — leaves our
		// end alone; the dialer retries once both ends have converged.
		v := refuse
		if f.Kind == framePeerHello && src > p.self && lk.state != linkDead {
			v, err = lk.sess.resumeVerdict(f, 0, false)
		}
		if v == refuse {
			ev.drop()
			return
		}
		// If our end is still live, the peer noticed the failure before we
		// did: retire it first, so the replay holds its drained outbox.
		lk.retire()
	}
	var retrans [][]byte
	if err == nil {
		retrans, err = lk.sess.resumeFrom(f.LastSeq)
	}
	if err != nil {
		ev.drop()
		w.peerUnresumable(lk, err)
		return
	}
	var okf *frame
	if f.Kind == framePeerHello {
		okf = getFrame()
		okf.Kind, okf.LastSeq = framePeerHelloOK, lk.sess.ackable()
	}
	putFrame(f)
	w.installLink(lk, ev, okf, retrans)
}

// peerUnresumable fails the worker over a peer link that cannot resume:
// a peer link has no reassignment rung of its own, so the coordinator's
// recovery ladder takes over.
func (w *worker) peerUnresumable(lk *link, reason error) {
	if w.fatal == nil {
		w.fatal = fmt.Errorf("tcpnet: peer link to worker %d: %w", lk.idx, reason)
	}
}

// parkEarlyHello holds an accepted hello for applyP2PAssign. A source's
// newer hello replaces its older one: the dialer gave up on that
// connection (handshake timeout) and dialed again.
func (w *worker) parkEarlyHello(ev linkEvent) {
	p := w.p2p
	for i, old := range p.early {
		if old.src == ev.src {
			old.drop()
			p.early[i] = ev
			return
		}
	}
	p.early = append(p.early, ev)
}

// installLink starts a freshly handshaken connection on lk. first
// (acceptor side) is the helloOK that must precede the replay; retrans is
// the unacked suffix being replayed. A reconnect of a link that was live
// this epoch is a resume: the dialer end owns the pair's resume count
// (each end would otherwise report the same event), while retransmissions
// are per end — each side replays its own unacked suffix.
func (w *worker) installLink(lk *link, ev linkEvent, first *frame, retrans [][]byte) {
	lk.start(ev.hs.conn, ev.hs.r, first, retrans, &w.mux)
	if lk.everLive {
		if lk.idx < w.p2p.self {
			w.p2p.resumes++
		}
		w.retransmitted += int64(len(retrans))
	}
	lk.everLive = true
}

// teardown shuts the event loop's inbox (releasing every reader, dialer
// and handshake), closes the data-plane listener, and retires every link,
// coordinator link included; writers drain their outboxes before exiting,
// so teardown leaves no goroutine behind.
func (w *worker) teardown() {
	w.shut()
	_ = w.p2p.l.Close()
	for _, ev := range w.p2p.early {
		ev.drop()
	}
	w.p2p.early = nil
	for _, lk := range w.p2p.links {
		if lk != nil {
			lk.retire()
		}
	}
	w.coord.retire()
}
