package tcpnet

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"slices"
	"time"

	rt "ehjoin/internal/runtime"
)

// ActorFactory constructs a worker-hosted actor for one of the node ids the
// coordinator assigned. cfgBlob is the coordinator's opaque configuration
// (typically decoded with core.DecodeConfig).
type ActorFactory func(cfgBlob []byte, id rt.NodeID) (rt.Actor, error)

// Default redial policy for WithWorkerResume.
const (
	DefaultWorkerRedialAttempts = 10
	DefaultWorkerRedialBackoff  = 200 * time.Millisecond
)

// workerOpts collects RunWorker's optional behaviour.
type workerOpts struct {
	dial       func() (net.Conn, error)
	attempts   int
	backoff    time.Duration
	park       bool
	maxFrames  int
	maxBytes   int
	peerListen string
	peerWrap   func(net.Conn) net.Conn
}

// WorkerOption configures RunWorker.
type WorkerOption func(*workerOpts)

// WithWorkerResume makes the worker survive connection loss: on any read
// or write failure it keeps its actor state, redials the coordinator's
// resume listener with dial (up to attempts tries, backoff apart; zero
// values take the defaults), and resumes the session with only unacked
// frames retransmitted. If the coordinator instead answers with a fresh
// assignment, the worker rebuilds from scratch — the full-reassignment
// recovery rung. A clean EOF whose redial is refused is still a normal
// shutdown.
func WithWorkerResume(dial func() (net.Conn, error), attempts int, backoff time.Duration) WorkerOption {
	return func(o *workerOpts) {
		o.dial = dial
		if attempts > 0 {
			o.attempts = attempts
		}
		if backoff > 0 {
			o.backoff = backoff
		}
	}
}

// WithWorkerRetransmitWindow bounds the worker-side retransmit buffer
// (defaults DefaultRetransmitFrames / DefaultRetransmitBytes).
func WithWorkerRetransmitWindow(frames, bytes int) WorkerOption {
	return func(o *workerOpts) { o.maxFrames, o.maxBytes = frames, bytes }
}

// WithWorkerP2P sets the address of the worker's data-plane listener, the
// one other workers dial for their direct peer links (see peer.go). The
// default, and the value an empty listen selects, is ":0": any port on
// every interface, advertised under the host this worker reaches the
// coordinator from.
func WithWorkerP2P(listen string) WorkerOption {
	return func(o *workerOpts) {
		if listen != "" {
			o.peerListen = listen
		}
	}
}

// WithWorkerPark makes the worker ride out a coordinator crash: a clean
// EOF (exactly what a killed coordinator's closing TCP stack sends) no
// longer short-circuits the redial loop on the first refused dial.
// Instead the worker parks — it keeps its actor state and retransmit
// buffer and works through the full redial schedule, re-attaching via the
// extended resume handshake when a restarted coordinator re-binds the
// listener. Only after every attempt is refused does a clean EOF count as
// a normal shutdown. Requires WithWorkerResume.
func WithWorkerPark() WorkerOption {
	return func(o *workerOpts) { o.park = true }
}

// WithWorkerPeerChaos interposes wrap on every peer connection this worker
// dials — the hook the chaos property suite uses to inject faults on
// worker↔worker links without touching the coordinator link.
func WithWorkerPeerChaos(wrap func(net.Conn) net.Conn) WorkerOption {
	return func(o *workerOpts) { o.peerWrap = wrap }
}

// RunWorker serves one worker process over an established connection to
// the coordinator: it opens its data-plane listener, advertises it as its
// first frame, receives the assignment, constructs its actors, and
// processes messages until the coordinator shuts it down or the connection
// closes. It returns nil on clean shutdown.
//
// One event loop multiplexes the coordinator link and every peer link:
// each link's reader posts decoded frames into a merged inbox and the loop
// applies them; each link's writer flushes when its outbox runs dry.
// Counter reports are coalesced: one report per batch of delivered
// messages — a batch ends when the inbox is dry and the last event's
// reader held no further bytes — and only when the counters actually
// moved, not one per message. Because the report is queued after the
// batch's emitted messages on the same link, the coordinator's quiescence
// predicate stays sound.
//
// With WithWorkerResume a broken coordinator link is redialed and resumed
// on the loop; without it, a bare EOF is a clean shutdown and anything
// else is returned as an error.
func RunWorker(conn net.Conn, factory ActorFactory, opts ...WorkerOption) error {
	o := workerOpts{attempts: DefaultWorkerRedialAttempts, backoff: DefaultWorkerRedialBackoff, peerListen: ":0"}
	for _, opt := range opts {
		opt(&o)
	}
	l, err := net.Listen("tcp", o.peerListen)
	if err != nil {
		return fmt.Errorf("tcpnet: worker peer listen %q: %w", o.peerListen, err)
	}
	w := &worker{
		mux:     newMux(peerInboxFrames),
		coord:   &link{idx: -1, sess: newSession(0, o.maxFrames, o.maxBytes)},
		opts:    o,
		factory: factory,
		actors:  make(map[rt.NodeID]rt.Actor),
		start:   time.Now(),
		rng:     newRedialRNG(),
		p2p:     &p2pState{self: -1, l: l, wrap: o.peerWrap},
	}
	defer w.teardown()
	// Bootstrap: the advertised listener address must be the coordinator's
	// first frame from us, before it sends any assignment — every
	// assignment carries the complete address book.
	hello := getFrame()
	hello.Kind, hello.Addr = framePeerAddr, advertiseAddr(l.Addr(), conn.LocalAddr())
	w.coord.start(conn, newWireReader(conn), hello, nil, &w.mux)
	go w.peerAcceptLoop(l)

	sessTick := time.NewTicker(sessionTickInterval)
	defer sessTick.Stop()
	batchOpen := false // the last event's reader already buffered more input
	for {
		ev, ok := w.poll()
		if !ok {
			// Blocking point. Once the batch is done, report settled
			// counters; either way make sure quiet receive directions still
			// carry acks, and redial a coordinator link a stalled outbox
			// retired.
			if !batchOpen {
				w.report()
			}
			w.idleAcks()
			if w.fatal != nil {
				return w.fatal
			}
			if w.coord.state == linkDown {
				done, err := w.coordReconnect(fmt.Errorf("tcpnet: coordinator link outbox full for %v", linkStallTimeout))
				if done || err != nil {
					return err
				}
			}
			select {
			case ev = <-w.inbox:
			case <-sessTick.C:
				w.idleAcks()
				continue
			}
		}
		batchOpen = ev.more
		shutdown, err := w.handleEvent(ev)
		if err != nil || shutdown {
			return err
		}
		if w.fatal != nil {
			return w.fatal
		}
	}
}

// worker is the in-process state of one worker.
type worker struct {
	mux            // every link's reader and every peer handshake post here
	coord    *link // the coordinator link
	opts     workerOpts
	factory  ActorFactory
	actors   map[rt.NodeID]rt.Actor
	queue    []localDelivery
	start    time.Time
	assigned bool
	p2p      *p2pState // the peer-to-peer data plane

	// assignedIDs is the sorted node-id set from the last frameAssign,
	// hashed into the re-attach digest so a restarted coordinator can
	// cross-check this worker's claimed assignment against its replayed
	// log before granting a cheap resume.
	assignedIDs []int32
	rng         *rand.Rand // redial jitter; per-worker, never the global source

	processed    int64 // cumulative coordinator-delivered frames handled
	emitted      int64 // cumulative messages sent to the coordinator
	repProcessed int64 // processed as of the last report sent
	repEmitted   int64 // emitted as of the last report sent
	repResumes   int64 // resumes as of the last report sent

	resumes       int64 // session resumes performed
	retransmitted int64 // frames replayed to the coordinator on resume

	fatal error // first unmaskable failure; surfaced at the next blocking point
}

// handleEvent applies one inbox event. It returns shutdown=true on a clean
// coordinator shutdown and a non-nil error when the worker cannot
// continue.
func (w *worker) handleEvent(ev linkEvent) (shutdown bool, err error) {
	if ev.hs != nil {
		w.installPeerConn(ev)
		return false, nil
	}
	lk := w.coord
	if src := int(ev.src); src >= 0 {
		if src >= len(w.p2p.links) || w.p2p.links[src] == nil {
			if ev.f != nil {
				putFrame(ev.f)
			}
			return false, nil
		}
		lk = w.p2p.links[src]
	}
	f, err := lk.receive(ev)
	if err != nil {
		if lk == w.coord {
			return w.coordReconnect(err)
		}
		// A sequence gap is loss the link failed to mask: drop the
		// connection and let the resume handshake restore order.
		w.linkBroken(lk)
		return false, nil
	}
	if f == nil {
		return false, nil
	}
	reliable := f.Seq > 0
	if lk == w.coord {
		shutdown, err = w.applyCoordFrame(f)
	} else {
		err = w.applyPeerFrame(lk, f)
	}
	if reliable && err == nil {
		lk.payAckDebt()
	}
	return shutdown, err
}

// applyCoordFrame applies one frame from the coordinator link.
func (w *worker) applyCoordFrame(f *frame) (shutdown bool, err error) {
	switch f.Kind {
	case frameAssign:
		err = w.applyAssign(f)
	case frameMsg:
		w.processed++
		return false, w.deliver(f)
	case framePeerEpoch:
		err = w.applyPeerEpoch(int(f.From), f.Epoch)
	case framePeerDown:
		w.applyPeerDown(int(f.From))
	case framePing, frameAck:
		// The reader already answered the ping; the piggybacked ack is the
		// whole point.
	case frameShutdown:
		shutdown = true
	default:
		err = fmt.Errorf("tcpnet: worker got unexpected frame kind %d", f.Kind)
	}
	putFrame(f)
	return shutdown, err
}

// deliver queues a received message for its local actor and runs the
// queue dry.
func (w *worker) deliver(f *frame) error {
	w.queue = append(w.queue, localDelivery{from: rt.NodeID(f.From), to: rt.NodeID(f.To), msg: f.Msg})
	putFrame(f)
	return w.drainLocal()
}

// sendOn ships a reliable frame on one of this worker's links, taking
// ownership of it. A live link takes the outbox; a down one — or one a
// stalled outbox just retired — sequences the frame into its session
// buffer, to be replayed when the link comes back. A peer link has no
// reassignment rung of its own, so overflowing its buffer while down is
// loss no resume can mask: the worker goes fatal and the coordinator's
// recovery ladder takes over. A frame toward a dead peer is dropped.
// Reports whether the frame was taken.
func (w *worker) sendOn(lk *link, f *frame) bool {
	if lk.state == linkLive {
		if lk.send(f, &w.mux, linkStallTimeout) {
			return true
		}
		w.linkBroken(lk)
	}
	if lk.state == linkDead {
		putFrame(f)
		return false
	}
	if err := lk.buffer(f); err != nil {
		if w.fatal == nil {
			w.fatal = fmt.Errorf("tcpnet: worker encode on link %d: %w", lk.idx, err)
		}
		return false
	}
	if lk != w.coord && !lk.sess.resumable() {
		if w.fatal == nil {
			w.fatal = fmt.Errorf("tcpnet: peer link to worker %d overflowed its retransmit window while disconnected", lk.idx)
		}
		return false
	}
	return true
}

// idleAcks offers a bare ack on every live link whose receive direction
// has gone quiet.
func (w *worker) idleAcks() {
	w.coord.idleAck()
	for _, lk := range w.p2p.links {
		if lk != nil {
			lk.idleAck()
		}
	}
}

// applyAssign installs (or reinstalls) this worker's assignment: adopt the
// session identity the coordinator dictates, build the actors, and zero
// the counters. A re-assignment mid-run is the full-reassignment recovery
// rung — everything this worker held is gone from the protocol's point of
// view, and the scheduler is re-streaming it.
func (w *worker) applyAssign(f *frame) error {
	if w.assigned && f.Session == w.coord.sess.id && f.Epoch == w.coord.sess.epochNow() {
		return nil // duplicate of the current assignment
	}
	w.coord.sess.adopt(f.Session, f.Epoch)
	actors := make(map[rt.NodeID]rt.Actor, len(f.IDs))
	for _, id := range f.IDs {
		a, err := w.factory(f.CfgBlob, rt.NodeID(id))
		if err != nil {
			return fmt.Errorf("tcpnet: worker build actor %d: %w", id, err)
		}
		actors[rt.NodeID(id)] = a
	}
	w.actors = actors
	// The frame is pooled; the id set must outlive it for future handshakes.
	w.assignedIDs = append(w.assignedIDs[:0], f.IDs...)
	w.queue = nil
	w.processed, w.emitted = 0, 0
	w.repProcessed, w.repEmitted = 0, 0
	w.assigned = true
	return w.applyP2PAssign(f)
}

// newRedialRNG seeds a per-worker jitter source. Wall clock alone would
// hand co-spawned workers (same `for` loop, same millisecond) correlated
// seeds, so the pid is mixed in; determinism is not wanted here — the
// whole point is that real workers spread out.
func newRedialRNG() *rand.Rand {
	return rand.New(rand.NewSource(time.Now().UnixNano() ^ int64(os.Getpid())<<32))
}

// redialDelay spaces redial attempts so that N workers orphaned by the
// same coordinator crash do not stampede the restarted listener in the
// same instant. The first attempt waits a random fraction of half the
// backoff (quick, but decorrelated); every later attempt waits backoff/2
// plus a random backoff — full jitter around the configured pace.
func redialDelay(attempt int, base time.Duration, rng *rand.Rand) time.Duration {
	if base <= 0 || rng == nil {
		return 0
	}
	if attempt == 0 {
		return time.Duration(rng.Int63n(int64(base)/2 + 1))
	}
	return base/2 + time.Duration(rng.Int63n(int64(base)+1))
}

// coordReconnect handles a broken coordinator link on the event loop: the
// link is retired (everything queued lands in the session's retransmit
// buffer), then redialed and resumed — or reassigned from scratch. Peer
// links are untouched by a rung-1 resume; a rung-2 reassignment rebuilds
// them inside applyAssign. It returns shutdown=true when the break was the
// coordinator's clean shutdown, and an error when the worker cannot
// continue.
func (w *worker) coordReconnect(cause error) (shutdown bool, err error) {
	w.coord.retire()
	clean := errors.Is(cause, io.EOF)
	// An unassigned worker normally has nothing to resume — except in park
	// mode, where the coordinator may have crashed before the assignment
	// ever reached us. Such a worker redials with a blank hello (session 0)
	// and the restored coordinator seats it in a slot the log never heard
	// from, replaying that slot's whole stream from the retransmit buffer.
	if w.opts.dial == nil || (!w.assigned && !w.opts.park) {
		if clean {
			return true, nil
		}
		return false, fmt.Errorf("tcpnet: worker connection: %w", cause)
	}
	lastErr := cause
	for attempt := 0; attempt < w.opts.attempts; attempt++ {
		if d := redialDelay(attempt, w.opts.backoff, w.rng); d > 0 {
			time.Sleep(d)
		}
		conn, err := w.opts.dial()
		if err != nil {
			if clean && !w.opts.park {
				// EOF and nobody accepting redials: the coordinator
				// closed its resume listener before the connections —
				// a normal shutdown, not a fault. In park mode the same
				// signature means a crashed coordinator whose restart may
				// still be binding, so keep working the schedule.
				return true, nil
			}
			lastErr = err
			continue
		}
		if herr := w.handshake(conn); herr != nil {
			_ = conn.Close()
			lastErr = herr
			continue
		}
		return false, nil
	}
	if clean {
		return true, nil
	}
	return false, fmt.Errorf("tcpnet: worker lost coordinator (%v); redial gave up: %v", cause, lastErr)
}

// handshake runs the worker's half of the resume protocol on a freshly
// dialed connection: send the hello, then either resume (replaying our
// unacked frames past the coordinator's receive position) or accept a
// fresh assignment, and start the coordinator link on the connection.
func (w *worker) handshake(conn net.Conn) error {
	sess := w.coord.sess
	enc := newSessionWriter(conn, sess)
	// A blank worker (orphaned before its first assignment) has no
	// session identity, so the coordinator can only seat it in the slot
	// whose logged address book entry matches its data-plane listener.
	// Re-advertise it ahead of the hello, mirroring the bootstrap sequence.
	if !w.assigned {
		if err := enc.WriteFrame(&frame{Kind: framePeerAddr,
			Addr: advertiseAddr(w.p2p.l.Addr(), conn.LocalAddr())}); err != nil {
			return err
		}
	}
	epoch := sess.epochNow()
	hello := &frame{Kind: frameCoordResume, Session: sess.id, Epoch: epoch,
		LastSeq: sess.seen(), AckedSeq: sess.ackedNow(), CanReplay: sess.resumable(),
		Digest: assignDigest(sess.id, epoch, w.assignedIDs)}
	if err := enc.WriteFrame(hello); err != nil {
		return err
	}
	if err := enc.Flush(); err != nil {
		return err
	}
	_ = conn.SetReadDeadline(time.Now().Add(resumeHandshakeTimeout))
	r := newWireReader(conn)
	f, err := r.ReadFrame()
	if err != nil {
		return err
	}
	_ = conn.SetReadDeadline(time.Time{})
	sess.peerAck(f.Ack)
	defer putFrame(f)
	switch f.Kind {
	case frameResumeOK:
		sess.peerAck(f.LastSeq)
		retrans := sess.unackedSince(f.LastSeq)
		w.resumes++
		w.retransmitted += int64(len(retrans))
		w.coord.start(conn, r, nil, retrans, &w.mux)
		// Any report in the replay predates the disconnect and carries
		// stale session stats; follow the replay with a fresh one so the
		// coordinator sees this resume even if the run quiesces before the
		// worker's next blocking point.
		w.report()
		return nil
	case frameAssign:
		// The coordinator rejected the resume: rebuild from scratch
		// under the new epoch (the full-reassignment rung).
		if err := w.applyAssign(f); err != nil {
			return err
		}
		w.coord.start(conn, r, nil, nil, &w.mux)
		return nil
	default:
		return fmt.Errorf("tcpnet: unexpected resume reply kind %d", f.Kind)
	}
}

// drainLocal processes the queue to empty (local sends between this
// worker's actors cascade synchronously). Counter reporting happens at the
// caller's blocking points, never mid-queue, which keeps the coordinator's
// quiescence predicate sound.
func (w *worker) drainLocal() error {
	env := &workerEnv{w: w}
	for len(w.queue) > 0 {
		d := w.queue[0]
		w.queue[0] = localDelivery{} // the queue's array must not keep a delivered chunk alive
		w.queue = w.queue[1:]
		a, ok := w.actors[d.to]
		if !ok {
			return fmt.Errorf("tcpnet: worker has no actor %d", d.to)
		}
		env.self = d.to
		a.Receive(env, d.from, d.msg)
	}
	return w.fatal
}

// report sends a counter report if the counters moved since the last one.
// Only called with an empty local queue, so the counters are settled. The
// report rides the session layer like any reliable frame: it is sequenced,
// buffered for retransmission, and carries the worker's session stats for
// the coordinator's run report. The writer encodes it later, so its
// per-peer arrays are copies the loop never touches again.
func (w *worker) report() {
	p := w.p2p
	moved := w.processed != w.repProcessed || w.emitted != w.repEmitted || w.resumes != w.repResumes ||
		p.dropped != p.repDropped || p.resumes != p.repResumes ||
		!int64sEqual(p.peerEmitted, p.repPeerEmitted) ||
		!int64sEqual(p.peerProcessed, p.repPeerProcessed)
	if !moved {
		return
	}
	// WResumes carries only the resumes the coordinator cannot observe
	// itself: peer-link resumes (dialer end). Coordinator-link resumes are
	// counted coordinator-side when the resume is accepted — reporting
	// w.resumes here would double-count them in the folded stats.
	f := getFrame()
	f.Kind, f.Processed, f.Emitted = frameReport, w.processed, w.emitted
	f.WRetrans, f.WDropped, f.WResumes = w.retransmitted, p.dropped, p.resumes
	f.PeerEmitted, f.PeerProcessed = slices.Clone(p.peerEmitted), slices.Clone(p.peerProcessed)
	for _, lk := range append([]*link{w.coord}, p.links...) {
		if lk != nil {
			f.WFrames += lk.sess.framesSent()
			f.WDups += lk.sess.dupes()
			f.WChecksum += lk.checksumFails
		}
	}
	w.repProcessed, w.repEmitted, w.repResumes = w.processed, w.emitted, w.resumes
	p.repDropped, p.repResumes = p.dropped, p.resumes
	p.repPeerEmitted, p.repPeerProcessed = f.PeerEmitted, f.PeerProcessed
	w.sendOn(w.coord, f)
}

// int64sEqual reports whether two counter arrays hold the same values.
func int64sEqual(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// workerEnv implements runtime.Env for worker-hosted actors.
type workerEnv struct {
	w    *worker
	self rt.NodeID
}

// Now implements runtime.Env: monotonic nanoseconds since the worker
// started. Workers have no shared clock, so this orders events within one
// worker only (timestamps, local timeouts) — never across processes.
func (e *workerEnv) Now() int64 { return time.Since(e.w.start).Nanoseconds() }

// Send implements runtime.Env: local destinations cascade in-process,
// nodes another worker owns travel its direct peer link, and everything
// else (coordinator-local nodes) goes over the coordinator link. A link
// accepts frames even while its connection is down — they land in the
// retransmit buffer for replay on resume — so transport failures never
// reach an actor mid-Receive; unmaskable ones surface at the worker's
// next blocking point.
func (e *workerEnv) Send(to rt.NodeID, m rt.Message) {
	w := e.w
	if _, local := w.actors[to]; local {
		w.queue = append(w.queue, localDelivery{from: e.self, to: to, msg: m})
		return
	}
	f := getFrame()
	f.Kind, f.From, f.To, f.Msg = frameMsg, int32(e.self), int32(to), m
	if j, owned := w.p2p.owner[to]; owned && j != w.p2p.self {
		// Chunk-bearing worker→worker traffic: the data plane, directly to
		// the owner. Sends toward a dead peer are dropped, mirroring the
		// simulator dropping sends to crashed nodes.
		lk := w.p2p.links[j]
		if w.sendOn(lk, f) {
			w.p2p.peerEmitted[j]++
		} else if lk.state == linkDead {
			w.p2p.dropped++
		}
		return
	}
	if w.sendOn(w.coord, f) {
		w.emitted++
	}
}

// ChargeCPU implements runtime.Env as a no-op.
func (e *workerEnv) ChargeCPU(ns int64) {}

// ChargeDisk implements runtime.Env as a no-op.
func (e *workerEnv) ChargeDisk(bytes int64, read bool) {}
