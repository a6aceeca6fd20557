package tcpnet

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"slices"
	"sync/atomic"
	"time"

	rt "ehjoin/internal/runtime"
	"ehjoin/internal/tuple"
)

// ActorFactory constructs a worker-hosted actor for one of the node ids the
// coordinator assigned. cfgBlob is the coordinator's opaque configuration
// (typically decoded with core.DecodeConfig).
type ActorFactory func(cfgBlob []byte, id rt.NodeID) (rt.Actor, error)

// chunkSink is implemented by a hosted actor that receives tuple chunks:
// InFlightChunks is the most chunks that can be in flight toward it at
// once under the configuration it was built from. A worker's link readers
// decode chunks into arrays from one free list, which parks as many
// released chunks as its actors' sum.
type chunkSink interface {
	InFlightChunks() int
}

// The coordinator link's redial schedule: attempts, spread around the
// backoff pace by redialDelay's jitter. A worker that loses its
// coordinator — a broken connection, or a bare EOF without frameShutdown —
// keeps its state and works through the whole schedule, under 3 s, before
// it gives up.
const (
	redialAttempts = 10
	redialBackoff  = 200 * time.Millisecond
)

// workerOpts collects RunWorker's optional behaviour.
type workerOpts struct {
	peerListen string
	peerWrap   func(net.Conn) net.Conn
}

// WorkerOption configures RunWorker.
type WorkerOption func(*workerOpts)

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

// WithWorkerPeerChaos interposes wrap on every peer connection this worker
// dials — the hook the chaos property suite uses to inject faults on
// worker↔worker links without touching the coordinator link.
func WithWorkerPeerChaos(wrap func(net.Conn) net.Conn) WorkerOption {
	return func(o *workerOpts) { o.peerWrap = wrap }
}

// RunWorker serves one worker process: it opens its data-plane listener,
// connects to the coordinator with dial, advertises the listener as its
// first frame, receives the assignment, constructs its actors, and
// processes messages until the coordinator shuts it down. It returns nil
// on clean shutdown.
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
// A broken coordinator link is redialed with dial on a background
// goroutine while the loop goes on serving the peer links, and resumed or
// reassigned when the coordinator answers. If the redial schedule runs out
// after a bare EOF — a coordinator that closed without frameShutdown and
// never came back — the run is over and RunWorker returns nil; after any
// other failure it returns the error.
func RunWorker(dial func() (net.Conn, error), factory ActorFactory, opts ...WorkerOption) error {
	o := workerOpts{peerListen: ":0"}
	for _, opt := range opts {
		opt(&o)
	}
	l, err := net.Listen("tcp", o.peerListen)
	if err != nil {
		return fmt.Errorf("tcpnet: worker peer listen %q: %w", o.peerListen, err)
	}
	conn, err := dial()
	if err != nil {
		_ = l.Close()
		return fmt.Errorf("tcpnet: worker dial: %w", err)
	}
	w := &worker{
		mux:     newMux(peerInboxFrames),
		coord:   &link{idx: -1, sess: newSession(0, 0, 0)},
		dial:    dial,
		factory: factory,
		actors:  make(map[rt.NodeID]rt.Actor),
		start:   time.Now(),
		p2p:     &p2pState{self: -1, l: l, addr: advertiseAddr(l.Addr(), conn.LocalAddr()), wrap: o.peerWrap},
	}
	defer w.teardown()
	// Bootstrap: the advertised listener address must be the coordinator's
	// first frame from us, before it sends any assignment — every
	// assignment carries the complete address book.
	hello := getFrame()
	hello.Kind, hello.Addr = framePeerAddr, w.p2p.addr
	w.coord.start(conn, w.newReader(conn), hello, nil, &w.mux)
	go w.peerAcceptLoop(l)

	sessTick := time.NewTicker(sessionTickInterval)
	defer sessTick.Stop()
	batchOpen := false // the last event's reader already buffered more input
	for {
		ev, ok := w.poll()
		if !ok {
			// Blocking point. Once the batch is done, report settled
			// counters; either way make sure quiet receive directions still
			// carry acks.
			if !batchOpen {
				w.report(false)
			}
			w.idleAcks()
			if w.fatal != nil {
				return w.fatal
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
	mux                               // every link's reader, handshake and dialer posts here
	coord    *link                    // the coordinator link
	dial     func() (net.Conn, error) // connects to the coordinator, first time and every redial
	lost     error                    // what broke the coordinator link; reported if its redial gives up
	factory  ActorFactory
	actors   map[rt.NodeID]rt.Actor
	queue    []localDelivery
	start    time.Time
	assigned bool
	p2p      *p2pState // the peer-to-peer data plane
	// chunks is the free list every link reader decodes chunks into,
	// replaced at each assignment; its actors release each chunk they
	// consume back to it.
	chunks atomic.Pointer[tuple.FreeList]

	// assignedIDs is the sorted node-id set from the last frameAssign,
	// hashed into the re-attach digest so a restarted coordinator can
	// cross-check this worker's claimed assignment against its replayed
	// log before granting a cheap resume.
	assignedIDs []int32

	processed     int64        // cumulative coordinator-delivered frames handled
	emitted       int64        // cumulative messages sent to the coordinator
	retransmitted int64        // frames replayed on resume, every link
	rep           workerReport // the last report sent

	fatal error // first unmaskable failure; surfaced at the next blocking point
}

// handleEvent applies one inbox event. It returns shutdown=true on a clean
// coordinator shutdown and a non-nil error when the worker cannot
// continue.
func (w *worker) handleEvent(ev linkEvent) (shutdown bool, err error) {
	if ev.hs != nil {
		if ev.src < 0 {
			return w.installCoordConn(ev)
		}
		w.installPeerConn(ev)
		return false, nil
	}
	lk := w.coord
	if src := int(ev.src); src >= 0 {
		if src >= len(w.p2p.links) || w.p2p.links[src] == nil {
			ev.drop()
			return false, nil
		}
		lk = w.p2p.links[src]
	}
	f, err := lk.receive(ev)
	if err != nil {
		// A read error, or a sequence gap — loss the link failed to mask:
		// drop the connection and let the resume handshake restore order.
		w.linkBroken(lk, err)
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
		w.linkBroken(lk, fmt.Errorf("tcpnet: outbox full for %v", linkStallTimeout))
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
		w.peerUnresumable(lk, errors.New("overflowed its retransmit window while disconnected"))
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
	var inFlight int
	for _, a := range actors {
		if s, ok := a.(chunkSink); ok {
			inFlight += s.InFlightChunks()
		}
	}
	var chunks *tuple.FreeList // nil: no actor takes chunks, so none is kept
	if inFlight > 0 {
		chunks = tuple.NewFreeList(inFlight)
	}
	w.chunks.Store(chunks)
	// The frame is pooled; the id set must outlive it for future handshakes.
	w.assignedIDs = append(w.assignedIDs[:0], f.IDs...)
	w.queue = nil
	w.processed, w.emitted = 0, 0
	w.rep.Processed, w.rep.Emitted = 0, 0
	w.assigned = true
	return w.applyP2PAssign(f)
}

// newReader is newWireReader decoding chunks through the worker's list.
func (w *worker) newReader(conn net.Conn) *wireReader {
	r := newWireReader(conn)
	r.chunks = &w.chunks
	return r
}

// newRedialRNG seeds a redial jitter source. Wall clock alone would hand
// co-spawned workers (same `for` loop, same millisecond) correlated seeds,
// so the pid is mixed in; determinism is not wanted here — the whole point
// is that real workers spread out.
func newRedialRNG() *rand.Rand {
	return rand.New(rand.NewSource(time.Now().UnixNano() ^ int64(os.Getpid())<<32))
}

// redialDelay spaces redial attempts so that N workers orphaned by the
// same coordinator crash do not stampede the restarted listener in the
// same instant. The first attempt waits a random fraction of half the
// backoff (quick, but decorrelated); every later attempt waits backoff/2
// plus a random backoff — full jitter around redialBackoff.
func redialDelay(attempt int, rng *rand.Rand) time.Duration {
	if attempt == 0 {
		return time.Duration(rng.Int63n(int64(redialBackoff)/2 + 1))
	}
	return redialBackoff/2 + time.Duration(rng.Int63n(int64(redialBackoff)+1))
}

// redial (re-)establishes lk on a background goroutine that runs
// dialLoop; retiring lk cancels it. The arguments are taken on the event
// loop, so the goroutine touches no link state.
func (w *worker) redial(lk *link, pause func(attempt int) (time.Duration, bool),
	dial func() (net.Conn, error), hello []*frame, want ...frameKind) {
	stop := make(chan struct{})
	lk.stop = stop
	go w.dialLoop(int16(lk.idx), lk.gen, stop, pause, dial, hello, want)
}

// dialLoop is every redial a worker runs, for its coordinator link and its
// peer links alike: wait as pause says, dial, send the hello, read one
// reply of a wanted kind, and post the connection to the event loop as a
// handshake event of link src, generation gen. Retiring the link (stop) or
// shutting the worker down (done) ends it silently. When pause reports
// the schedule spent, it posts a handshake event with no connection and
// the last error instead.
func (w *worker) dialLoop(src int16, gen int32, stop chan struct{}, pause func(int) (time.Duration, bool),
	dial func() (net.Conn, error), hello []*frame, want []frameKind) {
	timer := time.NewTimer(0)
	if !timer.Stop() {
		<-timer.C
	}
	defer timer.Stop()
	var lastErr error
	for attempt := 0; ; attempt++ {
		d, ok := pause(attempt)
		if !ok {
			w.post(linkEvent{src: src, gen: gen, err: lastErr, hs: &handshake{}}, stop)
			return
		}
		timer.Reset(d)
		select {
		case <-timer.C:
		case <-stop:
			return
		case <-w.done:
			return
		}
		conn, err := dial()
		if err == nil {
			r := w.newReader(conn)
			var f *frame
			if f, err = dialHandshake(conn, r, hello, want); err == nil {
				w.post(linkEvent{src: src, gen: gen, f: f, hs: &handshake{conn: conn, r: r}}, stop)
				return
			}
			_ = conn.Close()
		}
		lastErr = err
	}
}

// dialHandshake runs the dialing side of a handshake: write the hello
// frames, then read one reply from r, which must be of a wanted kind. r
// keeps any bytes buffered past the reply; the event loop installs the
// connection, where the session is quiescent.
func dialHandshake(conn net.Conn, r *wireReader, hello []*frame, want []frameKind) (*frame, error) {
	var b []byte
	var err error
	for _, f := range hello {
		if b, err = appendFrame(b, f, 0, 0); err != nil {
			return nil, err
		}
	}
	if _, err = conn.Write(b); err != nil {
		return nil, err
	}
	f, err := readHandshake(conn, r)
	if err != nil {
		return nil, err
	}
	if !slices.Contains(want, f.Kind) {
		kind := f.Kind
		putFrame(f)
		return nil, fmt.Errorf("tcpnet: unexpected handshake reply kind %d", kind)
	}
	return f, nil
}

// spawnCoordDialer redials the coordinator on the jittered schedule with
// the worker's re-attach hello. The hello is built here, once: while the
// link is down nothing moves the session identity, the receive position
// or the assigned node set. If the retransmit buffer overflows meanwhile,
// installCoordConn hangs up on the resume and dials again with a fresh
// hello.
func (w *worker) spawnCoordDialer() {
	hello := []*frame{w.coord.sess.hello(frameCoordResume, w.assignedIDs)}
	if !w.assigned {
		// A blank worker — orphaned before its first assignment reached it —
		// has no session identity, so the coordinator can only seat it in
		// the slot whose address book entry is its data-plane listener:
		// re-advertise the listener ahead of the hello, as at bootstrap.
		hello = append([]*frame{{Kind: framePeerAddr, Addr: w.p2p.addr}}, hello...)
	}
	rng := newRedialRNG()
	pause := func(attempt int) (time.Duration, bool) {
		return redialDelay(attempt, rng), attempt < redialAttempts
	}
	w.redial(w.coord, pause, w.dial, hello, frameResumeOK, frameAssign)
}

// installCoordConn applies the coordinator dialer's outcome on the event
// loop, the way installPeerConn applies a peer dialer's. frameResumeOK
// resumes the session, replaying our unacked frames past the coordinator's
// receive position (rung 1); frameAssign rebuilds the worker from scratch
// under the new epoch (rung 2). Peer links are untouched by a resume; a
// reassignment rebuilds them inside applyAssign. A spent schedule ends the
// worker: cleanly if the link was lost to a bare EOF, with an error
// otherwise.
func (w *worker) installCoordConn(ev linkEvent) (shutdown bool, err error) {
	lk, sess := w.coord, w.coord.sess
	if ev.gen != lk.gen || lk.state != linkDown {
		ev.drop()
		return false, nil
	}
	lk.stop = nil // the dialer exits after posting
	f, conn := ev.f, ev.hs.conn
	if conn == nil {
		if errors.Is(w.lost, io.EOF) {
			return true, nil
		}
		return false, fmt.Errorf("tcpnet: worker lost coordinator (%v); redial gave up: %v", w.lost, ev.err)
	}
	defer putFrame(f)
	if f.Kind == frameAssign {
		if err := w.applyAssign(f); err != nil {
			_ = conn.Close()
			return false, err
		}
		lk.start(conn, ev.hs.r, nil, nil, &w.mux)
		return false, nil
	}
	retrans, err := sess.resumeFrom(f.LastSeq) // the reply's ack only counts after this check
	if err == nil {
		err = sess.peerAck(f.Ack)
	}
	if err != nil {
		// The buffer overflowed after the hello promised a replay, or the
		// coordinator claims a position this worker's buffer cannot serve.
		_ = conn.Close()
		w.spawnCoordDialer()
		return false, nil
	}
	w.retransmitted += int64(len(retrans))
	lk.start(conn, ev.hs.r, nil, retrans, &w.mux)
	// Any report in the replay predates the disconnect and carries stale
	// session stats; follow the replay with a fresh one, moved or not, so
	// the coordinator sees this resume even if the run quiesces before the
	// worker's next blocking point.
	w.report(true)
	return false, nil
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

// report sends a counter report if the counters moved since the last one,
// or unconditionally when forced. Only called with an empty local queue,
// so the counters are settled. The report rides the session layer like any
// reliable frame: it is sequenced, buffered for retransmission, and carries
// the worker's session stats for the coordinator's run report. The writer
// encodes it later, so its per-peer arrays are copies the loop never
// touches again.
func (w *worker) report(force bool) {
	p, last := w.p2p, &w.rep
	if !force && w.processed == last.Processed && w.emitted == last.Emitted &&
		p.dropped == last.WDropped && p.resumes == last.WResumes &&
		slices.Equal(p.peerEmitted, last.PeerEmitted) && slices.Equal(p.peerProcessed, last.PeerProcessed) {
		return
	}
	// WResumes carries only the resumes the coordinator cannot observe
	// itself: peer-link resumes (dialer end). Coordinator-link resumes are
	// counted coordinator-side when the resume is accepted.
	r := workerReport{Processed: w.processed, Emitted: w.emitted,
		PeerEmitted: slices.Clone(p.peerEmitted), PeerProcessed: slices.Clone(p.peerProcessed),
		WResumes: p.resumes, WRetrans: w.retransmitted, WDropped: p.dropped}
	for _, lk := range append([]*link{w.coord}, p.links...) {
		if lk != nil {
			r.WFrames += lk.sess.framesSent()
			r.WDups += lk.sess.dupes()
			r.WChecksum += lk.checksumFails
		}
	}
	w.rep = r
	f := getFrame()
	f.Kind, f.Rep = frameReport, r
	w.sendOn(w.coord, f)
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
