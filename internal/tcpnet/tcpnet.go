// Package tcpnet runs the join protocol across real OS processes: a
// coordinator process hosts the scheduler and the data sources, and worker
// processes host join nodes. Messages travel as length-prefixed binary
// frames over TCP (see wire.go and internal/wire). Every worker talks to
// the coordinator over a control link (assignments, spill negotiation,
// reports, heartbeats, source chunks) and to every other worker over a
// direct peer link that carries worker-to-worker chunk traffic (peer.go).
//
// Quiescence (the Drain phase barrier) is detected with per-link
// counters: every worker reports, after fully draining its local queue,
// how many messages it has processed and emitted on its coordinator link
// and on each peer link. Because reports follow the emitted messages on
// the same FIFO connection — the buffered writers preserve per-connection
// order and flush at every blocking point — the coordinator observing
//
//	delivered(w) == processed(w)  and  received(w) == emitted(w)
//
// for every worker, the per-pair equalities of quiescent, and its own
// local queue empty, implies global quiescence.
//
// Every connection is written by a dedicated writer goroutine behind a
// bounded outbox, so the drain loop never blocks inside a socket write.
// This makes the transport immune to the mutual write stall where the
// coordinator and a worker each wait for the other to read: the drain loop
// always returns to servicing its inbox, so the worker's writes always
// eventually complete.
//
// Worker failures (closed or corrupted connections, hung processes caught
// by the heartbeat) never panic the coordinator. Recovery is a three-rung
// ladder, cheapest first (see session.go):
//
//  1. Ack-based resume (WithResume): the worker redials, the two sides
//     exchange (session, epoch, lastSeqSeen), and only unacked frames are
//     retransmitted. Actor state survived; nothing is recomputed.
//  2. Full reassignment: when the retransmit window overflowed or the
//     session epoch changed, the redialed worker is reassigned from
//     scratch under a new epoch and the failure handler fires so the join
//     layer purges the lost footprint and re-streams it deterministically.
//  3. Death: no reconnection inside the resume window. The worker is
//     tombstoned and the failure handler (WithFailureHandler) lets the
//     scheduler recover — exactly in the build phase, degrading to
//     replica-loss accounting in the probe phase — or, without a handler,
//     Drain surfaces a descriptive error.
package tcpnet

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"strings"
	"time"

	rt "ehjoin/internal/runtime"
	wire "ehjoin/internal/wire"
)

type frameKind uint8

const (
	frameAssign frameKind = iota + 1
	frameMsg
	frameReport
	frameShutdown
	framePing
	framePong
	frameResume      // worker → coordinator: redial handshake hello
	frameResumeOK    // coordinator → worker: resume accepted
	frameAck         // bare cumulative ack, sent when idle traffic can't carry one
	framePeerAddr    // worker → coordinator: data-plane listener address (bootstrap)
	framePeerHello   // worker → worker: peer-link dial/resume handshake hello
	framePeerHelloOK // worker → worker: peer-link handshake accepted
	framePeerEpoch   // coordinator → worker: a peer was reassigned; reset its link under the new epoch
	framePeerDown    // coordinator → worker: a peer is dead; drop its link and its traffic
	// frameCoordResume is the extended redial hello a worker sends in place
	// of frameResume: on top of (session, epoch, lastSeqSeen, canReplay) it
	// carries the worker's outbound ack floor and a digest of its assigned
	// node set, so a coordinator restored from a write-ahead checkpoint can
	// prove the worker's session state matches the replayed log before
	// accepting a rung-1 re-attach.
	frameCoordResume
)

// frame is the wire unit in both directions.
type frame struct {
	Kind frameKind

	// Session envelope, filled by the codec on every frame.
	Seq uint64 // per-session sequence (0 = unsequenced control frame)
	Ack uint64 // sender's cumulative receive position

	// frameAssign / frameResume
	CfgBlob []byte
	IDs     []int32
	Session uint64
	Epoch   uint32

	// frameAssign, data-plane half: this worker's index, the peer address
	// book, the coordinator-owned per-worker peer epochs, and the full
	// node→worker map (so workers route chunk traffic directly).
	Worker     int32
	Peers      []string
	Epochs     []uint32
	MapIDs     []int32
	MapWorkers []int32

	// frameResume / frameResumeOK / framePeerHello / framePeerHelloOK /
	// frameCoordResume
	LastSeq   uint64
	CanReplay bool

	// frameCoordResume extension: the highest coordinator seq the worker
	// has acked (its retransmit-buffer floor) and the digest of its
	// (session, epoch, assigned node ids).
	AckedSeq uint64
	Digest   uint64

	// framePeerAddr: the worker's advertised data-plane listener address.
	Addr string

	// frameMsg. From doubles as the peer-worker index on framePeerHello
	// (the dialer) and framePeerEpoch/framePeerDown (the subject worker).
	From, To int32
	Msg      rt.Message

	// frameReport (cumulative counters)
	Processed int64
	Emitted   int64
	// Per-peer data-plane counters, indexed by worker:
	// messages this worker emitted to / processed from each peer link.
	PeerEmitted   []int64
	PeerProcessed []int64
	// Worker-side session stats, piggybacked so the coordinator can fold
	// them into the run report without another protocol.
	WFrames   int64 // unique reliable frames the worker sequenced
	WResumes  int64 // peer-link resumes (dialer end only); coordinator-link resumes are counted coordinator-side
	WRetrans  int64 // frames the worker retransmitted on resume
	WChecksum int64 // checksum failures the worker observed
	WDups     int64 // duplicate frames the worker dropped
	WDropped  int64 // messages the worker dropped toward dead peers
}

// DrainTimeout is the default bound on a single Drain call; override with
// WithDrainTimeout.
const DrainTimeout = 5 * time.Minute

// Default heartbeat cadence: the coordinator pings every live worker each
// interval while draining, and declares a worker dead when nothing (pong,
// message, or report) has arrived from it within the timeout.
const (
	DefaultHeartbeatInterval = 2 * time.Second
	DefaultHeartbeatTimeout  = 10 * time.Second
)

// DefaultResumeWindow bounds how long a disconnected worker may take to
// redial before the coordinator gives up on resume and falls through to
// the next recovery rung.
const DefaultResumeWindow = 5 * time.Second

// sessionTickInterval paces the coordinator's session maintenance: idle
// acks for quiet receive directions and resume-deadline checks.
const sessionTickInterval = 200 * time.Millisecond

// resumeHandshakeTimeout bounds each side's wait for the other's half of
// the resume handshake.
const resumeHandshakeTimeout = 5 * time.Second

// Default channel capacities: the merged inbox of decoded worker frames,
// and the per-connection writer outbox.
const (
	defaultInboxFrames  = 65536
	defaultOutboxFrames = 4096
)

// workerState is the lifecycle of one worker connection.
type workerState uint8

const (
	stateLive workerState = iota
	stateReconnecting
	stateDead
)

func (s workerState) String() string {
	switch s {
	case stateLive:
		return "live"
	case stateReconnecting:
		return "reconnecting"
	default:
		return "dead"
	}
}

// taggedFrame is a frame annotated with its worker index and connection
// generation for the coordinator's merged inbox.
type taggedFrame struct {
	worker int
	gen    int
	f      *frame
	err    error
	resume *resumeRequest
}

// resumeRequest is a worker's redial handshake, parked in the inbox until
// the drain loop decides between resume and reassignment.
type resumeRequest struct {
	conn      net.Conn
	r         *wireReader // already holds any bytes read past the hello
	session   uint64
	epoch     uint32
	lastSeq   uint64
	canReplay bool
	// frameCoordResume extension (hasDigest): the worker's ack floor and
	// its assignment digest, cross-checked against a replayed checkpoint.
	hasDigest bool
	ackedSeq  uint64
	digest    uint64
	// peerAddr is the data-plane listener a blank worker re-advertised
	// ahead of its hello; it pins the worker to the slot whose logged
	// address book entry it matches.
	peerAddr string
}

// workerConn is the coordinator's view of one worker.
type workerConn struct {
	conn      net.Conn
	out       chan *frame   // writer-goroutine outbox; non-nil only while live
	wdone     chan struct{} // closed when the writer goroutine has exited
	sess      *session
	delivered int64 // messages the coordinator enqueued for this worker
	processed int64 // last reported processed count
	received  int64 // messages the coordinator read from this worker
	emitted   int64 // last reported emitted count
	lastHeard time.Time
	gen       int // bumped when a connection is retired; older frames are stale
	state     workerState

	resumeDeadline time.Time // while reconnecting: give up on resume after this
	failCause      error     // what broke the last connection
	// restored marks a worker whose session positions came from a
	// checkpoint replay rather than live traffic: its next resume must
	// pass the digest cross-check, and counts as a re-attachment.
	restored bool

	// Latest worker-reported per-peer data-plane counters.
	peerEmitted   []int64
	peerProcessed []int64

	// Latest worker-reported session stats.
	repWFrames, repWResumes, repWRetrans, repWChecksum, repWDups, repWDropped int64
}

type localDelivery struct {
	from rt.NodeID
	to   rt.NodeID
	msg  rt.Message
	// srcSeq is the session sequence number of the worker frame that
	// carried the message (coordinator queue only; 0 for local senders and
	// injections). It rides into the delivery's checkpoint record so
	// replay can tell which frames of the worker's stream the log covers.
	srcSeq uint64
}

// FailureHandler is notified when a worker is declared dead (or was
// reassigned with all actor state lost). nodes lists the join-node ids the
// worker hosted; a handler typically injects death notifications for them so
// the scheduler's recovery protocol takes over.
type FailureHandler func(worker int, nodes []rt.NodeID, cause error)

// Coordinator implements runtime.Engine over TCP workers.
type Coordinator struct {
	workers    []*workerConn
	bySession  map[uint64]int
	inbox      chan taggedFrame
	inboxCap   int
	outboxCap  int
	pending    []taggedFrame // frames deferred while a full outbox was draining
	assignment map[rt.NodeID]int
	local      map[rt.NodeID]rt.Actor
	queue      []localDelivery
	start      time.Time
	closed     bool

	cfgBlob     []byte
	perWorker   [][]int32
	sessionBase uint64

	// Data plane: peer address book collected at bootstrap and the
	// coordinator-owned per-worker peer epochs, bumped on every full
	// reassignment so peers reset their direct links.
	peerAddrs  []string
	peerEpochs []uint32

	lastProgress time.Time // last applied frame or local delivery (Drain inactivity clock)

	drainTimeout  time.Duration
	hbInterval    time.Duration
	hbTimeout     time.Duration
	onFailure     FailureHandler
	resumeL       net.Listener
	resumeWindow  time.Duration
	retransFrames int
	retransBytes  int

	fatal         error // first unrecoverable failure; surfaced by Drain
	dropped       int64 // messages discarded because their worker is dead
	resumes       int64 // rung-1 recoveries performed
	fullReassigns int64 // rung-2 recoveries performed
	retransmitted int64 // frames the coordinator replayed on resume
	checksumFails int64 // corrupted frames the coordinator's read loops rejected
	relayedMsgs   int64 // worker→worker messages relayed through the coordinator; a guard, always 0
	relayedBytes  int64 // payload bytes of those relayed messages

	// Crash-recovery checkpointing (WithCheckpoint; see checkpoint.go).
	ckpt        *ckptWriter
	crashArmed  bool  // WithCrashPoint trigger not yet fired
	crashPhase  int   // phase the injected crash targets (-1: whole-log record count)
	crashRecs   int64 // records into that phase (or total) before the kill
	killed      bool  // crash fired: route is a no-op, Drain returns ErrCoordKilled
	drains      int   // completed Drain calls (phase barriers logged)
	rootInjects int   // restored: injected-message prefix of the interrupted phase
	restarts    int64 // restorations in this coordinator's log lineage
	replayed    int64 // checkpoint records replayed by this restoration
	reattached  int64 // restored workers accepted back on rung 1
}

// Option configures a Coordinator.
type Option func(*Coordinator)

// WithDrainTimeout bounds each Drain call instead of the default
// DrainTimeout.
func WithDrainTimeout(d time.Duration) Option {
	return func(c *Coordinator) { c.drainTimeout = d }
}

// WithHeartbeat sets the ping cadence and the silence threshold after which
// a worker is declared dead. A zero interval disables heartbeats.
func WithHeartbeat(interval, timeout time.Duration) Option {
	return func(c *Coordinator) { c.hbInterval, c.hbTimeout = interval, timeout }
}

// WithInboxFrames sizes the coordinator's merged inbox of decoded worker
// frames (default 65536). Mostly a test hook: small inboxes exercise the
// transport's backpressure paths.
func WithInboxFrames(n int) Option {
	return func(c *Coordinator) {
		if n > 0 {
			c.inboxCap = n
		}
	}
}

// WithFailureHandler installs the callback invoked when a worker dies.
// Without one, a worker death is fatal: Drain returns a descriptive error.
func WithFailureHandler(h FailureHandler) Option {
	return func(c *Coordinator) { c.onFailure = h }
}

// WithResume accepts worker-initiated session resumes on l: a worker whose
// connection breaks redials l, and its session continues with only the
// unacked frames retransmitted — the cheapest recovery rung, with actor
// state intact. window bounds how long the coordinator waits for the
// redial (0 = DefaultResumeWindow) before declaring the worker dead. The
// coordinator owns l and closes it on Close, which is also how clean
// shutdown is disambiguated on the worker side: a redial refused after EOF
// means the run is over.
func WithResume(l net.Listener, window time.Duration) Option {
	return func(c *Coordinator) {
		c.resumeL = l
		if window > 0 {
			c.resumeWindow = window
		}
	}
}

// WithRetransmitWindow bounds each worker session's retransmit buffer
// (defaults DefaultRetransmitFrames / DefaultRetransmitBytes). A session
// whose window overflows stays functional but loses resumability for the
// epoch: its next disconnect takes the full-reassignment rung.
func WithRetransmitWindow(frames, bytes int) Option {
	return func(c *Coordinator) { c.retransFrames, c.retransBytes = frames, bytes }
}

// MaxWorkers bounds the worker count so peer-pair session ids fit the low
// 16 bits reserved next to worker session ids (see pairSession).
const MaxWorkers = 128

// ErrNoWorkers is NewCoordinator's error for an empty connection list: a
// run needs at least one worker process to host its join nodes.
var ErrNoWorkers = errors.New("tcpnet: no worker connections")

// NewCoordinator wires up accepted worker connections. assignment maps
// node ids to indexes in conns; every unassigned registered node runs
// locally. cfgBlob is shipped verbatim to each worker (typically
// core.EncodeConfig output) together with its assigned node ids, the peer
// address book, and the full node→worker map. It first reads every
// worker's advertised data-plane listener (framePeerAddr), so each
// assignment carries the complete address book.
func NewCoordinator(cfgBlob []byte, assignment map[rt.NodeID]int, conns []net.Conn, opts ...Option) (*Coordinator, error) {
	c := &Coordinator{
		assignment:   assignment,
		local:        make(map[rt.NodeID]rt.Actor),
		bySession:    make(map[uint64]int),
		inboxCap:     defaultInboxFrames,
		outboxCap:    defaultOutboxFrames,
		start:        time.Now(),
		cfgBlob:      cfgBlob,
		drainTimeout: DrainTimeout,
		hbInterval:   DefaultHeartbeatInterval,
		hbTimeout:    DefaultHeartbeatTimeout,
		resumeWindow: DefaultResumeWindow,
	}
	for _, o := range opts {
		o(c)
	}
	if len(conns) == 0 {
		return nil, ErrNoWorkers
	}
	if len(conns) > MaxWorkers {
		return nil, fmt.Errorf("tcpnet: at most %d workers supported, got %d", MaxWorkers, len(conns))
	}
	c.inbox = make(chan taggedFrame, c.inboxCap)
	c.perWorker = make([][]int32, len(conns))
	c.peerEpochs = make([]uint32, len(conns))
	for id, w := range assignment {
		if w < 0 || w >= len(conns) {
			return nil, fmt.Errorf("tcpnet: node %d assigned to nonexistent worker %d", id, w)
		}
		c.perWorker[w] = append(c.perWorker[w], int32(id))
	}
	// The assignment map's iteration order is randomised; sort each
	// worker's id list so assignments (and everything downstream of them:
	// actor construction order, recovery targets) are reproducible.
	for _, ids := range c.perWorker {
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	}
	if c.ckpt != nil && c.resumeL == nil {
		return nil, errors.New("tcpnet: WithCheckpoint requires WithResume; recovery is worker-initiated re-attachment")
	}
	if c.crashArmed && c.ckpt == nil {
		return nil, errors.New("tcpnet: WithCrashPoint requires WithCheckpoint")
	}
	// Session ids only need to be unique within a run and unlikely to
	// collide with a stale worker from a previous run redialing the same
	// port; a timestamp base with the worker index in the low bits does.
	// Peer-pair sessions carve out the 0x8000 bit of the same low range
	// (see pairSession), so they can never collide with a worker session.
	base := uint64(time.Now().UnixNano()) &^ 0xFFFF
	c.sessionBase = base
	now := time.Now()
	readers := make([]*wireReader, len(conns))
	for i, conn := range conns {
		readers[i] = newWireReader(conn)
		// Bootstrap: the worker's first frame advertises its data-plane
		// listener; it must be in hand before any assignment goes out, so
		// every assignment can carry the complete address book.
		_ = conn.SetReadDeadline(now.Add(resumeHandshakeTimeout))
		f, err := readers[i].ReadFrame()
		if err != nil {
			return nil, fmt.Errorf("tcpnet: worker %d peer-address hello: %w", i, err)
		}
		if f.Kind != framePeerAddr || f.Addr == "" {
			kind, addr := f.Kind, f.Addr
			putFrame(f)
			return nil, fmt.Errorf("tcpnet: worker %d sent frame kind %d (addr %q), want its peer address",
				i, kind, addr)
		}
		_ = conn.SetReadDeadline(time.Time{})
		c.peerAddrs = append(c.peerAddrs, f.Addr)
		putFrame(f)
	}
	for i, conn := range conns {
		w := &workerConn{conn: conn, lastHeard: now,
			sess: newSession(base|uint64(i), c.retransFrames, c.retransBytes)}
		if c.ckpt != nil {
			w.sess.enableAckGate()
		}
		c.bySession[w.sess.id] = i
		c.workers = append(c.workers, w)
	}
	// The header must be on disk before any record that refers to its
	// topology — and before any worker traffic that could log one.
	c.logRecord(c.headerRecord())
	if c.fatal != nil {
		return nil, c.fatal
	}
	for i, conn := range conns {
		w := c.workers[i]
		c.startWriter(w, conn, nil, nil)
		//lint:allow chansend outbox was created empty this iteration and the writer just started; the first send cannot fill it
		w.out <- c.assignFrame(i, 0)
		go c.readLoop(i, 0, readers[i])
	}
	if c.resumeL != nil {
		go c.acceptLoop(c.resumeL)
	}
	return c, nil
}

// pairSession derives the session id both ends of a peer link (i, j)
// compute independently: the run's session base with the 0x8000 flag and
// the ordered pair packed in the low bits.
func pairSession(base uint64, i, j int) uint64 {
	if i > j {
		i, j = j, i
	}
	return base | 0x8000 | uint64(i)<<7 | uint64(j)
}

// assignFrame builds worker i's assignment frame: configuration, node ids,
// session identity, the worker's index, the peer address book, the current
// peer epochs, and the full node→worker map.
func (c *Coordinator) assignFrame(i int, epoch uint32) *frame {
	af := getFrame()
	af.Kind, af.Session, af.Epoch = frameAssign, c.workers[i].sess.id, epoch
	af.CfgBlob, af.IDs = c.cfgBlob, c.perWorker[i]
	af.Worker = int32(i)
	af.Peers = c.peerAddrs
	af.Epochs = append([]uint32(nil), c.peerEpochs...)
	ids := make([]rt.NodeID, 0, len(c.assignment))
	for id := range c.assignment {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	af.MapIDs = make([]int32, len(ids))
	af.MapWorkers = make([]int32, len(ids))
	for k, id := range ids {
		af.MapIDs[k] = int32(id)
		af.MapWorkers[k] = int32(c.assignment[id])
	}
	return af
}

// startWriter attaches a fresh outbox and writer goroutine to w's current
// connection. first (optional) is written before anything else — the
// resume-accept or reassign frame that must precede all traffic on the new
// connection — followed by retrans, the pre-encoded unacked frames being
// replayed.
func (c *Coordinator) startWriter(w *workerConn, conn net.Conn, first *frame, retrans [][]byte) {
	w.out = make(chan *frame, c.outboxCap)
	w.wdone = make(chan struct{})
	go writeLoop(conn, newSessionWriter(conn, w.sess), w.out, w.wdone, first, retrans)
}

// writeLoop owns one connection's buffered writer: it batches queued
// frames and flushes exactly when the outbox runs dry — immediately before
// it would block — so everything the coordinator is waiting on is on the
// wire. On a write error it closes the connection (the failure surfaces
// through the read loop) and keeps draining the outbox; the session writer
// keeps sequencing reliable frames into the retransmit buffer while it
// does, so nothing is lost and senders are never blocked behind a wedged
// socket. It exits when the outbox is closed.
func writeLoop(conn net.Conn, w *wireWriter, out <-chan *frame, done chan<- struct{}, first *frame, retrans [][]byte) {
	defer close(done)
	if first != nil {
		_ = w.WriteFrame(first)
		putFrame(first)
	}
	for _, b := range retrans {
		_ = w.WriteRaw(b)
	}
	// The handshake reply and replay must hit the wire before the loop
	// parks on an empty outbox: the worker is blocked waiting for them.
	if w.Err() == nil {
		_ = w.Flush()
	}
	if w.Err() != nil {
		_ = conn.Close()
	}
	for f := range out {
		_ = w.WriteFrame(f)
		// Encoded (or failed for good): the frame's bytes live in the
		// session's retransmit buffer now, so a message that lent the
		// transport a pooled buffer gets it back.
		if r, ok := f.Msg.(rt.Releaser); ok {
			r.Release()
		}
		putFrame(f)
		if w.Err() == nil && len(out) == 0 {
			_ = w.Flush()
		}
		if w.Err() != nil {
			_ = conn.Close()
		}
	}
	if w.Err() == nil {
		_ = w.Flush()
	}
}

// readLoop decodes one worker connection's frames into the merged inbox.
// The reader is passed in (not built from the conn) so a resumed
// connection keeps the bytes its handshake already buffered.
func (c *Coordinator) readLoop(i, gen int, r *wireReader) {
	for {
		f, err := r.ReadFrame()
		if err != nil {
			//lint:allow chansend bounded-inbox backpressure by design; the coordinator loop always drains inbox, see send()
			c.inbox <- taggedFrame{worker: i, gen: gen, err: err}
			return
		}
		//lint:allow chansend bounded-inbox backpressure by design; the coordinator loop always drains inbox, see send()
		c.inbox <- taggedFrame{worker: i, gen: gen, f: f}
	}
}

// acceptLoop turns redialed connections into resume requests for the
// drain loop. It exits when the listener closes (Coordinator.Close).
func (c *Coordinator) acceptLoop(l net.Listener) {
	for {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		go c.resumeHandshake(conn)
	}
}

// resumeHandshake reads the redialing worker's hello and parks it in the
// inbox. Anything malformed, late, or unroutable just drops the
// connection — the worker retries or gives up on its own schedule.
func (c *Coordinator) resumeHandshake(conn net.Conn) {
	_ = conn.SetReadDeadline(time.Now().Add(resumeHandshakeTimeout))
	r := newWireReader(conn)
	f, err := r.ReadFrame()
	if err != nil {
		_ = conn.Close()
		return
	}
	// A blank worker re-advertises its data-plane listener ahead of
	// the hello, mirroring the bootstrap sequence, so the coordinator can
	// seat it in the slot its logged address book assigns that listener.
	peerAddr := ""
	if f.Kind == framePeerAddr {
		peerAddr = f.Addr
		putFrame(f)
		if f, err = r.ReadFrame(); err != nil {
			_ = conn.Close()
			return
		}
	}
	_ = conn.SetReadDeadline(time.Time{})
	if f.Kind != frameResume && f.Kind != frameCoordResume {
		putFrame(f)
		_ = conn.Close()
		return
	}
	req := &resumeRequest{conn: conn, r: r, peerAddr: peerAddr,
		session: f.Session, epoch: f.Epoch, lastSeq: f.LastSeq, canReplay: f.CanReplay}
	if f.Kind == frameCoordResume {
		req.hasDigest = true
		req.ackedSeq = f.AckedSeq
		req.digest = f.Digest
	}
	putFrame(f)
	select {
	case c.inbox <- taggedFrame{resume: req}:
	default:
		// Inbox jammed; dropping the attempt is safe — the worker's
		// handshake read times out and it redials.
		_ = conn.Close()
	}
}

// Register implements runtime.Engine. Actors for remotely assigned ids are
// discarded: the worker constructs its own instance.
func (c *Coordinator) Register(id rt.NodeID, a rt.Actor) {
	if _, remote := c.assignment[id]; remote {
		return
	}
	if _, dup := c.local[id]; dup {
		panic(fmt.Sprintf("tcpnet: node %d registered twice", id))
	}
	c.local[id] = a
}

// Inject implements runtime.Engine.
func (c *Coordinator) Inject(to rt.NodeID, m rt.Message) {
	c.route(rt.NoNode, to, m, 0)
}

// route moves one message toward its destination. srcSeq is the session
// sequence number of the worker frame that carried it — 0 when the sender
// is coordinator-local or an injection — and is recorded in the message's
// checkpoint record (relay here, delivery at enqueue below).
func (c *Coordinator) route(from, to rt.NodeID, m rt.Message, srcSeq uint64) {
	if c.killed {
		return
	}
	if w, remote := c.assignment[to]; remote {
		_, fromRemote := c.assignment[from]
		if fromRemote {
			// Worker→worker traffic through the coordinator. Workers ship
			// it over their direct peer links, so this counter is a guard
			// that reads 0 on every run.
			c.relayedMsgs++
			c.relayedBytes += int64(m.WireSize())
		}
		if c.ckpt != nil && (fromRemote || from == rt.NoNode) {
			// Write-ahead: replay cannot regenerate a send whose cause
			// lives on a worker (a relay) or nowhere (an injection), so
			// the message itself goes in the log — before the state
			// check below, so the log sees exactly what route saw.
			c.logRecord(&wire.CkptRecord{Kind: wire.CkptRelay,
				From: int32(from), To: int32(to), Worker: int32(w), Seq: srcSeq, Msg: m})
			if c.killed {
				return
			}
			if srcSeq > 0 {
				// The carrying frame's event is now durably logged, so its
				// ack may leave (write-ahead ack gating).
				c.workers[c.assignment[from]].sess.logged(srcSeq)
			}
		}
		wc := c.workers[w]
		if wc.state != stateLive {
			if wc.state == stateReconnecting && c.resumeL != nil && wc.sess.resumable() {
				// The worker is expected back with its state intact:
				// sequence the message straight into the retransmit
				// buffer, to be replayed on resume. No outbox exists
				// while disconnected.
				f := getFrame()
				f.Kind, f.From, f.To, f.Msg = frameMsg, int32(from), int32(to), m
				_, err := wc.sess.encode(f)
				putFrame(f)
				if err != nil {
					if c.fatal == nil {
						c.fatal = err
					}
					return
				}
				wc.delivered++
				return
			}
			// Expected during the window between a death and the join
			// layer rerouting around it; mirrors the simulator dropping
			// messages to crashed nodes.
			c.dropped++
			return
		}
		f := getFrame()
		f.Kind, f.From, f.To, f.Msg = frameMsg, int32(from), int32(to), m
		if c.send(w, f) {
			wc.delivered++
		}
		return
	}
	if _, ok := c.local[to]; !ok {
		if c.fatal == nil {
			c.fatal = fmt.Errorf("tcpnet: message %T for unknown node %d", m, to)
		}
		return
	}
	// Local deliveries are logged at dequeue time (see Drain), not here:
	// the record stream must be in processing order, because replay
	// re-runs each Receive at its record's position to regenerate the
	// sends it caused — and those sends' sequence numbers only come out
	// right if replay meets them in the exact order route first did.
	c.queue = append(c.queue, localDelivery{from: from, to: to, msg: m, srcSeq: srcSeq})
}

// send enqueues f on worker i's outbox. The fast path never blocks; while
// the outbox is full the drain loop keeps servicing the inbox (deferring
// frames to c.pending in arrival order) so the worker's own writes — and
// therefore its reads, and therefore this outbox — keep making progress. A
// worker that accepts nothing for the whole stall timeout is declared
// failed. Reports whether the frame was enqueued.
func (c *Coordinator) send(i int, f *frame) bool {
	w := c.workers[i]
	select {
	case w.out <- f:
		return true
	default:
	}
	stall := time.NewTimer(c.stallTimeout())
	defer stall.Stop()
	for {
		select {
		case w.out <- f:
			return true
		case tf := <-c.inbox:
			c.pending = append(c.pending, tf)
		case <-stall.C:
			putFrame(f)
			c.failWorker(i, fmt.Errorf("outbox full for %v: worker stopped draining its connection", c.stallTimeout()))
			return false
		}
	}
}

// stallTimeout bounds how long a full outbox may refuse a frame before its
// worker is declared failed.
func (c *Coordinator) stallTimeout() time.Duration {
	if c.hbTimeout > 0 {
		return c.hbTimeout
	}
	return c.drainTimeout
}

// failWorker handles a broken worker connection: retire the connection
// (waiting for the writer goroutine so every queued reliable frame lands
// in the retransmit buffer, in order), then either wait for a
// worker-initiated resume (WithResume) or tombstone the worker and hand
// the death to the failure handler (or record it as fatal for Drain to
// surface).
func (c *Coordinator) failWorker(i int, cause error) {
	w := c.workers[i]
	if w.state != stateLive || c.closed {
		return
	}
	_ = w.conn.Close()
	close(w.out) // writer drains the outbox into the session buffer, exits
	<-w.wdone
	w.out = nil
	w.gen++ // frames still in flight from the old connection are stale
	w.failCause = cause
	if c.resumeL != nil {
		// Rung 1 pending: the worker holds its state and redials us.
		// Whether the session actually resumes — or falls through to a
		// full reassignment — is decided when its hello arrives.
		w.state = stateReconnecting
		w.resumeDeadline = time.Now().Add(c.resumeWindow)
		return
	}
	c.markDead(i, cause)
}

// scrubQueuedSeqs zeroes the source sequence number of every queued local
// delivery that originated on worker i. Called when i's session epoch is
// invalidated (rung-2 reassignment, death): the messages themselves are
// still valid to deliver, but their sequence numbers belong to the dead
// epoch — logging them against the fresh epoch would corrupt both the
// live ack gate and a replayed log's receive-coverage set.
func (c *Coordinator) scrubQueuedSeqs(i int) {
	for k := range c.queue {
		if c.queue[k].srcSeq == 0 {
			continue
		}
		if w, remote := c.assignment[c.queue[k].from]; remote && w == i {
			c.queue[k].srcSeq = 0
		}
	}
}

// markDead tombstones worker i: peers are told to drop their direct links
// to it, and the failure handler (or Drain's fatal error) takes over.
func (c *Coordinator) markDead(i int, cause error) {
	if c.ckpt != nil {
		// Log-before-act: the tombstone, the scrub, the peer-down
		// broadcasts, and the death notification are all observable
		// effects of this record — a crash after any of them but before
		// the record would replay the worker as live with a queue already
		// scrubbed against its death.
		c.logRecord(&wire.CkptRecord{Kind: wire.CkptDeath, Worker: int32(i)})
		if c.killed {
			return
		}
	}
	c.workers[i].state = stateDead
	c.scrubQueuedSeqs(i)
	for j, w := range c.workers {
		if j == i || w.state == stateDead {
			continue
		}
		f := getFrame()
		f.Kind, f.From = framePeerDown, int32(i)
		c.sendCtl(j, f)
	}
	c.notifyDeath(i, cause)
}

// bumpPeerEpoch advances worker i's peer epoch (it is being reassigned
// from scratch, so every direct link to it must reset) and broadcasts the
// bump to the other workers. Worker i itself learns the new epoch from the
// fresh assignment frame.
func (c *Coordinator) bumpPeerEpoch(i int) {
	c.peerEpochs[i]++
	for j, w := range c.workers {
		if j == i || w.state == stateDead {
			continue
		}
		f := getFrame()
		f.Kind, f.From, f.Epoch = framePeerEpoch, int32(i), c.peerEpochs[i]
		c.sendCtl(j, f)
	}
}

// sendCtl delivers a reliable control frame to worker j, sequencing it
// straight into the session's retransmit buffer when the worker is between
// connections (it will be replayed on resume, in order with the message
// stream). Frames to dead or non-resumable workers are dropped: a worker
// that comes back at all comes back through a fresh assignment, which
// carries the complete peer state these frames were incrementally updating.
func (c *Coordinator) sendCtl(j int, f *frame) {
	w := c.workers[j]
	switch {
	case w.state == stateLive:
		_ = c.send(j, f)
	case w.state == stateReconnecting && c.resumeL != nil && w.sess.resumable():
		_, err := w.sess.encode(f)
		putFrame(f)
		if err != nil && c.fatal == nil {
			c.fatal = err
		}
	default:
		putFrame(f)
	}
}

// applyResume decides a redialing worker's fate: resume the session from
// the retransmit buffers (rung 1), or reassign it from scratch under a new
// epoch (rung 2).
func (c *Coordinator) applyResume(req *resumeRequest) {
	i, ok := c.bySession[req.session]
	blank := false
	if !ok && !c.closed && req.hasDigest && req.session == 0 && req.epoch == 0 &&
		req.lastSeq == 0 && req.ackedSeq == 0 && req.digest == assignDigest(0, 0, nil) {
		// A parked worker orphaned before its first assignment ever
		// reached it. It has no session identity to present, but it is a
		// blank slate, and any slot the log never heard a frame from is
		// indistinguishable from the one it lost — so seat it in the first
		// such slot by re-sending the assignment and replaying the slot's
		// entire sequenced stream from the retransmit buffer. That is
		// exact, and cheaper than the purge rung: nothing the worker held
		// is lost, because it never held anything. Blank workers are NOT
		// interchangeable — every peer dials the address book — so the
		// re-advertised listener must pin the claim to the one slot whose
		// logged address it matches.
		for k, wk := range c.workers {
			if wk.state == stateReconnecting && wk.sess.seen() == 0 &&
				wk.sess.ackedNow() == 0 && wk.sess.resumable() &&
				req.peerAddr != "" && c.peerAddrs[k] == req.peerAddr {
				i, ok, blank = k, true, true
				break
			}
		}
	}
	if !ok || c.closed {
		_ = req.conn.Close()
		return
	}
	w := c.workers[i]
	if w.state == stateDead {
		// Too late: the scheduler already recovered around this worker.
		_ = req.conn.Close()
		return
	}
	if w.state == stateLive {
		// The worker noticed the failure before we did; retire the old
		// connection first, exactly as failWorker would.
		_ = w.conn.Close()
		close(w.out)
		<-w.wdone
		w.out = nil
		w.gen++
		if w.failCause == nil {
			w.failCause = errors.New("worker redialed over a live connection")
		}
	}
	sess := w.sess
	// Rung-1 eligibility. The base conditions are the live-coordinator
	// ones: same epoch, both retransmit buffers intact. The rest are
	// identities on a live coordinator but do real work after a
	// checkpoint restore, where the buffer and positions are replay
	// regenerations:
	//   - lastSeq ∈ [acked, framesSent]: the worker saw everything below
	//     our buffer's floor, and nothing the replayed log does not know
	//     about (a frame beyond the log's horizon — a torn tail, an
	//     unlogged relay — breaks this);
	//   - ackedSeq ≤ seen: no worker-side frame was acked and pruned
	//     beyond our replayed receive position (an ack outran the log);
	//   - digest match: the worker's (session, epoch, node set) is the
	//     one the replayed log assigns it. A legacy frameResume carries
	//     no digest and is never trusted by a restored coordinator.
	ok = blank || (req.epoch == sess.epochNow() && req.canReplay && sess.resumable() &&
		req.lastSeq >= sess.ackedNow() && req.lastSeq <= uint64(sess.framesSent()) &&
		req.ackedSeq <= sess.seen())
	if ok && !blank {
		if req.hasDigest {
			ok = req.digest == assignDigest(sess.id, req.epoch, c.perWorker[i])
		} else {
			ok = !w.restored
		}
	}
	if ok {
		// Rung 1: both retransmit buffers survived intact. Trim ours to
		// the worker's receive position and replay only the rest; tell
		// the worker our position so it does the same. Counters are NOT
		// reset — with exactly-once delivery restored, the quiescence
		// predicate carries straight across the disconnect. A blank
		// worker is the degenerate case: position zero, so the replay is
		// the slot's whole stream, prefixed by the assignment it missed.
		sess.peerAck(req.lastSeq)
		retrans := sess.unackedSince(req.lastSeq)
		var okf *frame
		if blank {
			okf = c.assignFrame(i, sess.epochNow())
		} else {
			okf = getFrame()
			// Advertise the ackable position, not the raw receive position:
			// on a gated (checkpointing) session a frame may be seen but its
			// event not yet logged, and the worker trims its retransmit
			// buffer to this value — trimming an unlogged frame would put it
			// beyond recovery if we crash before its record lands. The
			// worker replays from here; anything in (ackable, seen] is shed
			// as a duplicate by the sequence window.
			okf.Kind, okf.LastSeq = frameResumeOK, sess.ackable()
		}
		w.conn = req.conn
		w.gen++
		w.state = stateLive
		w.lastHeard = time.Now()
		w.resumeDeadline = time.Time{}
		w.failCause = nil
		if w.restored {
			w.restored = false
			c.reattached++
		}
		c.startWriter(w, req.conn, okf, retrans)
		go c.readLoop(i, w.gen, req.r)
		c.resumes++
		c.retransmitted += int64(len(retrans))
		return
	}
	// Rung 2: the window overflowed, the epochs disagree, or a restored
	// coordinator could not prove the worker's session matches the
	// replayed log. Reassign the worker from scratch under a fresh epoch
	// and let the failure handler run the join layer's purge + re-stream
	// recovery.
	cause := w.failCause
	if cause == nil {
		cause = errors.New("connection lost")
	}
	cause = fmt.Errorf("session %#x not resumable (epoch %d/%d, replayable %v/%v, seen %d of [%d, %d], restored %v): %w",
		req.session, req.epoch, sess.epochNow(), req.canReplay, sess.resumable(),
		req.lastSeq, sess.ackedNow(), sess.framesSent(), w.restored, cause)
	w.restored = false
	epoch := sess.bumpEpoch()
	peerEpoch := c.peerEpochs[i] + 1
	if c.ckpt != nil {
		// Log-before-act: the session reset, the queue scrub, and the
		// broadcasts bumpPeerEpoch is about to sequence are all effects
		// of this record — a crash after the reset but before the record
		// would replay the old epoch's ack state against a session that
		// already dropped it.
		c.logRecord(&wire.CkptRecord{Kind: wire.CkptEpoch, Worker: int32(i),
			SessEpoch: epoch, PeerEpoch: peerEpoch})
		if c.killed {
			_ = req.conn.Close()
			return
		}
	}
	sess.reset()
	c.scrubQueuedSeqs(i)
	c.bumpPeerEpoch(i)
	af := c.assignFrame(i, epoch)
	w.conn = req.conn
	w.gen++
	w.delivered, w.processed, w.received, w.emitted = 0, 0, 0, 0
	w.peerEmitted, w.peerProcessed = nil, nil
	w.lastHeard = time.Now()
	w.state = stateLive
	w.resumeDeadline = time.Time{}
	w.failCause = nil
	c.fullReassigns++
	c.startWriter(w, req.conn, af, nil)
	c.sendPeerLiveness(i)
	go c.readLoop(i, w.gen, req.r)
	c.notifyDeath(i, cause)
}

// sendPeerLiveness catches a freshly reassigned worker up on peers that
// died before its new assignment: the fresh assignment carries epochs and
// addresses but not liveness, and without these frames the worker would
// redial a dead peer's address forever.
func (c *Coordinator) sendPeerLiveness(i int) {
	for k, w := range c.workers {
		if k == i || w.state != stateDead {
			continue
		}
		f := getFrame()
		f.Kind, f.From = framePeerDown, int32(k)
		c.sendCtl(i, f)
	}
}

func (c *Coordinator) notifyDeath(i int, cause error) {
	if c.onFailure != nil {
		nodes := make([]rt.NodeID, 0, len(c.perWorker[i]))
		for _, id := range c.perWorker[i] {
			nodes = append(nodes, rt.NodeID(id))
		}
		c.onFailure(i, nodes, cause)
		return
	}
	if c.fatal == nil {
		w := c.workers[i]
		c.fatal = fmt.Errorf("tcpnet: worker %d (nodes %v) failed: %v "+
			"(delivered %d processed %d received %d emitted %d)",
			i, c.perWorker[i], cause, w.delivered, w.processed, w.received, w.emitted)
	}
}

// quiescent reports whether no work remains anywhere. Dead workers are
// excluded: their outstanding counters can never settle. A reconnecting
// worker blocks quiescence — its resume, or the failure notification that
// follows, are still in flight.
//
// The per-connection predicate generalizes to per-link counters: besides
// each coordinator link's delivered==processed and
// received==emitted, every ordered live pair (i, j) must agree that what i
// emitted onto its direct link to j, j has processed:
//
//	emittedTo_i[j] == processedFrom_j[i]
//
// A single evaluation over the latest reports is sound: every emission is
// caused by processing some delivered message, and the report that first
// carries the emission also carries that processing (reports are written
// at blocking points, counters move atomically per report). Walking any
// in-flight message's causal chain downward therefore reaches a counter
// the predicate can see is unsettled — bottoming out at a coordinator
// injection, where the coordinator's own delivered count breaks the
// equality. Drain still confirms on a second matching round (see the
// quiescence check there) as insurance against future counter additions
// that might not preserve the atomicity argument.
func (c *Coordinator) quiescent() bool {
	if len(c.queue) > 0 || len(c.pending) > 0 {
		return false
	}
	for _, w := range c.workers {
		switch w.state {
		case stateDead:
			continue
		case stateReconnecting:
			return false
		}
		if w.delivered != w.processed || w.received != w.emitted {
			return false
		}
	}
	for i, wi := range c.workers {
		if wi.state != stateLive {
			continue
		}
		for j, wj := range c.workers {
			if j == i || wj.state != stateLive {
				continue
			}
			if peerCount(wi.peerEmitted, j) != peerCount(wj.peerProcessed, i) {
				return false
			}
		}
	}
	return true
}

// peerCount reads a per-peer counter array that may not have been reported
// yet (nil until the worker's first report).
func peerCount(a []int64, i int) int64 {
	if i >= len(a) {
		return 0
	}
	return a[i]
}

// Drain implements runtime.Engine: process local deliveries and relay
// worker traffic until global quiescence, pinging workers along the way.
//
// The drain timeout is inactivity-based: the deadline resets on every
// applied frame and every batch of local deliveries, so a long healthy
// run with continuous traffic never times out mid-join — only a drain
// where nothing has made progress for the whole timeout does.
func (c *Coordinator) Drain() error {
	env := &coordEnv{c: c}
	idle := time.NewTimer(c.drainTimeout)
	defer idle.Stop()
	var heartbeat <-chan time.Time
	if c.hbInterval > 0 {
		t := time.NewTicker(c.hbInterval)
		defer t.Stop()
		heartbeat = t.C
	}
	sessTick := time.NewTicker(sessionTickInterval)
	defer sessTick.Stop()
	// A worker is only expected to be responsive while we drain, so
	// silence accumulated between Drain calls does not count; the same
	// holds for a resume deadline set at the tail of the previous drain.
	// Dead workers are not expected to speak at all.
	now := time.Now()
	c.lastProgress = now
	for _, w := range c.workers {
		switch w.state {
		case stateLive:
			w.lastHeard = now
		case stateReconnecting:
			if !w.resumeDeadline.IsZero() {
				w.resumeDeadline = now.Add(c.resumeWindow)
			}
		}
	}
	for {
		// Apply deferred transport frames (oldest first, preserving each
		// connection's FIFO order), then run the local queue dry.
		for len(c.pending) > 0 || len(c.queue) > 0 {
			if c.fatal != nil {
				return c.fatal
			}
			if len(c.pending) > 0 {
				tf := c.pending[0]
				c.pending = c.pending[1:]
				c.apply(tf)
				continue
			}
			d := c.queue[0]
			c.queue[0] = localDelivery{} // the queue's array must not keep a delivered chunk alive
			c.queue = c.queue[1:]
			if c.ckpt != nil {
				// Write-ahead, in processing order: the record lands
				// before the Receive it describes, so a crash between the
				// two replays the Receive (and re-derives its sends into
				// the retransmit buffers) rather than losing it.
				srcW := int32(-1)
				if w, remote := c.assignment[d.from]; remote {
					srcW = int32(w)
				}
				c.logRecord(&wire.CkptRecord{Kind: wire.CkptDelivery,
					From: int32(d.from), To: int32(d.to), Worker: srcW, Seq: d.srcSeq, Msg: d.msg})
				if c.killed {
					continue // the fatal check above ends the drain
				}
				if srcW >= 0 && d.srcSeq > 0 {
					// Write-ahead ack gating: the carrying frame's event is
					// in the log now, so its ack may leave.
					c.workers[srcW].sess.logged(d.srcSeq)
				}
			}
			env.self = d.to
			c.local[d.to].Receive(env, d.from, d.msg)
			c.absorb()
			c.lastProgress = time.Now()
		}
		if c.fatal != nil {
			return c.fatal
		}
		if c.quiescent() {
			// Confirmation round: absorb anything that raced into the
			// inbox and require the predicate to hold again over the same
			// settled counters before declaring the barrier passed.
			c.absorb()
			if c.fatal != nil {
				return c.fatal
			}
			if len(c.queue) == 0 && c.quiescent() {
				if c.ckpt != nil {
					c.logRecord(&wire.CkptRecord{Kind: wire.CkptPhase, Phase: int32(c.drains)})
					if c.fatal != nil {
						return c.fatal
					}
				}
				c.drains++
				return nil
			}
			continue
		}
		// Block until a worker has something for us.
		select {
		case tf := <-c.inbox:
			c.apply(tf)
		case <-heartbeat:
			c.pingWorkers()
		case <-sessTick.C:
			c.sessionTick()
		case <-idle.C:
			if wait := c.drainTimeout - time.Since(c.lastProgress); wait > 0 {
				idle.Reset(wait)
				continue
			}
			return c.timeoutError()
		}
	}
}

// pingWorkers sends one ping to every live worker and declares dead any
// worker silent past the heartbeat timeout. Pings are best-effort: a full
// outbox already proves traffic is in flight, so the ping is skipped
// rather than queued behind it.
func (c *Coordinator) pingWorkers() {
	now := time.Now()
	for i, w := range c.workers {
		if w.state != stateLive {
			continue
		}
		if c.hbTimeout > 0 && now.Sub(w.lastHeard) > c.hbTimeout {
			c.failWorker(i, fmt.Errorf("no heartbeat for %v (timeout %v)",
				now.Sub(w.lastHeard).Round(time.Millisecond), c.hbTimeout))
			continue
		}
		f := getFrame()
		f.Kind = framePing
		select {
		case w.out <- f:
		default:
			putFrame(f)
		}
	}
}

// sessionTick is the coordinator's session maintenance: flush a bare ack
// for any receive direction that has gone quiet (so worker retransmit
// buffers keep trimming during one-sided traffic), and expire resume
// deadlines, falling through to the next recovery rung.
func (c *Coordinator) sessionTick() {
	now := time.Now()
	for i, w := range c.workers {
		switch w.state {
		case stateLive:
			if w.sess.needAck() {
				f := getFrame()
				f.Kind = frameAck
				select {
				case w.out <- f:
				default:
					putFrame(f) // traffic in flight will carry the ack
				}
			}
		case stateReconnecting:
			if !w.resumeDeadline.IsZero() && now.After(w.resumeDeadline) {
				w.resumeDeadline = time.Time{}
				cause := w.failCause
				if cause == nil {
					cause = errors.New("connection lost")
				}
				c.markDead(i, fmt.Errorf("no resume within %v: %w", c.resumeWindow, cause))
			}
		}
	}
}

// timeoutError describes a stuck drain, including per-worker counters so a
// wedged worker is identifiable from the message alone.
func (c *Coordinator) timeoutError() error {
	var b strings.Builder
	fmt.Fprintf(&b, "tcpnet: drain timed out after %v: %d queued local deliveries, %d dropped",
		c.drainTimeout, len(c.queue), c.dropped)
	for i, w := range c.workers {
		fmt.Fprintf(&b, "; worker %d (%s) delivered %d processed %d received %d emitted %d",
			i, w.state, w.delivered, w.processed, w.received, w.emitted)
	}
	return errors.New(b.String())
}

// absorb applies every deferred and already-queued frame without blocking.
// Connection errors are not swallowed: apply records them via failWorker,
// which either recovers the worker or sets the fatal error Drain returns.
func (c *Coordinator) absorb() {
	for {
		if len(c.pending) > 0 {
			tf := c.pending[0]
			c.pending = c.pending[1:]
			c.apply(tf)
			continue
		}
		select {
		case tf := <-c.inbox:
			c.apply(tf)
		default:
			return
		}
	}
}

func (c *Coordinator) apply(tf taggedFrame) {
	if tf.resume != nil {
		c.applyResume(tf.resume)
		return
	}
	w := c.workers[tf.worker]
	if w.state != stateLive || tf.gen != w.gen {
		// Stale frame from a tombstoned or replaced connection.
		if tf.f != nil {
			putFrame(tf.f)
		}
		return
	}
	if tf.err != nil {
		if c.closed {
			return
		}
		if errors.Is(tf.err, wire.ErrChecksum) {
			c.checksumFails++
		}
		c.failWorker(tf.worker, tf.err)
		return
	}
	w.lastHeard = time.Now()
	c.lastProgress = w.lastHeard
	f := tf.f
	w.sess.peerAck(f.Ack)
	if f.Seq > 0 {
		ok, err := w.sess.acceptSeq(f.Seq)
		if err != nil {
			putFrame(f)
			c.failWorker(tf.worker, err)
			return
		}
		if !ok {
			putFrame(f) // duplicate from a retransmission overlap
			return
		}
	}
	switch f.Kind {
	case frameMsg:
		w.received++
		c.route(rt.NodeID(f.From), rt.NodeID(f.To), f.Msg, f.Seq)
	case frameReport:
		w.processed = f.Processed
		w.emitted = f.Emitted
		w.repWFrames = f.WFrames
		w.repWResumes = f.WResumes
		w.repWRetrans = f.WRetrans
		w.repWChecksum = f.WChecksum
		w.repWDups = f.WDups
		w.repWDropped = f.WDropped
		w.peerEmitted = append(w.peerEmitted[:0], f.PeerEmitted...)
		w.peerProcessed = append(w.peerProcessed[:0], f.PeerProcessed...)
		if c.ckpt != nil {
			// Every accepted reliable frame must land in the log once —
			// frameMsg does via route — so a restored coordinator's
			// receive position matches what it acked pre-crash.
			c.logRecord(&wire.CkptRecord{Kind: wire.CkptMark, Worker: int32(tf.worker),
				Seq: f.Seq, Ack: f.Ack, Processed: w.processed, Emitted: w.emitted})
			if !c.killed {
				w.sess.logged(f.Seq)
			}
		}
	case framePong, frameAck:
		// lastHeard and peerAck updates above are the whole point.
	}
	wasReliable := f.Seq > 0
	putFrame(f)
	if !wasReliable {
		return
	}
	// A worker streaming results up with nothing routed back to it gets no
	// piggyback acks from us; cap its retransmit debt mid-stream. The ack
	// is encoded by the writer goroutine (debt resets when it drains), so
	// the modulo limits the trigger to one ack per threshold of frames.
	if debt := w.sess.ackDebt(); debt >= ackDebtThreshold && debt%ackDebtThreshold == 0 {
		af := getFrame()
		af.Kind = frameAck
		select {
		case w.out <- af:
		default:
			putFrame(af) // a full outbox is traffic that will carry the ack
		}
	}
}

// NowSeconds implements runtime.Engine with wall-clock time.
func (c *Coordinator) NowSeconds() float64 { return time.Since(c.start).Seconds() }

// DroppedMessages reports how many messages were discarded because their
// destination worker was dead or reconnecting.
func (c *Coordinator) DroppedMessages() int64 { return c.dropped }

// TransportStats implements the optional engine stats hook the report
// layer consumes (see core.Execute): a fold of the coordinator's own
// session counters with the latest worker-reported ones.
func (c *Coordinator) TransportStats() rt.TransportStats {
	ts := rt.TransportStats{
		Resumes:             c.resumes,
		FullReassigns:       c.fullReassigns,
		RetransmittedFrames: c.retransmitted,
		ChecksumFailures:    c.checksumFails,
		DroppedMessages:     c.dropped,
		RelayedMessages:     c.relayedMsgs,
		RelayedBytes:        c.relayedBytes,
		CoordRestarts:       c.restarts,
		CheckpointReplays:   c.replayed,
		ReattachedWorkers:   c.reattached,
	}
	for _, w := range c.workers {
		ts.FramesSent += w.sess.framesSent() + w.repWFrames
		ts.DuplicateFrames += w.sess.dupes() + w.repWDups
		ts.RetransmittedFrames += w.repWRetrans
		ts.ChecksumFailures += w.repWChecksum
		ts.DroppedMessages += w.repWDropped
		// WResumes is peer-link resumes only (counted once per pair, by the
		// dialer end); coordinator-link resumes are already in c.resumes.
		ts.Resumes += w.repWResumes
	}
	return ts
}

// Close shuts every live worker down, waits for each writer goroutine to
// flush, and closes the connections. Closing the resume listener first is
// what lets workers distinguish shutdown from failure: a redial refused
// after EOF means the run is over. (A coordinator downed by its crash
// point has nothing left to close: kill already severed every connection
// with no shutdown frame, and marked the workers dead.)
func (c *Coordinator) Close() {
	if c.closed {
		return
	}
	c.closed = true
	if c.resumeL != nil {
		_ = c.resumeL.Close()
	}
	for _, w := range c.workers {
		if w.state != stateLive {
			continue
		}
		f := getFrame()
		f.Kind = frameShutdown
		select {
		case w.out <- f:
		default:
			// Outbox jammed; the connection close below delivers EOF,
			// which workers also treat as a clean shutdown.
			putFrame(f)
		}
		close(w.out)
		<-w.wdone
		_ = w.conn.Close()
	}
}

// coordEnv implements runtime.Env for coordinator-local actors.
type coordEnv struct {
	c    *Coordinator
	self rt.NodeID
}

// Now implements runtime.Env.
func (e *coordEnv) Now() int64 { return time.Since(e.c.start).Nanoseconds() }

// Send implements runtime.Env.
func (e *coordEnv) Send(to rt.NodeID, m rt.Message) { e.c.route(e.self, to, m, 0) }

// ChargeCPU implements runtime.Env as a no-op.
func (e *coordEnv) ChargeCPU(ns int64) {}

// ChargeDisk implements runtime.Env as a no-op.
func (e *coordEnv) ChargeDisk(bytes int64, read bool) {}
