// Package tcpnet runs the join protocol across real OS processes: a
// coordinator process hosts the scheduler and the data sources, and worker
// processes host join nodes. Messages travel as length-prefixed binary
// frames over TCP (see wire.go and internal/wire). Every worker talks to
// the coordinator over a control link (assignments, spill negotiation,
// reports, heartbeats, source chunks) and to every other worker over a
// direct peer link that carries worker-to-worker chunk traffic (peer.go).
//
// Each end of each connection is a link (link.go): a reader goroutine that
// posts decoded frames into its owner's merged inbox and answers pings
// itself, a writer goroutine behind a bounded outbox, and a session with
// its receive gate and ack policy. One event loop per process — the
// coordinator's Drain, a worker's RunWorker — applies the inbox. No loop
// ever blocks inside a socket write, and while an outbox is full the loop
// keeps servicing its inbox, so two ends that each wait for the other to
// read cannot deadlock.
//
// Quiescence (the Drain phase barrier) is detected with per-link
// counters: every worker reports, after fully draining its local queue,
// how many messages it has processed and emitted on its coordinator link
// and on each peer link. Because a report follows the messages emitted
// before it through the same outbox and connection, the coordinator
// observing
//
//	delivered(w) == processed(w)  and  received(w) == emitted(w)
//
// for every worker, the per-pair equalities of quiescent, and its own
// local queue empty, implies global quiescence.
//
// Worker failures (closed or corrupted connections, hung processes caught
// by the heartbeat) never panic the coordinator. There is one way back
// onto a broken connection: the coordinator owns the listener its workers
// dialed, and a worker owns the dial function that reached it. A worker
// that loses its coordinator keeps its state and redials on a background
// goroutine — its event loop goes on serving the peer links — with one
// hello, frameCoordResume. Recovery is a three-rung ladder, cheapest first
// (see session.go):
//
//  1. Ack-based resume: the worker redials, the two sides exchange
//     (session, epoch, lastSeqSeen, digest), and only unacked frames are
//     retransmitted. Actor state survived; nothing is recomputed.
//  2. Full reassignment: when the retransmit window overflowed or the
//     session epoch changed, the redialed worker is reassigned from
//     scratch under a new epoch and the failure handler fires so the join
//     layer purges the lost footprint and re-streams it deterministically.
//  3. Death: no reconnection inside the resume window (WithResumeWindow).
//     The worker is tombstoned and the failure handler
//     (WithFailureHandler) lets the scheduler recover — exactly in the
//     build phase, degrading to replica-loss accounting in the probe phase
//     — or, without a handler, Drain surfaces a descriptive error.
package tcpnet

import (
	"errors"
	"fmt"
	"net"
	"slices"
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
	_                // retired: the digest-less redial hello; the kind stays reserved
	frameResumeOK    // coordinator → worker: resume accepted
	frameAck         // bare cumulative ack, sent when idle traffic can't carry one
	framePeerAddr    // worker → coordinator: data-plane listener address (bootstrap)
	framePeerHello   // worker → worker: peer-link dial/resume handshake hello
	framePeerHelloOK // worker → worker: peer-link handshake accepted
	framePeerEpoch   // coordinator → worker: a peer was reassigned; reset its link under the new epoch
	framePeerDown    // coordinator → worker: a peer is dead; drop its link and its traffic
	// frameCoordResume is the worker's one redial hello: (session, epoch,
	// lastSeqSeen, canReplay), the worker's outbound ack floor, and a digest
	// of its assigned node set, so a coordinator — live, or restored from a
	// write-ahead checkpoint — can prove the worker's session state matches
	// its own before accepting a rung-1 re-attach.
	frameCoordResume
)

// frame is the wire unit in both directions.
type frame struct {
	Kind frameKind

	// Session envelope, filled by the codec on every frame.
	Seq uint64 // per-session sequence (0 = unsequenced control frame)
	Ack uint64 // sender's cumulative receive position

	// frameAssign / frameCoordResume
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

	// frameCoordResume / frameResumeOK / framePeerHello / framePeerHelloOK
	LastSeq   uint64
	CanReplay bool

	// frameCoordResume: the highest coordinator seq the worker has acked
	// (its retransmit-buffer floor) and the digest of its (session, epoch,
	// assigned node ids).
	AckedSeq uint64
	Digest   uint64

	// framePeerAddr: the worker's advertised data-plane listener address.
	Addr string

	// frameMsg. From doubles as the peer-worker index on framePeerHello
	// (the dialer) and framePeerEpoch/framePeerDown (the subject worker).
	From, To int32
	Msg      rt.Message

	// frameReport
	Rep workerReport
}

// workerReport is a worker's cumulative counters, one value end to end: the
// worker keeps the last one it sent, the frameReport carries it, and the
// coordinator's workerConn holds the latest it read.
type workerReport struct {
	// Messages this worker processed from and emitted onto its
	// coordinator link.
	Processed int64
	Emitted   int64
	// Per-peer data-plane counters, indexed by worker: messages this
	// worker emitted to / processed from each peer link.
	PeerEmitted   []int64
	PeerProcessed []int64
	// Worker-side session stats, folded into the run report.
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

// workerConn is the coordinator's view of one worker: its end of the
// worker's link (down while the worker is expected to redial) plus the
// counters and recovery state the coordinator owns.
type workerConn struct {
	link
	delivered int64        // messages the coordinator enqueued for this worker
	received  int64        // messages the coordinator read from this worker
	rep       workerReport // the worker's latest report
	lastHeard time.Time

	resumeDeadline time.Time // while down: give up on resume after this
	failCause      error     // what broke the last connection
	// restored marks a worker whose session positions came from a
	// checkpoint replay rather than live traffic: its next resume must
	// pass the digest cross-check, and counts as a re-attachment.
	restored bool
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
	mux        // every worker link's reader and every resume hello post here
	workers    []*workerConn
	bySession  map[uint64]int
	inboxCap   int
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
	l             net.Listener // the listener workers dialed; redials arrive here
	resumeWindow  time.Duration
	retransFrames int
	retransBytes  int

	fatal error // first unrecoverable failure; surfaced by Drain
	// stats holds the coordinator's own transport counters: messages
	// dropped toward dead workers, rung-1 resumes and rung-2 reassignments,
	// frames it replayed, and the restore lineage. TransportStats folds the
	// workers' reports into a copy.
	stats rt.TransportStats

	// Crash-recovery checkpointing (WithCheckpoint; see checkpoint.go).
	ckpt        *ckptWriter
	crashArmed  bool  // WithCrashPoint trigger not yet fired
	crashPhase  int   // phase the injected crash targets (-1: whole-log record count)
	crashRecs   int64 // records into that phase (or total) before the kill
	killed      bool  // crash fired: route is a no-op, Drain returns ErrCoordKilled
	drains      int   // completed Drain calls (phase barriers logged)
	draining    bool  // inside Drain: an Inject now is a failure handler's, not a root one
	skipDrains  int   // restored: Drains still to pass without running (phases the log completed)
	rootInjects int   // restored: root injections of the interrupted phase still to discard
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

// WithResumeWindow bounds how long a disconnected worker may take to
// redial before the coordinator declares it dead (default
// DefaultResumeWindow; 0 keeps the default).
func WithResumeWindow(d time.Duration) Option {
	return func(c *Coordinator) {
		if d > 0 {
			c.resumeWindow = d
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

// NewCoordinator wires up worker connections accepted from l, the
// listener the workers dialed. The coordinator owns l from here on: every
// worker that loses its connection redials it, and Close closes it (an
// error return has closed it already). assignment maps node ids to
// indexes in conns; every unassigned
// registered node runs locally. cfgBlob is shipped verbatim to each worker
// (typically core.EncodeConfig output) together with its assigned node
// ids, the peer address book, and the full node→worker map. It first reads
// every worker's advertised data-plane listener (framePeerAddr), so each
// assignment carries the complete address book.
func NewCoordinator(cfgBlob []byte, assignment map[rt.NodeID]int, l net.Listener, conns []net.Conn, opts ...Option) (_ *Coordinator, err error) {
	defer closeOnError(l, &err)
	if len(conns) == 0 {
		return nil, ErrNoWorkers
	}
	if len(conns) > MaxWorkers {
		return nil, fmt.Errorf("tcpnet: at most %d workers supported, got %d", MaxWorkers, len(conns))
	}
	c := newCoordinator(l, opts)
	c.assignment, c.cfgBlob = assignment, cfgBlob
	if c.crashArmed && c.ckpt == nil {
		return nil, errors.New("tcpnet: WithCrashPoint requires WithCheckpoint")
	}
	// Session ids only need to be unique within a run and unlikely to
	// collide with a stale worker from a previous run redialing the same
	// port; a timestamp base with the worker index in the low bits does.
	// Peer-pair sessions carve out the 0x8000 bit of the same low range
	// (see pairSession), so they can never collide with a worker session.
	c.sessionBase = uint64(time.Now().UnixNano()) &^ 0xFFFF
	if err := c.addWorkers(len(conns)); err != nil {
		return nil, err
	}
	readers := make([]*wireReader, len(conns))
	for i, conn := range conns {
		readers[i] = newWireReader(conn)
		// Bootstrap: the worker's first frame advertises its data-plane
		// listener; it must be in hand before any assignment goes out, so
		// every assignment can carry the complete address book.
		f, err := readHandshake(conn, readers[i])
		if err != nil {
			return nil, fmt.Errorf("tcpnet: worker %d peer-address hello: %w", i, err)
		}
		if f.Kind != framePeerAddr || f.Addr == "" {
			kind, addr := f.Kind, f.Addr
			putFrame(f)
			return nil, fmt.Errorf("tcpnet: worker %d sent frame kind %d (addr %q), want its peer address",
				i, kind, addr)
		}
		c.peerAddrs = append(c.peerAddrs, f.Addr)
		putFrame(f)
	}
	// The header must be on disk before any record that refers to its
	// topology — and before any worker traffic that could log one.
	c.logRecord(c.headerRecord())
	if c.fatal != nil {
		return nil, c.fatal
	}
	for i, conn := range conns {
		c.workers[i].start(conn, readers[i], c.assignFrame(i, 0), nil, &c.mux)
	}
	go c.acceptLoop()
	return c, nil
}

// closeOnError closes l when *err is set: a constructor that fails hands
// back no coordinator to own the listener it was given.
func closeOnError(l net.Listener, err *error) {
	if *err != nil {
		l.Close()
	}
}

// newCoordinator applies opts over the defaults NewCoordinator and
// RestoreCoordinator share.
func newCoordinator(l net.Listener, opts []Option) *Coordinator {
	c := &Coordinator{
		l:            l,
		assignment:   make(map[rt.NodeID]int),
		local:        make(map[rt.NodeID]rt.Actor),
		bySession:    make(map[uint64]int),
		inboxCap:     defaultInboxFrames,
		start:        time.Now(),
		drainTimeout: DrainTimeout,
		hbInterval:   DefaultHeartbeatInterval,
		hbTimeout:    DefaultHeartbeatTimeout,
		resumeWindow: DefaultResumeWindow,
	}
	for _, o := range opts {
		o(c)
	}
	c.mux = newMux(c.inboxCap)
	return c
}

// addWorkers builds the table of n workers from the assignment: each
// worker's node-id list, its peer epoch, and its end of its link, down
// until a connection is started on it. A worker's session id is the run's
// session base with the worker index in the low bits.
func (c *Coordinator) addWorkers(n int) error {
	c.perWorker = make([][]int32, n)
	for id, w := range c.assignment {
		if w < 0 || w >= n {
			return fmt.Errorf("tcpnet: node %d assigned to nonexistent worker %d", id, w)
		}
		c.perWorker[w] = append(c.perWorker[w], int32(id))
	}
	// The assignment map's iteration order is randomised; sort each
	// worker's id list so assignments (and everything downstream of them:
	// actor construction order, recovery targets, replay) are reproducible.
	for _, ids := range c.perWorker {
		slices.Sort(ids)
	}
	c.peerEpochs = make([]uint32, n)
	now := time.Now()
	for i := range n {
		w := &workerConn{lastHeard: now,
			link: link{idx: i, sess: newSession(c.sessionBase|uint64(i), c.retransFrames, c.retransBytes)}}
		if c.ckpt != nil {
			w.sess.enableAckGate()
		}
		c.bySession[w.sess.id] = i
		c.workers = append(c.workers, w)
	}
	return nil
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
	slices.Sort(ids)
	af.MapIDs = make([]int32, len(ids))
	af.MapWorkers = make([]int32, len(ids))
	for k, id := range ids {
		af.MapIDs[k] = int32(id)
		af.MapWorkers[k] = int32(c.assignment[id])
	}
	return af
}

// acceptLoop turns redialed connections into resume requests for the
// drain loop. It exits when the listener closes (Coordinator.Close).
func (c *Coordinator) acceptLoop() {
	for {
		conn, err := c.l.Accept()
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
	r := newWireReader(conn)
	f, err := readHandshake(conn, r)
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
		if f, err = readHandshake(conn, r); err != nil {
			_ = conn.Close()
			return
		}
	}
	if f.Kind != frameCoordResume {
		putFrame(f)
		_ = conn.Close()
		return
	}
	// The hello's Addr carries the re-advertised listener (if any) to
	// applyResume; a resume hello has no address of its own.
	f.Addr = peerAddr
	c.post(linkEvent{src: -1, f: f, hs: &handshake{conn: conn, r: r}}, nil)
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

// ErrMisrouted is the error Drain returns when a worker sends the
// coordinator a message for a node a worker hosts. Worker→worker traffic
// travels the direct peer links; the coordinator never relays it.
var ErrMisrouted = errors.New("tcpnet: worker frame addressed to a worker-hosted node")

// Inject implements runtime.Engine. It is the one place an injection
// reaches the log: the record lands before the message is routed, marked
// root when the call comes between Drains (a phase-schedule injection)
// and not root when a failure handler makes it inside one. A restored
// coordinator discards what its log already absorbed: every injection
// until it has passed the Drains the log completed, then the interrupted
// phase's first rootInjects (see RestoreCoordinator).
func (c *Coordinator) Inject(to rt.NodeID, m rt.Message) {
	if c.skipDrains > 0 {
		return
	}
	if c.rootInjects > 0 {
		c.rootInjects--
		return
	}
	if c.ckpt != nil {
		c.logRecord(&wire.CkptRecord{Kind: wire.CkptInject, To: int32(to), Root: !c.draining, Msg: m})
	}
	c.route(rt.NoNode, to, m, 0)
}

// route moves one message toward its destination: a worker's link or the
// local queue. srcSeq is the session sequence number of the worker frame
// that carried it — 0 when the sender is coordinator-local or an
// injection — and rides into the delivery's checkpoint record, which Drain
// writes at dequeue. route itself logs nothing: a message for a worker is
// an injection, which Inject logged, or a local actor's send, which replay
// regenerates.
func (c *Coordinator) route(from, to rt.NodeID, m rt.Message, srcSeq uint64) {
	if c.killed {
		return
	}
	if w, remote := c.assignment[to]; remote {
		f := getFrame()
		f.Kind, f.From, f.To, f.Msg = frameMsg, int32(from), int32(to), m
		if c.sendTo(w, f) {
			c.workers[w].delivered++
		} else if c.fatal == nil {
			// Expected during the window between a death and the join
			// layer rerouting around it; mirrors the simulator dropping
			// messages to crashed nodes.
			c.stats.DroppedMessages++
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

// sendTo delivers a reliable frame to worker j, taking ownership of it: on
// the live outbox, or — while the worker is expected back with its session
// intact (window not overflowed) — sequenced straight into the
// retransmit buffer, to be replayed on resume in order with everything
// before it. A worker whose full outbox accepts nothing for the whole stall
// timeout is failed, and the frame takes the same path. Frames to dead or
// non-resumable workers are dropped: a worker that comes back at all comes
// back through a fresh assignment and a re-stream. Reports whether the
// frame was taken.
func (c *Coordinator) sendTo(j int, f *frame) bool {
	w := c.workers[j]
	if w.state == linkLive {
		if w.send(f, &c.mux, c.stallTimeout()) {
			return true
		}
		c.failWorker(j, fmt.Errorf("outbox full for %v: worker stopped draining its connection", c.stallTimeout()))
	}
	if w.state == linkDown && w.sess.resumable() {
		if err := w.buffer(f); err != nil {
			if c.fatal == nil {
				c.fatal = err
			}
			return false
		}
		return true
	}
	putFrame(f)
	return false
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
// in the retransmit buffer, in order) and wait for the worker, which holds
// its state, to redial. Whether the session resumes, falls through to a
// full reassignment, or — once the resume window lapses — ends in the
// worker's death is decided by what arrives, or does not, on the listener.
func (c *Coordinator) failWorker(i int, cause error) {
	w := c.workers[i]
	if w.state != linkLive || c.closed {
		return
	}
	w.retire()
	w.failCause = cause
	w.resumeDeadline = time.Now().Add(c.resumeWindow)
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

// markDead declares worker i dead: tombstone it, then hand its nodes to
// the failure handler (or Drain's fatal error).
func (c *Coordinator) markDead(i int, cause error) {
	if c.tombstone(i) {
		c.notifyDeath(i, cause)
	}
}

// tombstone logs worker i's death and acts on it: the link goes dead, its
// queued sequence numbers are scrubbed, and peers are told to drop their
// direct links to it. Replay runs it for every CkptDeath record. Reports
// false when the log write killed the coordinator and nothing was done.
func (c *Coordinator) tombstone(i int) bool {
	if c.ckpt != nil {
		// Log-before-act: the tombstone, the scrub, the peer-down
		// broadcasts, and the death notification are all observable
		// effects of this record — a crash after any of them but before
		// the record would replay the worker as live with a queue already
		// scrubbed against its death.
		c.logRecord(&wire.CkptRecord{Kind: wire.CkptDeath, Worker: int32(i)})
		if c.killed {
			return false
		}
	}
	c.workers[i].state = linkDead
	c.scrubQueuedSeqs(i)
	for j, w := range c.workers {
		if j == i || w.state == linkDead {
			continue
		}
		f := getFrame()
		f.Kind, f.From = framePeerDown, int32(i)
		c.sendTo(j, f)
	}
	return true
}

// bumpPeerEpoch sets worker i's peer epoch (it is being reassigned from
// scratch, so every direct link to it must reset) and broadcasts the bump
// to the other workers. Worker i itself learns the new epoch from the
// fresh assignment frame.
func (c *Coordinator) bumpPeerEpoch(i int, epoch uint32) {
	c.peerEpochs[i] = epoch
	for j, w := range c.workers {
		if j == i || w.state == linkDead {
			continue
		}
		f := getFrame()
		f.Kind, f.From, f.Epoch = framePeerEpoch, int32(i), epoch
		c.sendTo(j, f)
	}
}

// applyResume decides a redialing worker's fate: resume the session from
// the retransmit buffers (rung 1), or reassign it from scratch under a new
// epoch (rung 2). ev carries the worker's frameCoordResume hello, with
// Addr holding the listener a blank worker re-advertised ahead of it.
func (c *Coordinator) applyResume(ev linkEvent) {
	req, conn := ev.f, ev.hs.conn
	defer putFrame(req)
	i, ok := c.bySession[req.Session]
	blank := false
	if !ok && !c.closed && req.Session == 0 && req.Epoch == 0 &&
		req.LastSeq == 0 && req.AckedSeq == 0 && req.Digest == assignDigest(0, 0, nil) {
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
			if wk.state == linkDown && wk.sess.seen() == 0 &&
				wk.sess.ackedNow() == 0 && wk.sess.resumable() &&
				req.Addr != "" && c.peerAddrs[k] == req.Addr {
				i, ok, blank = k, true, true
				break
			}
		}
	}
	if !ok || c.closed {
		_ = conn.Close()
		return
	}
	w := c.workers[i]
	if w.state == linkDead {
		// Too late: the scheduler already recovered around this worker.
		_ = conn.Close()
		return
	}
	if w.state == linkLive {
		// The worker noticed the failure before we did; retire the old
		// connection first, exactly as failWorker would.
		w.retire()
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
	//     about (a frame beyond the log's horizon — a torn tail —
	//     breaks this);
	//   - ackedSeq ≤ seen: no worker-side frame was acked and pruned
	//     beyond our replayed receive position (an ack outran the log);
	//   - digest match: the worker's (session, epoch, node set) is the
	//     one the replayed log assigns it.
	// resumeFrom checks that our buffer is intact and lastSeq ≤ framesSent.
	ok = blank || (req.Epoch == sess.epochNow() && req.CanReplay &&
		req.LastSeq >= sess.ackedNow() && req.AckedSeq <= sess.seen() &&
		req.Digest == assignDigest(sess.id, req.Epoch, c.perWorker[i]))
	var retrans [][]byte
	if ok {
		retrans, ok = sess.resumeFrom(req.LastSeq)
	}
	if ok {
		// Rung 1: both retransmit buffers survived intact. Trim ours to
		// the worker's receive position and replay only the rest; tell
		// the worker our position so it does the same. Counters are NOT
		// reset — with exactly-once delivery restored, the quiescence
		// predicate carries straight across the disconnect. A blank
		// worker is the degenerate case: position zero, so the replay is
		// the slot's whole stream, prefixed by the assignment it missed.
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
		w.lastHeard = time.Now()
		w.resumeDeadline = time.Time{}
		w.failCause = nil
		if w.restored {
			w.restored = false
			c.stats.ReattachedWorkers++
		}
		w.start(conn, ev.hs.r, okf, retrans, &c.mux)
		c.stats.Resumes++
		c.stats.RetransmittedFrames += int64(len(retrans))
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
		req.Session, req.Epoch, sess.epochNow(), req.CanReplay, sess.resumable(),
		req.LastSeq, sess.ackedNow(), sess.framesSent(), w.restored, cause)
	w.restored = false
	epoch, ok := c.resetEpoch(i, c.peerEpochs[i]+1)
	if !ok {
		_ = conn.Close()
		return
	}
	w.lastHeard = time.Now()
	w.resumeDeadline = time.Time{}
	w.failCause = nil
	c.stats.FullReassigns++
	w.start(conn, ev.hs.r, c.assignFrame(i, epoch), nil, &c.mux)
	c.sendPeerLiveness(i)
	c.notifyDeath(i, cause)
}

// resetEpoch logs and starts worker i's next session epoch (rung 2): the
// session and the worker's counters start over, its queued sequence
// numbers are scrubbed, and its peer epoch becomes peerEpoch, broadcast to
// every other live worker. Replay runs it for every CkptEpoch record.
// Returns the new session epoch, and false when the log write killed the
// coordinator and nothing was done.
func (c *Coordinator) resetEpoch(i int, peerEpoch uint32) (uint32, bool) {
	w := c.workers[i]
	epoch := w.sess.bumpEpoch()
	if c.ckpt != nil {
		// Log-before-act: the session reset, the queue scrub, and the
		// broadcasts bumpPeerEpoch is about to sequence are all effects
		// of this record — a crash after the reset but before the record
		// would replay the old epoch's ack state against a session that
		// already dropped it.
		c.logRecord(&wire.CkptRecord{Kind: wire.CkptEpoch, Worker: int32(i),
			SessEpoch: epoch, PeerEpoch: peerEpoch})
		if c.killed {
			return epoch, false
		}
	}
	w.sess.reset()
	c.scrubQueuedSeqs(i)
	c.bumpPeerEpoch(i, peerEpoch)
	w.delivered, w.received = 0, 0
	w.rep.Processed, w.rep.Emitted = 0, 0
	w.rep.PeerEmitted, w.rep.PeerProcessed = nil, nil
	return epoch, true
}

// sendPeerLiveness catches a freshly reassigned worker up on peers that
// died before its new assignment: the fresh assignment carries epochs and
// addresses but not liveness, and without these frames the worker would
// redial a dead peer's address forever.
func (c *Coordinator) sendPeerLiveness(i int) {
	for k, w := range c.workers {
		if k == i || w.state != linkDead {
			continue
		}
		f := getFrame()
		f.Kind, f.From = framePeerDown, int32(k)
		c.sendTo(i, f)
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
			i, c.perWorker[i], cause, w.delivered, w.rep.Processed, w.received, w.rep.Emitted)
	}
}

// quiescent reports whether no work remains anywhere. Dead workers are
// excluded: their outstanding counters can never settle. A worker whose
// link is down blocks quiescence — its resume, or the failure notification that
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
		case linkDead:
			continue
		case linkDown:
			return false
		}
		if w.delivered != w.rep.Processed || w.received != w.rep.Emitted {
			return false
		}
	}
	for i, wi := range c.workers {
		if wi.state != linkLive {
			continue
		}
		for j, wj := range c.workers {
			if j == i || wj.state != linkLive {
				continue
			}
			if peerCount(wi.rep.PeerEmitted, j) != peerCount(wj.rep.PeerProcessed, i) {
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

// Drain implements runtime.Engine: process local deliveries and worker
// traffic until global quiescence, pinging workers along the way.
//
// The drain timeout is inactivity-based: the deadline resets on every
// applied frame and every batch of local deliveries, so a long healthy
// run with continuous traffic never times out mid-join — only a drain
// where nothing has made progress for the whole timeout does.
//
// A restored coordinator passes the Drains its log completed without
// running them, and refuses the interrupted phase's Drain when the run
// injected fewer root messages than the log holds for that phase.
func (c *Coordinator) Drain() error {
	if c.skipDrains > 0 {
		c.skipDrains--
		return nil
	}
	if c.rootInjects > 0 {
		return fmt.Errorf("tcpnet: resume: the log holds %d more root injection(s) of phase %d than the resumed run made",
			c.rootInjects, c.drains)
	}
	c.draining = true
	defer func() { c.draining = false }()
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
		case linkLive:
			w.lastHeard = now
		case linkDown:
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
				ev, _ := c.poll()
				c.apply(ev)
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
		case ev := <-c.inbox:
			c.apply(ev)
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

// pingWorkers sends one ping to every live worker and fails any worker
// silent past the heartbeat timeout. The worker's link reader answers the
// ping, not its actor loop, so silence means a dead process or a socket
// nobody reads — not a long Receive. Pings are best-effort: a full outbox
// already proves traffic is in flight, so the ping is skipped rather than
// queued behind it.
func (c *Coordinator) pingWorkers() {
	now := time.Now()
	for i, w := range c.workers {
		if w.state != linkLive {
			continue
		}
		if c.hbTimeout > 0 && now.Sub(w.lastHeard) > c.hbTimeout {
			c.failWorker(i, fmt.Errorf("no heartbeat for %v (timeout %v)",
				now.Sub(w.lastHeard).Round(time.Millisecond), c.hbTimeout))
			continue
		}
		w.offer(framePing)
	}
}

// sessionTick is the coordinator's session maintenance: idle acks on live
// links, and expired resume deadlines falling through to the next
// recovery rung.
func (c *Coordinator) sessionTick() {
	now := time.Now()
	for i, w := range c.workers {
		switch w.state {
		case linkLive:
			w.idleAck()
		case linkDown:
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
		c.drainTimeout, len(c.queue), c.stats.DroppedMessages)
	for i, w := range c.workers {
		fmt.Fprintf(&b, "; worker %d (%s) delivered %d processed %d received %d emitted %d",
			i, w.state, w.delivered, w.rep.Processed, w.received, w.rep.Emitted)
	}
	return errors.New(b.String())
}

// absorb applies every deferred and already-queued frame without blocking.
// Connection errors are not swallowed: apply records them via failWorker,
// which either recovers the worker or sets the fatal error Drain returns.
func (c *Coordinator) absorb() {
	for {
		ev, ok := c.poll()
		if !ok {
			return
		}
		c.apply(ev)
	}
}

// apply applies one inbox event: a worker's redial hello, or a frame or
// read error from a worker link.
func (c *Coordinator) apply(ev linkEvent) {
	if ev.hs != nil {
		c.applyResume(ev)
		return
	}
	i := int(ev.src)
	w := c.workers[i]
	f, err := w.receive(ev)
	if err != nil {
		c.failWorker(i, err)
		return
	}
	if f == nil {
		return
	}
	w.lastHeard = time.Now()
	if f.Kind != framePong {
		// A pong proves the worker's link reader alive, not its actors:
		// only real traffic resets the drain's inactivity clock, so a
		// wedged actor loop still times the drain out.
		c.lastProgress = w.lastHeard
	}
	switch f.Kind {
	case frameMsg:
		w.received++
		if dst, remote := c.assignment[rt.NodeID(f.To)]; remote {
			if c.fatal == nil {
				c.fatal = fmt.Errorf("%w: worker %d sent %T from node %d to node %d, which worker %d hosts",
					ErrMisrouted, i, f.Msg, f.From, f.To, dst)
			}
			break
		}
		c.route(rt.NodeID(f.From), rt.NodeID(f.To), f.Msg, f.Seq)
	case frameReport:
		w.rep = f.Rep
		if c.ckpt != nil {
			// Every accepted reliable frame must land in the log once —
			// frameMsg does when Drain dequeues its delivery — so a
			// restored coordinator's receive position matches what it
			// acked pre-crash.
			c.logRecord(&wire.CkptRecord{Kind: wire.CkptMark, Worker: int32(i),
				Seq: f.Seq, Ack: f.Ack, Processed: w.rep.Processed, Emitted: w.rep.Emitted})
			if !c.killed {
				w.sess.logged(f.Seq)
			}
		}
	case framePong, frameAck:
		// The lastHeard update and the piggybacked ack are the whole point.
	}
	reliable := f.Seq > 0
	putFrame(f)
	if reliable {
		w.payAckDebt()
	}
}

// NowSeconds implements runtime.Engine with wall-clock time.
func (c *Coordinator) NowSeconds() float64 { return time.Since(c.start).Seconds() }

// TransportStats implements the optional engine stats hook the report
// layer consumes (see core.Execute): the coordinator's own counters with
// the latest worker reports folded in.
func (c *Coordinator) TransportStats() rt.TransportStats {
	ts := c.stats
	for _, w := range c.workers {
		ts.FramesSent += w.sess.framesSent() + w.rep.WFrames
		ts.DuplicateFrames += w.sess.dupes() + w.rep.WDups
		ts.RetransmittedFrames += w.rep.WRetrans
		ts.ChecksumFailures += w.checksumFails + w.rep.WChecksum
		ts.DroppedMessages += w.rep.WDropped
		// WResumes is peer-link resumes only (counted once per pair, by the
		// dialer end); coordinator-link resumes are already in c.stats.
		ts.Resumes += w.rep.WResumes
	}
	return ts
}

// Close closes the listener, then shuts every live worker down with a
// frameShutdown behind everything already queued, waits for each writer
// goroutine to flush, and closes the connections. A worker that misses
// the shutdown frame reads a bare EOF and works through its redial
// schedule against the closed listener before it, too, exits cleanly. (A
// coordinator downed by its crash point has nothing left to close: kill
// already severed every connection with no shutdown frame, and marked the
// workers dead.) Every reader and resume handshake is released too, so no
// goroutine outlives Close.
func (c *Coordinator) Close() {
	if c.closed {
		return
	}
	c.closed = true
	_ = c.l.Close()
	c.shut()
	for _, w := range c.workers {
		w.shutdown(frameShutdown)
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
