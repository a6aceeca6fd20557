package tcpnet

// Coordinator crash recovery (DESIGN.md §12). With WithCheckpoint the
// coordinator writes every control-plane transition to a write-ahead log
// before acting on it: deliveries to coordinator-local actors, relays to
// workers whose cause the replay cannot regenerate, worker counter
// reports, phase barriers, epoch bumps, and deaths. A coordinator killed
// mid-run (SIGKILL — no flush, no goodbyes) is restored by replaying the
// log through freshly constructed local actors: the deliveries rebuild
// the scheduler and source state, and — because actor processing is a
// pure function of the delivery sequence — the sends that processing
// regenerates are re-encoded straight into fresh per-worker retransmit
// buffers, frame for frame and sequence number for sequence number, as
// if the crash had merely disconnected every worker at once. Nothing is
// put on a wire during replay; the re-attach handshake then trims each
// buffer to what its worker actually saw and retransmits only the tail
// the crash cut off in flight.
//
// Workers survive the crash parked in their redial loop and re-attach
// through the extended resume handshake (frameCoordResume), which carries
// enough of the worker's session view — receive position, ack floor, and
// a digest of its assigned node set — for the restored coordinator to
// prove the replayed log and the worker's state describe the same run.
// Any discrepancy (a torn log tail, frames that died in flight with the
// crash, an ack that outran the log) fails one of the cross-checks and
// falls through to the existing rung-2 recovery: full reassignment plus
// the scheduler's purge + deterministic re-stream, which is exact. The
// recovery ladder therefore never produces a wrong answer — only a
// cheaper or a dearer path to the same one.

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"time"

	rt "ehjoin/internal/runtime"
	wire "ehjoin/internal/wire"
)

// ErrCoordKilled is the error Drain returns when crash injection
// (WithCrashPoint) kills the coordinator: connections and the resume
// listener are severed abruptly, and only the write-ahead checkpoint
// survives. Callers restore with ReadSnapshot + RestoreCoordinator.
var ErrCoordKilled = errors.New("tcpnet: coordinator killed by crash injection")

// ckptWriter is the coordinator's write-ahead log handle. All writes
// happen on the drain-loop thread; there is no fsync — the threat model
// is process death, not host death, matching the paper's environment of
// transient extra resources.
type ckptWriter struct {
	w         io.Writer
	buf       []byte
	total     int64 // records written over the log's whole life
	phaseRecs int64 // records since the last phase barrier
}

// WithCheckpoint enables write-ahead checkpointing of the coordinator's
// control plane onto w (typically an append-mode file). Requires
// WithResume: recovery is worker-initiated re-attachment.
func WithCheckpoint(w io.Writer) Option {
	return func(c *Coordinator) { c.ckpt = &ckptWriter{w: w} }
}

// WithCrashPoint arms crash injection: the coordinator kills itself
// (ErrCoordKilled, connections severed, nothing flushed) immediately
// after logging record number records of phase — or, with phase < 0,
// after records total log records. Requires WithCheckpoint.
func WithCrashPoint(phase int, records int64) Option {
	return func(c *Coordinator) {
		c.crashArmed = true
		c.crashPhase = phase
		c.crashRecs = records
	}
}

// logRecord appends one record to the write-ahead log, then fires crash
// injection if its trigger was just crossed. Called on the drain-loop
// thread only, always *before* the state transition it records takes
// effect on the wire — the write-ahead invariant replay correctness
// rests on. A log write failure is fatal: continuing would silently
// forfeit recoverability.
func (c *Coordinator) logRecord(rec *wire.CkptRecord) {
	k := c.ckpt
	if k == nil || c.killed {
		return
	}
	b, err := wire.AppendCheckpointRecord(k.buf[:0], rec)
	if err == nil {
		k.buf = b[:0]
		_, err = k.w.Write(b)
	}
	if err != nil {
		if c.fatal == nil {
			c.fatal = fmt.Errorf("tcpnet: checkpoint write: %w", err)
		}
		return
	}
	k.total++
	k.phaseRecs++
	if rec.Kind == wire.CkptPhase {
		k.phaseRecs = 0
	}
	if c.crashArmed {
		if c.crashPhase < 0 {
			if k.total >= c.crashRecs {
				c.kill()
			}
		} else if c.drains == c.crashPhase && k.phaseRecs >= c.crashRecs {
			c.kill()
		}
	}
}

// kill simulates a coordinator crash: every worker connection and the
// resume listener are torn down abruptly — no shutdown frames, no
// session state preserved — and route becomes a no-op, so nothing
// escapes after the trigger record. Drain surfaces ErrCoordKilled at its
// next fatal check. Workers see a bare connection reset and park in
// their redial loops (WithWorkerPark) until a restored coordinator
// rebinds the listener.
func (c *Coordinator) kill() {
	c.crashArmed = false
	c.killed = true
	if c.fatal == nil {
		c.fatal = ErrCoordKilled
	}
	if c.resumeL != nil {
		_ = c.resumeL.Close()
	}
	for _, w := range c.workers {
		st := w.state
		// Dead first: send and sendCtl check state, so no caller up the
		// stack can touch the closed outbox after we unwind.
		//lint:allow walorder crash simulation tears the control plane down without logging; recovery replays the snapshot+log, never this in-memory state
		w.state = stateDead
		if st != stateLive || w.out == nil {
			continue
		}
		_ = w.conn.Close()
		close(w.out)
		<-w.wdone
		w.out = nil
	}
}

// headerRecord builds the log's header (or restart marker) record from
// the coordinator's frozen topology.
func (c *Coordinator) headerRecord() *wire.CkptRecord {
	rec := &wire.CkptRecord{
		Kind:        wire.CkptHeader,
		Version:     wire.CkptVersion,
		SessionBase: c.sessionBase,
		P2P:         true,
		CfgBlob:     c.cfgBlob,
		PeerAddrs:   c.peerAddrs,
	}
	for w, ids := range c.perWorker {
		for _, id := range ids {
			rec.AssignIDs = append(rec.AssignIDs, id)
			rec.AssignWorkers = append(rec.AssignWorkers, int32(w))
		}
	}
	return rec
}

// assignDigest fingerprints one worker's session identity: session id,
// epoch, and its assigned node ids in ascending order (FNV-1a). Both
// ends compute it independently during the extended resume handshake; a
// mismatch means the replayed log and the worker disagree about who the
// worker even is, and the re-attach falls through to rung 2.
func assignDigest(session uint64, epoch uint32, ids []int32) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(b byte) {
		h ^= uint64(b)
		h *= prime64
	}
	for i := 0; i < 8; i++ {
		mix(byte(session >> (8 * i)))
	}
	for i := 0; i < 4; i++ {
		mix(byte(epoch >> (8 * i)))
	}
	for _, id := range ids {
		for i := 0; i < 4; i++ {
			mix(byte(uint32(id) >> (8 * i)))
		}
	}
	return h
}

// DrainsDone reports how many phase barriers (Drain calls) the
// coordinator has completed — on a restored coordinator, recovered from
// the log, so the resumed run knows which phases not to repeat.
func (c *Coordinator) DrainsDone() int { return c.drains }

// RootInjects reports how many injected (orchestration) messages of the
// interrupted phase the log already holds — the resumed run skips that
// prefix of the phase's inject list and re-issues only the rest.
func (c *Coordinator) RootInjects() int { return c.rootInjects }

// Snapshot is a parsed checkpoint log, ready for RestoreCoordinator.
type Snapshot struct {
	// Records is the log's intact prefix; Records[0] is the header.
	Records []*wire.CkptRecord
	// Torn reports that the log ended in a partially written record
	// (the expected shape of a crash mid-write); the torn tail is
	// dropped and the cross-checks at re-attach absorb the difference.
	Torn bool
}

// ReadSnapshot parses a checkpoint log. Errors only when no intact
// header exists — there is nothing to replay.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	recs, torn, err := wire.ReadCheckpoint(r)
	if err != nil {
		return nil, err
	}
	return &Snapshot{Records: recs, Torn: torn}, nil
}

// CfgBlob returns the encoded run configuration frozen into the log's
// header, for rebuilding the coordinator-local actors (core.PrepareResume).
func (s *Snapshot) CfgBlob() []byte { return s.Records[0].CfgBlob }

// replayEnv is the runtime.Env local actors see during log replay. Sends
// to other local actors are parked on a FIFO: each one that was enqueued
// pre-crash was logged at that moment and appears later in the record
// stream as its own delivery, which consumes the FIFO head instead of
// double-delivering. Whatever remains on the FIFO when the log runs out
// are sends the crash cut off before they could be logged — replay is
// the only place they still exist, so RestoreCoordinator re-enqueues
// them for the resumed run. Sends to workers are re-encoded into the
// destination session's retransmit buffer — same frames, same sequence
// numbers as pre-crash — but never put on a wire: whatever the worker
// already received is trimmed away at re-attach, and the rest is the
// retransmit tail.
type replayEnv struct {
	c    *Coordinator
	st   *replayState
	self rt.NodeID
}

func (e *replayEnv) Now() int64 { return time.Since(e.c.start).Nanoseconds() }

func (e *replayEnv) Send(to rt.NodeID, m rt.Message) {
	w, remote := e.c.assignment[to]
	if !remote {
		e.st.pendingLocal = append(e.st.pendingLocal,
			localDelivery{from: e.self, to: to, msg: m})
		return
	}
	e.st.resend(e.c, w, int32(e.self), int32(to), m)
}

func (e *replayEnv) ChargeCPU(ns int64)                {}
func (e *replayEnv) ChargeDisk(bytes int64, read bool) {}

// replayState carries what replay derives beyond the sessions themselves:
// inbound sequence coverage per worker (cover — the receive direction has
// no buffer to rebuild, only a position), liveness, and the local-send
// FIFO.
type replayState struct {
	cover []seqCover
	dead  []bool
	// pendingLocal holds local→local sends regenerated by replay, in
	// generation order — which is exactly the order their CkptDelivery
	// records appear in the log, because deliveries are logged in
	// processing order and replay re-runs each Receive at its record's
	// position. The log's local-origin delivery records consume this FIFO
	// from the head; the unconsumed tail is what the crash cut off.
	pendingLocal []localDelivery
}

// seqCover accumulates which sequence numbers of one worker's inbound
// stream the log covers. Records are not logged in sequence order: a
// report's mark and a relay land at receive time, but a message bound for
// a local actor is only logged when dequeued — so a crash can leave later
// sequences in the log while an earlier message was still queued, lost.
// floor is the largest contiguous prefix (the position the session
// restores to — everything above it the worker must retransmit); above
// holds covered sequences past the first gap, whose retransmissions the
// session will acknowledge but not re-apply (session.restore).
type seqCover struct {
	floor uint64
	above map[uint64]bool
}

func (sc *seqCover) add(seq uint64) {
	if seq == 0 || seq <= sc.floor || sc.above[seq] {
		return
	}
	if seq == sc.floor+1 {
		sc.floor++
		for sc.above[sc.floor+1] {
			delete(sc.above, sc.floor+1)
			sc.floor++
		}
		return
	}
	if sc.above == nil {
		sc.above = make(map[uint64]bool)
	}
	sc.above[seq] = true
}

// applied lists the covered sequences above the floor, for session.restore.
func (sc *seqCover) applied() []uint64 {
	if len(sc.above) == 0 {
		return nil
	}
	out := make([]uint64, 0, len(sc.above))
	for seq := range sc.above {
		out = append(out, seq)
	}
	return out
}

// resend re-sequences one reliable message frame into worker w's
// retransmit buffer, mirroring route's disposition pre-crash: dropped if
// the worker is dead, encoded otherwise. Replay may regenerate a send the
// crash actually suppressed, or one route dropped on a momentarily
// non-resumable session — both are harmless: the frame sits in the buffer
// and is either retransmitted at re-attach (the worker never saw it;
// delivering it now is the recovery) or excluded when a cross-check fails
// and the worker takes rung 2, which is exact. Buffer overflow is not an
// error — the session marks itself non-resumable and the worker falls
// back to rung 2.
func (st *replayState) resend(c *Coordinator, w int, from, to int32, m rt.Message) {
	if st.dead[w] {
		c.dropped++
		return
	}
	wc := c.workers[w]
	f := getFrame()
	f.Kind, f.From, f.To, f.Msg = frameMsg, from, to, m
	_, err := wc.sess.encode(f)
	putFrame(f)
	if err != nil {
		if c.fatal == nil {
			c.fatal = fmt.Errorf("tcpnet: checkpoint replay re-encode: %w", err)
		}
		return
	}
	wc.delivered++
}

// resendCtl re-sequences a reliable control frame into worker w's buffer,
// mirroring sendCtl. Takes ownership of f.
func (st *replayState) resendCtl(c *Coordinator, w int, f *frame) {
	if st.dead[w] {
		putFrame(f)
		return
	}
	_, err := c.workers[w].sess.encode(f)
	putFrame(f)
	if err != nil && c.fatal == nil {
		c.fatal = fmt.Errorf("tcpnet: checkpoint replay re-encode: %w", err)
	}
}

// ErrStarCheckpoint is RestoreCoordinator's error for a log whose header
// says its coordinator relayed worker-to-worker traffic itself (the star
// topology, header P2P byte 0): replaying it would regenerate relays no
// worker expects, so such a log cannot be restored.
var ErrStarCheckpoint = errors.New("tcpnet: checkpoint was written by a star-topology coordinator; only peer-to-peer logs can be restored")

// RestoreCoordinator rebuilds a coordinator from a parsed checkpoint log.
// actors are the freshly constructed coordinator-local actors (typically
// core.PrepareResume output; ids assigned to workers are ignored), built
// from the same config blob the log carries — replaying the logged
// deliveries through them reconstructs the control plane bit-for-bit.
//
// The returned coordinator has no worker connections: every worker that
// was live at the crash is parked in stateReconnecting with its session
// positions restored from the log, waiting for the worker's redial on
// the resume listener (WithResume, mandatory). Workers that pass the
// re-attach cross-checks continue their sessions in place (rung 1);
// workers that do not — and workers whose resume window lapses — take
// the reassignment or death rungs exactly as on a live coordinator.
//
// Pass WithCheckpoint with an append handle to the same log to keep it
// growing across the restart; a second crash then replays the whole
// history again.
func RestoreCoordinator(snap *Snapshot, actors map[rt.NodeID]rt.Actor, opts ...Option) (*Coordinator, error) {
	if len(snap.Records) == 0 || snap.Records[0].Kind != wire.CkptHeader {
		return nil, errors.New("tcpnet: snapshot has no header record")
	}
	h := snap.Records[0]
	if h.Version != wire.CkptVersion {
		return nil, fmt.Errorf("tcpnet: checkpoint version %d, this coordinator speaks %d", h.Version, wire.CkptVersion)
	}
	if !h.P2P {
		return nil, ErrStarCheckpoint
	}
	c := &Coordinator{
		assignment:   make(map[rt.NodeID]int),
		local:        make(map[rt.NodeID]rt.Actor),
		bySession:    make(map[uint64]int),
		inboxCap:     defaultInboxFrames,
		outboxCap:    defaultOutboxFrames,
		start:        time.Now(),
		cfgBlob:      h.CfgBlob,
		sessionBase:  h.SessionBase,
		peerAddrs:    h.PeerAddrs,
		drainTimeout: DrainTimeout,
		hbInterval:   DefaultHeartbeatInterval,
		hbTimeout:    DefaultHeartbeatTimeout,
		resumeWindow: DefaultResumeWindow,
	}
	for _, o := range opts {
		o(c)
	}
	if c.resumeL == nil {
		return nil, errors.New("tcpnet: RestoreCoordinator requires WithResume — recovery is worker-initiated re-attachment")
	}
	c.inbox = make(chan taggedFrame, c.inboxCap)
	nW := 0
	for i, id := range h.AssignIDs {
		w := int(h.AssignWorkers[i])
		c.assignment[rt.NodeID(id)] = w
		if w+1 > nW {
			nW = w + 1
		}
	}
	if len(h.PeerAddrs) > nW {
		nW = len(h.PeerAddrs)
	}
	if nW == 0 {
		return nil, errors.New("tcpnet: checkpoint header assigns no workers")
	}
	c.perWorker = make([][]int32, nW)
	for i, id := range h.AssignIDs {
		w := int(h.AssignWorkers[i])
		c.perWorker[w] = append(c.perWorker[w], id)
	}
	// Header AssignIDs were emitted per worker in ascending order, but
	// sort anyway: replay determinism must not hinge on writer behaviour.
	for _, ids := range c.perWorker {
		sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	}
	c.peerEpochs = make([]uint32, nW)
	for id, a := range actors {
		if _, remote := c.assignment[id]; remote {
			continue
		}
		c.local[id] = a
	}
	now := time.Now()
	for i := 0; i < nW; i++ {
		w := &workerConn{
			conn:      nil,
			lastHeard: now,
			state:     stateReconnecting,
			sess:      newSession(h.SessionBase|uint64(i), c.retransFrames, c.retransBytes),
		}
		if c.ckpt != nil {
			// Same write-ahead ack gating as the coordinator that wrote the
			// log; restore() below seeds the gate with the replayed coverage.
			w.sess.enableAckGate()
		}
		c.bySession[w.sess.id] = i
		c.workers = append(c.workers, w)
	}

	// Replay. Deliveries run through the local actors, whose regenerated
	// sends rebuild the retransmit buffers; relays and control broadcasts
	// re-encode from their records. prefixOpen tracks whether we are still
	// inside the injected-message prefix of the current phase (see
	// RootInjects). A phase's injections are routed into an empty queue
	// before its Drain starts, and deliveries are logged at dequeue, in
	// queue order — so the prefix ends at the first delivery whose sender
	// is a node, and at nothing else: marks, worker relays, epoch bumps and
	// deaths are logged at receive time, between two dequeues, and land
	// among the injections' records whenever a worker speaks early. An
	// injection the count misses is delivered twice by the resumed run.
	st := &replayState{
		cover: make([]seqCover, nW),
		dead:  make([]bool, nW),
	}
	env := &replayEnv{c: c, st: st}
	prefixOpen := true
	headers := 0
	for _, rec := range snap.Records[1:] {
		switch rec.Kind {
		case wire.CkptHeader:
			// A restart marker from a previous recovery; topology is
			// frozen at the first header, so only count it.
			if rec.Version != wire.CkptVersion {
				return nil, fmt.Errorf("tcpnet: checkpoint restart header version %d, want %d", rec.Version, wire.CkptVersion)
			}
			headers++
			continue
		case wire.CkptDelivery, wire.CkptRelay:
			from := rt.NodeID(rec.From)
			if from != rt.NoNode {
				if rec.Kind == wire.CkptDelivery {
					prefixOpen = false
				}
			} else if prefixOpen {
				c.rootInjects++
			}
			src, remote := c.assignment[from]
			if remote {
				st.cover[src].add(rec.Seq)
				c.workers[src].received++
			} else if from != rt.NoNode {
				// A local actor's send, logged pre-crash at enqueue time.
				// Replay regenerated it when the sender's own delivery ran
				// above; this record is that send's reappearance, so
				// consume it from the FIFO instead of delivering twice.
				if len(st.pendingLocal) == 0 || st.pendingLocal[0].from != from ||
					st.pendingLocal[0].to != rt.NodeID(rec.To) {
					return nil, fmt.Errorf("tcpnet: checkpoint replay diverged: "+
						"log has %T %d→%d but replay did not regenerate it", rec.Msg, from, rec.To)
				}
				st.pendingLocal = st.pendingLocal[1:]
			}
			if rec.Kind == wire.CkptRelay {
				if w, remote := c.assignment[rt.NodeID(rec.To)]; remote {
					st.resend(c, w, rec.From, rec.To, rec.Msg)
				}
				c.replayed++
				continue
			}
			to := rt.NodeID(rec.To)
			a, ok := c.local[to]
			if !ok {
				return nil, fmt.Errorf("tcpnet: checkpoint delivers %T to node %d, which is not coordinator-local", rec.Msg, to)
			}
			env.self = to
			a.Receive(env, from, rec.Msg)
		case wire.CkptMark:
			w := int(rec.Worker)
			if w < 0 || w >= nW {
				return nil, fmt.Errorf("tcpnet: checkpoint mark for nonexistent worker %d", w)
			}
			st.cover[w].add(rec.Seq)
			c.workers[w].processed = rec.Processed
			c.workers[w].emitted = rec.Emitted
		case wire.CkptPhase:
			c.drains = int(rec.Phase) + 1
			c.rootInjects = 0
			prefixOpen = true
		case wire.CkptEpoch:
			w := int(rec.Worker)
			if w < 0 || w >= nW {
				return nil, fmt.Errorf("tcpnet: checkpoint epoch for nonexistent worker %d", w)
			}
			wc := c.workers[w]
			if epoch := wc.sess.bumpEpoch(); epoch != rec.SessEpoch {
				return nil, fmt.Errorf("tcpnet: checkpoint replay diverged: worker %d at epoch %d, log says %d",
					w, epoch, rec.SessEpoch)
			}
			wc.sess.reset()
			st.cover[w] = seqCover{}
			wc.delivered, wc.processed, wc.received, wc.emitted = 0, 0, 0, 0
			wc.peerEmitted, wc.peerProcessed = nil, nil
			c.peerEpochs[w] = rec.PeerEpoch
			// The reassignment broadcast framePeerEpoch to every other
			// non-dead worker, then caught the reassigned worker up on
			// already-dead peers (sendPeerLiveness).
			for j := range c.workers {
				if j != w && !st.dead[j] {
					f := getFrame()
					f.Kind, f.From, f.Epoch = framePeerEpoch, int32(w), rec.PeerEpoch
					st.resendCtl(c, j, f)
				}
			}
			for k := range c.workers {
				if k != w && st.dead[k] {
					f := getFrame()
					f.Kind, f.From = framePeerDown, int32(k)
					st.resendCtl(c, w, f)
				}
			}
		case wire.CkptDeath:
			w := int(rec.Worker)
			if w < 0 || w >= nW {
				return nil, fmt.Errorf("tcpnet: checkpoint death for nonexistent worker %d", w)
			}
			st.dead[w] = true
			c.workers[w].state = stateDead
			for j := range c.workers {
				if j != w && !st.dead[j] {
					f := getFrame()
					f.Kind, f.From = framePeerDown, int32(w)
					st.resendCtl(c, j, f)
				}
			}
		default:
			return nil, fmt.Errorf("tcpnet: checkpoint replay: %w (kind %d)", wire.ErrUnknownKind, rec.Kind)
		}
		c.replayed++
	}

	// Sends the crash cut off before they were logged survive only as
	// replay regenerations; route them for real now — they are logged
	// (write-ahead, so a second crash replays them too) and queued for the
	// resumed run's first Drain.
	for _, d := range st.pendingLocal {
		c.route(d.from, d.to, d.msg, 0)
	}

	restartCause := fmt.Errorf("coordinator restarted from checkpoint: %w", ErrCoordKilled)
	for i, w := range c.workers {
		if st.dead[i] {
			continue
		}
		w.sess.restore(st.cover[i].floor, st.cover[i].applied())
		w.restored = true
		w.resumeDeadline = now.Add(c.resumeWindow)
		w.failCause = restartCause
	}
	c.restarts = int64(1 + headers)

	// Mark the restart in the continued log (if any), then open for
	// re-attachments.
	c.logRecord(c.headerRecord())
	if c.fatal != nil {
		return nil, c.fatal
	}
	go c.acceptLoop(c.resumeL)
	return c, nil
}
