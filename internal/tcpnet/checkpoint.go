package tcpnet

// Coordinator crash recovery (DESIGN.md §12). With WithCheckpoint the
// coordinator writes every control-plane transition to a write-ahead log
// before acting on it: injections, deliveries to coordinator-local actors,
// worker counter reports, phase barriers, epoch bumps, and deaths, each
// kind from one writer. A coordinator killed mid-run (SIGKILL — no flush,
// no goodbyes) is restored by replaying the log through freshly
// constructed local actors and the live coordinator's own transitions,
// with every worker link down: the deliveries rebuild the scheduler and
// source state, and — because actor processing is a pure function of the
// delivery sequence — the sends that processing regenerates, and the
// injections and control broadcasts the log records, are sequenced into
// fresh per-worker retransmit buffers, frame for frame and sequence number
// for sequence number, as if the crash had merely disconnected every
// worker at once. Nothing is put on a wire during
// replay; the re-attach handshake then trims each buffer to what its
// worker actually saw and retransmits only the tail the crash cut off in
// flight.
//
// Workers survive the crash parked in their redial loop and re-attach
// through their one resume handshake (frameCoordResume), which carries
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
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net"
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
// control plane onto w (typically an append-mode file).
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
// their redial loops until a restored coordinator rebinds the listener.
func (c *Coordinator) kill() {
	c.crashArmed = false
	c.killed = true
	if c.fatal == nil {
		c.fatal = ErrCoordKilled
	}
	_ = c.l.Close()
	c.shut()
	for _, w := range c.workers {
		w.retire()
		// Dead, not down: sendTo checks state, so no caller up the stack
		// sequences anything more into these sessions after we unwind.
		//lint:allow walorder crash simulation tears the control plane down without logging; recovery replays the snapshot+log, never this in-memory state
		w.state = linkDead
	}
}

// headerRecord builds the log's header (or restart marker) record from
// the coordinator's frozen topology.
func (c *Coordinator) headerRecord() *wire.CkptRecord {
	rec := &wire.CkptRecord{
		Kind:        wire.CkptHeader,
		Version:     wire.CkptVersion,
		SessionBase: c.sessionBase,
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
// ends compute it independently during the resume handshake; a
// mismatch means the replayed log and the worker disagree about who the
// worker even is, and the re-attach falls through to rung 2.
func assignDigest(session uint64, epoch uint32, ids []int32) uint64 {
	b := binary.LittleEndian.AppendUint64(nil, session)
	b = binary.LittleEndian.AppendUint32(b, epoch)
	for _, id := range ids {
		b = binary.LittleEndian.AppendUint32(b, uint32(id))
	}
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

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

// seqCover accumulates which sequence numbers of one worker's inbound
// stream the log covers. Records are not logged in sequence order: a
// report's mark lands at receive time, but a message bound for
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

// RestoreCoordinator rebuilds a coordinator from a parsed checkpoint log.
// actors are the freshly constructed coordinator-local actors (typically
// core.PrepareResume output; ids assigned to workers are ignored), built
// from the same config blob the log carries — replaying the logged
// deliveries through them reconstructs the control plane bit-for-bit.
//
// The returned coordinator has no worker connections: every worker that
// was live at the crash is parked with its link down and its session
// positions restored from the log, waiting for the worker's redial on l,
// the listener rebound on the address the workers dial. Workers that pass
// the re-attach cross-checks continue their sessions in place (rung 1);
// workers that do not — and workers whose resume window lapses — take
// the reassignment or death rungs exactly as on a live coordinator. As
// with NewCoordinator, the coordinator owns l, and an error return has
// closed it.
//
// A local actor's sends to another local actor, and injections for one,
// that the crash cut off before their delivery was logged stay on the
// restored coordinator's queue for the resumed run's first Drain, which
// logs each one when it dequeues it, as it logs every local delivery.
//
// The restored coordinator skips what its log absorbed, so the resumed run
// drives the whole phase schedule against it: it passes the Drains the log
// completed without running them and discards every injection until then,
// and then discards the interrupted phase's first root injections, as many
// as the log holds. If that phase makes fewer, its Drain fails.
//
// Pass WithCheckpoint with an append handle to the same log to keep it
// growing across the restart; a second crash then replays the whole
// history again.
func RestoreCoordinator(snap *Snapshot, actors map[rt.NodeID]rt.Actor, l net.Listener, opts ...Option) (_ *Coordinator, err error) {
	defer closeOnError(l, &err)
	if len(snap.Records) == 0 || snap.Records[0].Kind != wire.CkptHeader {
		return nil, errors.New("tcpnet: snapshot has no header record")
	}
	h := snap.Records[0]
	if h.Version != wire.CkptVersion {
		return nil, fmt.Errorf("tcpnet: checkpoint version %d, this coordinator speaks %d", h.Version, wire.CkptVersion)
	}
	c := newCoordinator(l, opts)
	c.cfgBlob, c.sessionBase, c.peerAddrs = h.CfgBlob, h.SessionBase, h.PeerAddrs
	nW := 0
	for i, id := range h.AssignIDs {
		w := int(h.AssignWorkers[i])
		c.assignment[rt.NodeID(id)] = w
		nW = max(nW, w+1)
	}
	nW = max(nW, len(h.PeerAddrs))
	if nW == 0 {
		return nil, errors.New("tcpnet: checkpoint header assigns no workers")
	}
	// Every worker starts down, gated like the coordinator that wrote the
	// log; restore() below seeds each gate with the replayed coverage.
	if err := c.addWorkers(nW); err != nil {
		return nil, err
	}
	for id, a := range actors {
		if _, remote := c.assignment[id]; remote {
			continue
		}
		c.local[id] = a
	}

	// Replay runs every record through the transition the live coordinator
	// ran for it, with the log set aside so nothing is logged twice:
	// injections go through route, epochs through resetEpoch and deaths
	// through tombstone, and deliveries through the local actors on a plain
	// coordEnv. Every link is down, so whatever those transitions send to a
	// worker is sequenced into its retransmit buffer — the frames and
	// sequence numbers it held before the crash — and nothing reaches a
	// wire. A message for a local actor from an injection or another local
	// actor lands on c.queue, where the log's record of its delivery
	// consumes it from the head. The root injections since the last phase
	// barrier are the interrupted phase's, which the resumed run must not
	// make again.
	ckpt := c.ckpt
	c.ckpt = nil
	env := &coordEnv{c: c}
	cover := make([]seqCover, nW)
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
		case wire.CkptInject:
			if rec.Root {
				c.rootInjects++
			}
			// An unknown destination sets c.fatal, which fails the restore.
			c.route(rt.NoNode, rt.NodeID(rec.To), rec.Msg, 0)
		case wire.CkptDelivery:
			from, to := rt.NodeID(rec.From), rt.NodeID(rec.To)
			a, ok := c.local[to]
			if !ok {
				return nil, fmt.Errorf("tcpnet: checkpoint delivers %T to node %d, which is not coordinator-local", rec.Msg, to)
			}
			if src, remote := c.assignment[from]; remote {
				cover[src].add(rec.Seq)
				c.workers[src].received++
			} else {
				// An injection or a local actor's send: replay routed it
				// onto the queue when it met the injection's record or the
				// sender's own delivery, and this record is its dequeue.
				if len(c.queue) == 0 || c.queue[0].from != from || c.queue[0].to != to {
					return nil, fmt.Errorf("tcpnet: checkpoint replay diverged: "+
						"log has %T %d→%d but replay did not regenerate it", rec.Msg, from, to)
				}
				c.queue[0] = localDelivery{}
				c.queue = c.queue[1:]
			}
			env.self = to
			a.Receive(env, from, rec.Msg)
		case wire.CkptMark:
			w := int(rec.Worker)
			if w < 0 || w >= nW {
				return nil, fmt.Errorf("tcpnet: checkpoint mark for nonexistent worker %d", w)
			}
			cover[w].add(rec.Seq)
			c.workers[w].rep.Processed = rec.Processed
			c.workers[w].rep.Emitted = rec.Emitted
		case wire.CkptPhase:
			c.drains = int(rec.Phase) + 1
			c.rootInjects = 0
		case wire.CkptEpoch:
			w := int(rec.Worker)
			if w < 0 || w >= nW {
				return nil, fmt.Errorf("tcpnet: checkpoint epoch for nonexistent worker %d", w)
			}
			if epoch, _ := c.resetEpoch(w, rec.PeerEpoch); epoch != rec.SessEpoch {
				return nil, fmt.Errorf("tcpnet: checkpoint replay diverged: worker %d at epoch %d, log says %d",
					w, epoch, rec.SessEpoch)
			}
			cover[w] = seqCover{}
			c.sendPeerLiveness(w)
		case wire.CkptDeath:
			w := int(rec.Worker)
			if w < 0 || w >= nW {
				return nil, fmt.Errorf("tcpnet: checkpoint death for nonexistent worker %d", w)
			}
			c.tombstone(w)
		default:
			return nil, fmt.Errorf("tcpnet: checkpoint replay: %w (kind %d)", wire.ErrUnknownKind, rec.Kind)
		}
		c.stats.CheckpointReplays++
	}
	c.ckpt = ckpt
	c.skipDrains = c.drains

	restartCause := fmt.Errorf("coordinator restarted from checkpoint: %w", ErrCoordKilled)
	deadline := time.Now().Add(c.resumeWindow)
	for i, w := range c.workers {
		if w.state == linkDead {
			continue
		}
		w.sess.restore(cover[i].floor, cover[i].applied())
		w.restored = true
		w.resumeDeadline = deadline
		w.failCause = restartCause
	}
	c.stats.CoordRestarts = int64(1 + headers)

	// Mark the restart in the continued log (if any), then open for
	// re-attachments.
	c.logRecord(c.headerRecord())
	if c.fatal != nil {
		return nil, c.fatal
	}
	go c.acceptLoop()
	return c, nil
}
