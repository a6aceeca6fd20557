package tcpnet

import (
	"fmt"
	"sync"

	wire "ehjoin/internal/wire"
)

// Session layer: per-worker reliable delivery on top of TCP connections
// that are allowed to fail.
//
// Each coordinator⇄worker pair shares one session, identified by a random
// session id and an epoch. Reliable frames (frameMsg, frameReport — the
// frames whose loss or duplication would corrupt the join or its
// quiescence accounting) carry consecutive sequence numbers starting at 1
// and are kept, fully encoded, in a bounded retransmit buffer until the
// peer's cumulative ack covers them. Every frame in either direction
// piggybacks the sender's cumulative ack; an idle-ack timer covers the
// case where no traffic flows to carry it. On reconnect the two sides
// exchange (session, epoch, lastSeqSeen) and replay exactly the unacked
// suffix — cheap rung 1 of the recovery ladder. If the retransmit window
// overflowed, or the epochs disagree, the session is reset under a new
// epoch and the worker is reassigned from scratch (rung 2: PR 1's purge +
// deterministic re-stream). A worker that never reconnects inside the
// resume window is declared dead (rung 3: scheduler recovery, degrading
// to replica-loss accounting in the probe phase).

const (
	// DefaultRetransmitFrames and DefaultRetransmitBytes bound the
	// per-direction retransmit buffer of unacked frames. Overflow is not
	// an error — the session just stops being resumable and the next
	// disconnect falls back to a full reassignment.
	DefaultRetransmitFrames = 8192
	DefaultRetransmitBytes  = 32 << 20

	// ackDebtThreshold caps how many reliable frames a receiver absorbs
	// before volunteering a bare ack even mid-batch. Piggyback acks cover
	// bidirectional links, and blocking-point acks cover idle ones; a link
	// whose receive direction is busy while its send direction is silent —
	// a p2p stage handoff, a pure build-phase ingest — has neither, and
	// without this bound the sender's retransmit buffer balloons until the
	// session overflows and loses resumability.
	ackDebtThreshold = 256

	// slabMinBytes and slabPoolBytes govern the session's free list of
	// retransmit slabs. A reliable frame at least slabMinBytes long — a
	// chunk — is encoded straight into a recycled slab and the slab returns
	// to the list when the peer acks it; shorter frames (chunk acks,
	// reports, control) get an exact-size copy as before, so a run of them
	// can never pin chunk-sized slabs and bufBytes stays an honest measure
	// of what the retransmit buffer holds. The list parks at most
	// slabPoolBytes of capacity: memory beyond the buffer's own bound is
	// bounded too.
	slabMinBytes  = 2 << 10
	slabPoolBytes = 1 << 20
)

// reliableKind reports whether frames of this kind carry a session
// sequence number, are buffered for retransmission until acked, and are
// deduplicated by the receiver. Control frames (ping, ack, handshake,
// shutdown) are idempotent or connection-scoped and stay unsequenced.
// framePeerEpoch/framePeerDown are reliable: losing one across a
// coordinator-link resume would wedge a peer pair's reset forever.
func reliableKind(k frameKind) bool {
	return k == frameMsg || k == frameReport || k == framePeerEpoch || k == framePeerDown
}

// sentFrame is one retransmit-buffer entry: a reliable frame's complete
// wire encoding (length prefix included), replayable verbatim. data is
// never written again until the frame leaves the buffer.
type sentFrame struct {
	seq  uint64
	data []byte
}

// session is one side's view of a coordinator⇄worker session. It is the
// only transport state shared between the drain/read loops and the writer
// goroutine, hence the mutex; every method is safe for concurrent use.
type session struct {
	mu sync.Mutex

	id    uint64
	epoch uint32

	// Send side.
	nextSeq    uint64 // sequence number for the next reliable frame (first is 1)
	buf        []sentFrame
	bufBytes   int
	maxFrames  int
	maxBytes   int
	overflowed bool   // an unacked frame was evicted; resume is off the table this epoch
	acked      uint64 // highest cumulative ack received from the peer

	// Receive side.
	lastSeqSeen uint64 // highest consecutive sequence accepted
	lastAckSent uint64 // lastSeqSeen as of the last frame we sent

	// replayApplied marks sequences above lastSeqSeen whose effects a
	// checkpoint replay already applied (coordinator crash recovery):
	// reports and relays are logged at receive time, so the log can cover
	// them while an earlier message frame was still queued, unlogged, at
	// the crash. The peer retransmits the whole suffix; frames in this set
	// advance the window and are acknowledged, but are not re-applied.
	replayApplied map[uint64]struct{}

	// gated bounds the advertised cumulative ack to gate.floor — the
	// write-ahead-log coverage of this receive direction — instead of
	// lastSeqSeen (checkpointing coordinators only). An ack releases the
	// peer's retransmit buffer, so acking a frame whose event the log does
	// not yet hold would make a coordinator crash in that window lose the
	// frame beyond recovery: the worker trimmed it, the log never saw it,
	// and the re-attach cross-check would be forced onto rung 2 — which
	// degrades rather than recovers during the probe phase. The gate
	// advances as events are logged (logged()); frames whose records land
	// out of receive order wait in the cover's sparse set.
	gated bool
	gate  seqCover

	// Stats (cumulative across resumes and epochs).
	duplicates int64 // received frames dropped by sequence dedup

	scratch []byte     // encode buffer for unsequenced frames, and for reliable ones while free is empty
	codec   wire.Codec // every frame encodes on it, under mu: no pool on the send path

	// free holds the slabs of acked frames for encode to fill again. Only
	// peerAck stocks it: a frame the peer acknowledged was written to the
	// connection, and every replay of it, before the ack could exist, so
	// nothing reads the slab any more. Frames that leave the buffer any
	// other way (overflow eviction, reset) may still be in a writer's hands
	// and are left to the garbage collector.
	free      [][]byte
	freeBytes int // summed capacity of free
}

func newSession(id uint64, maxFrames, maxBytes int) *session {
	if maxFrames <= 0 {
		maxFrames = DefaultRetransmitFrames
	}
	if maxBytes <= 0 {
		maxBytes = DefaultRetransmitBytes
	}
	return &session{id: id, nextSeq: 1, maxFrames: maxFrames, maxBytes: maxBytes}
}

// encode produces f's complete wire encoding and returns the bytes to put
// on the wire. A reliable frame is assigned the next sequence number and
// the returned slice IS its retransmit-buffer entry: a recycled slab the
// frame was encoded into directly, or — for a short frame, or while the
// free list is empty — an exact-size copy. An unsequenced frame reuses the
// session scratch buffer, valid only until the next encode call. Every
// frame carries the current cumulative ack.
func (s *session) encode(f *frame) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var seq uint64
	if reliableKind(f.Kind) {
		seq = s.nextSeq
	}
	ack := s.lastSeqSeen
	if s.gated {
		ack = s.gate.floor
	}
	var slab []byte
	if n := len(s.free); seq != 0 && n > 0 {
		slab, s.free[n-1] = s.free[n-1], nil
		s.free = s.free[:n-1]
		s.freeBytes -= cap(slab)
	}
	dst := slab
	if dst == nil {
		dst = s.scratch[:0]
	}
	b, err := appendFrameOn(&s.codec, dst, f, seq, ack)
	if err != nil {
		s.recycle(slab)
		return nil, err
	}
	if slab == nil {
		s.scratch = b[:0]
	}
	s.lastAckSent = ack
	if seq == 0 {
		return b, nil
	}
	s.nextSeq++
	data := b
	if slab == nil || len(b) < slabMinBytes {
		// Encoded in scratch, or too short to keep a slab: store a copy.
		data = append([]byte(nil), b...)
		s.recycle(slab)
	}
	s.buf = append(s.buf, sentFrame{seq: seq, data: data})
	s.bufBytes += len(data)
	for (len(s.buf) > s.maxFrames || s.bufBytes > s.maxBytes) && len(s.buf) > 0 {
		// Evicting an unacked frame makes this epoch non-resumable: the
		// next disconnect must fall back to a full reassignment.
		s.overflowed = true
		s.bufBytes -= len(s.buf[0].data)
		s.buf[0] = sentFrame{}
		s.buf = s.buf[1:]
	}
	return data, nil
}

// recycle parks a slab nothing references any more for a later encode, or
// drops it when it is too small to hold a chunk or the list is full.
func (s *session) recycle(slab []byte) {
	if cap(slab) < slabMinBytes || s.freeBytes+cap(slab) > slabPoolBytes {
		return
	}
	s.free = append(s.free, slab[:0])
	s.freeBytes += cap(slab)
}

// peerAck processes a cumulative ack from the peer, trimming the
// retransmit buffer and restocking the slab free list from it.
func (s *session) peerAck(ack uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ack <= s.acked {
		return
	}
	s.acked = ack
	i := 0
	for i < len(s.buf) && s.buf[i].seq <= ack {
		s.bufBytes -= len(s.buf[i].data)
		s.recycle(s.buf[i].data)
		i++
	}
	if i > 0 {
		n := copy(s.buf, s.buf[i:])
		clear(s.buf[n:]) // acked frames must not stay reachable from the vacated tail
		s.buf = s.buf[:n]
	}
}

// acceptSeq decides the fate of a received reliable frame: process it
// (the next expected sequence), silently drop it (a duplicate from a
// retransmission overlap), or fail the connection (a gap — something was
// lost undetected, which the protocol must never paper over).
func (s *session) acceptSeq(seq uint64) (process bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case seq == s.lastSeqSeen+1:
		s.lastSeqSeen = seq
		if _, applied := s.replayApplied[seq]; applied {
			delete(s.replayApplied, seq)
			s.duplicates++
			return false, nil
		}
		return true, nil
	case seq <= s.lastSeqSeen:
		s.duplicates++
		return false, nil
	default:
		return false, fmt.Errorf("tcpnet: sequence gap: frame %d after %d", seq, s.lastSeqSeen)
	}
}

// unackedSince snapshots the wire bytes of every buffered frame above the
// peer's reported lastSeqSeen, in sequence order, for replay on resume.
func (s *session) unackedSince(seq uint64) [][]byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out [][]byte
	for _, sf := range s.buf {
		if sf.seq > seq {
			out = append(out, sf.data)
		}
	}
	return out
}

// needAck reports whether the peer has sent us reliable frames that no
// outgoing frame has acknowledged yet — the trigger for an idle bare ack.
func (s *session) needAck() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ackableLocked() > s.lastAckSent
}

// ackDebt counts received reliable frames no outgoing frame has
// acknowledged yet — every one of them is a frame the sender is still
// holding in its retransmit buffer on our account.
func (s *session) ackDebt() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ackableLocked() - s.lastAckSent
}

// ackableLocked is the cumulative ack this side may advertise right now:
// everything seen, or — gated — everything the write-ahead log covers.
// Callers hold s.mu.
func (s *session) ackableLocked() uint64 {
	if s.gated {
		return s.gate.floor
	}
	return s.lastSeqSeen
}

// ackable is ackableLocked for callers outside the session.
func (s *session) ackable() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ackableLocked()
}

// enableAckGate arms write-ahead ack gating (checkpointing coordinators
// only): from now on outgoing frames advertise the logged floor, and
// logged() is the only thing that advances it.
func (s *session) enableAckGate() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gated = true
}

// logged marks the event carried by received frame seq as durably in the
// write-ahead log, releasing its ack. No-op when gating is off.
func (s *session) logged(seq uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.gated {
		s.gate.add(seq)
	}
}

// resumable reports whether this epoch can still be resumed from the
// retransmit buffer.
func (s *session) resumable() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.overflowed
}

func (s *session) epochNow() uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

// seen returns the cumulative receive position, exchanged in the resume
// handshake.
func (s *session) seen() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastSeqSeen
}

// ackedNow returns the highest cumulative ack received from the peer —
// the floor below which the retransmit buffer holds nothing.
func (s *session) ackedNow() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.acked
}

// restore installs the replayed receive position (coordinator crash
// recovery): seen is the largest contiguous sequence prefix the log
// covers, and applied lists logged-and-replayed sequences above it —
// frames whose records (reports, relays) were written at receive time
// while an earlier message frame still sat queued, unlogged, when the
// crash hit. The send side needs no installing: replay re-encoded every
// regenerated frame through this session, so nextSeq, the retransmit
// buffer, and the epoch already describe the pre-crash stream — with
// acked still 0, because no ack from the worker survived the crash; the
// re-attach handshake supplies the worker's true position and trims the
// buffer then.
func (s *session) restore(seen uint64, applied []uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lastSeqSeen = seen
	s.lastAckSent = seen
	s.replayApplied = nil
	// The restored ack gate is exactly the replayed log coverage: the
	// contiguous floor plus the logged-out-of-order sequences above it.
	s.gate = seqCover{floor: seen}
	for _, seq := range applied {
		if seq > seen {
			if s.replayApplied == nil {
				s.replayApplied = make(map[uint64]struct{}, len(applied))
			}
			s.replayApplied[seq] = struct{}{}
			s.gate.add(seq)
		}
	}
}

// framesSent counts the unique reliable frames sequenced so far this
// epoch (retransmissions excluded).
func (s *session) framesSent() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return int64(s.nextSeq - 1)
}

func (s *session) dupes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.duplicates
}

// bumpEpoch invalidates every outstanding resume attempt against the old
// epoch and returns the new one.
func (s *session) bumpEpoch() uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.epoch++
	return s.epoch
}

// reset clears all sequence and buffer state for a fresh start under the
// current epoch (a rung-2 reassignment). Stats persist: they describe the
// session's whole life, not one epoch.
func (s *session) reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextSeq = 1
	s.buf = nil
	s.bufBytes = 0
	s.overflowed = false
	s.acked = 0
	s.lastSeqSeen = 0
	s.lastAckSent = 0
	s.replayApplied = nil
	s.gate = seqCover{}
}

// adopt installs the identity a frameAssign dictates (worker side) and
// resets sequence state to match the coordinator's fresh epoch.
func (s *session) adopt(id uint64, epoch uint32) {
	s.mu.Lock()
	s.id = id
	s.epoch = epoch
	s.mu.Unlock()
	s.reset()
}
