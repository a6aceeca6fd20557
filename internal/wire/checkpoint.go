// Checkpoint codec: the coordinator's write-ahead log of control-plane
// events (DESIGN.md §12). A checkpoint is a flat sequence of records, one
// envelope each (envelope.go):
//
//	[4-byte little-endian record length][crc32c(4)][kind(1)][payload]
//
// so a flipped bit in a stored log surfaces as ErrChecksum instead of a
// garbage replay. One field-codec function, recordFields, both writes and
// reads a record body; message payloads are coded by Message, so every
// protocol message that can cross the TCP wire can also land in the log.
//
// The log is append-only and crash-truncated: a coordinator killed
// mid-write leaves a torn final record. ReadCheckpoint therefore treats
// any decode failure as the end of the usable prefix and reports how many
// bytes it dropped — replay works from the intact prefix, and the resume
// digest cross-check (tcpnet) catches any divergence the truncation
// caused, escalating to the exact rung-2 recovery path.
package wire

import (
	"fmt"
	"io"

	rt "ehjoin/internal/runtime"
)

// CkptVersion is the checkpoint format version written into every header
// record. A coordinator refuses to replay a log from a different version.
// Version 2 added Seq — the originating worker frame's session sequence
// number — to delivery, relay, and mark records, so replay can restore
// each session's receive position to the contiguous prefix the log
// actually covers instead of assuming record count equals sequence floor.
// Version 3 changed the header's config blob from gob to the field codec
// (core.EncodeConfig); record layouts did not move. Version 4 dropped the
// settings the configuration census fixed (hash mode, base credit window,
// burst size, spill fan-out) from that blob. Version 5 dropped the
// header's topology byte: every log since the relay's removal is
// peer-to-peer. Version 6 replaced the relay record with CkptInject, so
// every injection is logged where it enters and replay counts the
// interrupted phase's root injections instead of inferring them.
const CkptVersion = 6

// CkptKind enumerates checkpoint record kinds.
type CkptKind uint8

const (
	// CkptHeader opens a log: format version, config blob, session base,
	// peer addresses, and the node→worker assignment.
	CkptHeader CkptKind = iota + 1
	// CkptDelivery is a message enqueued for a coordinator-local actor
	// (scheduler or source), in delivery order — the replay stream that
	// reconstructs the control plane.
	CkptDelivery
	// CkptInject is an injected (orchestration) message, logged when it is
	// injected, before it is routed. Root marks a phase-schedule injection
	// made between Drains; a failure handler's, made inside one, is not.
	CkptInject
	// CkptMark is a worker's counter report: its cumulative ack plus the
	// processed/emitted counters the quiescence predicate reads.
	CkptMark
	// CkptPhase marks one completed Drain (phase barrier).
	CkptPhase
	// CkptEpoch records a session-epoch bump (a rung-2 reassignment).
	CkptEpoch
	// CkptDeath records a worker declared dead.
	CkptDeath
)

// CkptRecord is one checkpoint record; the populated fields depend on Kind.
type CkptRecord struct {
	Kind CkptKind

	// CkptHeader.
	Version       uint32
	SessionBase   uint64
	CfgBlob       []byte
	PeerAddrs     []string
	AssignIDs     []int32
	AssignWorkers []int32

	// CkptDelivery / CkptInject (To and Msg only).
	From, To int32
	Msg      rt.Message

	// CkptInject: a phase-schedule injection, not a failure handler's.
	Root bool

	// CkptDelivery / CkptMark / CkptEpoch / CkptDeath: the subject worker
	// (for a delivery, the sender's worker, -1 when it is not on one).
	Worker int32

	// CkptDelivery / CkptMark: the session sequence number of
	// the worker frame that carried this event, 0 when the sender was
	// coordinator-local or an injection. Replay folds these into a
	// per-session coverage set: the receive position restores to the
	// largest contiguous prefix, and logged frames above it are marked so
	// their retransmissions are acknowledged but not re-applied.
	Seq uint64

	// CkptMark.
	Ack                uint64
	Processed, Emitted int64

	// CkptPhase.
	Phase int32

	// CkptEpoch.
	SessEpoch uint32
	PeerEpoch uint32
}

// ckptMinBody is the shortest record envelope: crc + kind.
const ckptMinBody = 4 + 1

// recordFields is the record body after the CRC: the kind byte and the
// kind's fields. AppendCheckpointRecord and Next both run it.
func recordFields(c *Codec, rec *CkptRecord) {
	U8(c, &rec.Kind)
	switch rec.Kind {
	case CkptHeader:
		U32(c, &rec.Version)
		U64(c, &rec.SessionBase)
		Blob(c, &rec.CfgBlob)
		Slice(c, &rec.PeerAddrs, 2, Str16)
		Pairs(c, &rec.AssignIDs, &rec.AssignWorkers, 8, U32, U32)
	case CkptDelivery:
		U32(c, &rec.From)
		U32(c, &rec.To)
		U32(c, &rec.Worker)
		U64(c, &rec.Seq)
		Message(c, &rec.Msg)
	case CkptInject:
		U32(c, &rec.To)
		Bool(c, &rec.Root)
		Message(c, &rec.Msg)
	case CkptMark:
		U32(c, &rec.Worker)
		U64(c, &rec.Seq)
		U64(c, &rec.Ack)
		U64(c, &rec.Processed)
		U64(c, &rec.Emitted)
	case CkptPhase:
		U32(c, &rec.Phase)
	case CkptEpoch:
		U32(c, &rec.Worker)
		U32(c, &rec.SessEpoch)
		U32(c, &rec.PeerEpoch)
	case CkptDeath:
		U32(c, &rec.Worker)
	default:
		c.Fail(ErrUnknownKind)
	}
}

// AppendCheckpointRecord appends rec's complete encoding to dst.
func AppendCheckpointRecord(dst []byte, rec *CkptRecord) ([]byte, error) {
	start := len(dst)
	dst, err := Encode(OpenEnvelope(dst), rec, recordFields)
	if err != nil {
		return nil, fmt.Errorf("wire: encode checkpoint record kind %d: %w", rec.Kind, err)
	}
	return SealEnvelope(dst, start)
}

// CheckpointReader decodes records from a stored checkpoint stream.
type CheckpointReader struct{ env *EnvelopeReader }

// NewCheckpointReader wraps r for record-at-a-time decoding.
func NewCheckpointReader(r io.Reader) *CheckpointReader {
	return &CheckpointReader{NewEnvelopeReader(r, 1<<16, ckptMinBody)}
}

// Next decodes the next record. A clean end of stream at a record boundary
// returns io.EOF; a stream ending mid-record, an illegal length, a failed
// CRC, or an unknown kind return an error wrapping the matching typed
// decode error, so callers can tell a torn tail from a clean end.
func (cr *CheckpointReader) Next() (*CkptRecord, error) {
	body, err := cr.env.Next()
	if err != nil {
		return nil, err
	}
	rec := new(CkptRecord)
	if err := Decode(body, rec, recordFields); err != nil {
		return nil, fmt.Errorf("wire: checkpoint record kind %d: %w", rec.Kind, err)
	}
	return rec, nil
}

// ReadCheckpoint decodes every intact record of a stored checkpoint,
// tolerating a torn tail: the first record that fails to decode ends the
// usable prefix, and torn reports whether anything was dropped. Only an
// empty or headerless stream is an error — there is nothing to replay.
func ReadCheckpoint(r io.Reader) (recs []*CkptRecord, torn bool, err error) {
	cr := NewCheckpointReader(r)
	for {
		rec, rerr := cr.Next()
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			torn = true
			break
		}
		recs = append(recs, rec)
	}
	if len(recs) == 0 || recs[0].Kind != CkptHeader {
		return nil, torn, fmt.Errorf("wire: checkpoint has no intact header record: %w", ErrTruncated)
	}
	return recs, torn, nil
}
