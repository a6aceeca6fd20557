// Checkpoint codec: the coordinator's write-ahead log of control-plane
// events (DESIGN.md §12). A checkpoint is a flat sequence of records:
//
//	[4-byte little-endian record length][crc32c(4)][kind(1)][payload]
//
// The CRC32C (Castagnoli) covers the kind byte and the payload, so a
// flipped bit in a stored log surfaces as ErrChecksum instead of a
// garbage replay. Message payloads reuse this package's message codec
// (AppendMessage/DecodeMessage), so every protocol message that can cross
// the TCP wire can also land in the log.
//
// The log is append-only and crash-truncated: a coordinator killed
// mid-write leaves a torn final record. ReadCheckpoint therefore treats
// any decode failure as the end of the usable prefix and reports how many
// bytes it dropped — replay works from the intact prefix, and the resume
// digest cross-check (tcpnet) catches any divergence the truncation
// caused, escalating to the exact rung-2 recovery path.
package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	rt "ehjoin/internal/runtime"
)

// CkptVersion is the checkpoint format version written into every header
// record. A coordinator refuses to replay a log from a different version.
// Version 2 added Seq — the originating worker frame's session sequence
// number — to delivery, relay, and mark records, so replay can restore
// each session's receive position to the contiguous prefix the log
// actually covers instead of assuming record count equals sequence floor.
const CkptVersion = 2

// CkptKind enumerates checkpoint record kinds.
type CkptKind uint8

const (
	// CkptHeader opens a log: format version, config blob, session base,
	// topology, and the node→worker assignment.
	CkptHeader CkptKind = iota + 1
	// CkptDelivery is a message enqueued for a coordinator-local actor
	// (scheduler or source), in delivery order — the replay stream that
	// reconstructs the control plane.
	CkptDelivery
	// CkptRelay is a message the coordinator routed to a remote worker on
	// behalf of a remote (or injected) sender. Replay does not re-send it;
	// the record keeps the outbound frame count per worker exact.
	CkptRelay
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
	P2P           bool // always set by the writer; 0 marks a star-topology log replay refuses
	CfgBlob       []byte
	PeerAddrs     []string
	AssignIDs     []int32
	AssignWorkers []int32

	// CkptDelivery / CkptRelay.
	From, To int32
	Msg      rt.Message

	// CkptMark / CkptEpoch / CkptDeath / CkptRelay: the subject worker.
	Worker int32

	// CkptDelivery / CkptRelay / CkptMark: the session sequence number of
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

const (
	ckptHeaderLen = 4
	// ckptMinBody is crc + kind.
	ckptMinBody = 4 + 1
	// maxCkptBytes bounds one record body, so a corrupt length prefix in a
	// damaged log fails fast instead of attempting a huge allocation.
	maxCkptBytes = 1 << 30
)

var ckptCRC = crc32.MakeTable(crc32.Castagnoli)

// AppendCheckpointRecord appends rec's complete encoding to dst.
func AppendCheckpointRecord(dst []byte, rec *CkptRecord) ([]byte, error) {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0) // length, patched below
	dst = append(dst, 0, 0, 0, 0) // crc, patched below
	dst = append(dst, byte(rec.Kind))
	var err error
	switch rec.Kind {
	case CkptHeader:
		dst = binary.LittleEndian.AppendUint32(dst, rec.Version)
		dst = binary.LittleEndian.AppendUint64(dst, rec.SessionBase)
		var p2p byte
		if rec.P2P {
			p2p = 1
		}
		dst = append(dst, p2p)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(rec.CfgBlob)))
		dst = append(dst, rec.CfgBlob...)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(rec.PeerAddrs)))
		for _, a := range rec.PeerAddrs {
			dst = binary.LittleEndian.AppendUint16(dst, uint16(len(a)))
			dst = append(dst, a...)
		}
		if len(rec.AssignIDs) != len(rec.AssignWorkers) {
			return nil, fmt.Errorf("wire: checkpoint header with %d ids but %d workers",
				len(rec.AssignIDs), len(rec.AssignWorkers))
		}
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(rec.AssignIDs)))
		for i, id := range rec.AssignIDs {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(id))
			dst = binary.LittleEndian.AppendUint32(dst, uint32(rec.AssignWorkers[i]))
		}
	case CkptDelivery, CkptRelay:
		dst = binary.LittleEndian.AppendUint32(dst, uint32(rec.From))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(rec.To))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(rec.Worker))
		dst = binary.LittleEndian.AppendUint64(dst, rec.Seq)
		if dst, err = AppendMessage(dst, rec.Msg); err != nil {
			return nil, err
		}
	case CkptMark:
		dst = binary.LittleEndian.AppendUint32(dst, uint32(rec.Worker))
		dst = binary.LittleEndian.AppendUint64(dst, rec.Seq)
		dst = binary.LittleEndian.AppendUint64(dst, rec.Ack)
		dst = binary.LittleEndian.AppendUint64(dst, uint64(rec.Processed))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(rec.Emitted))
	case CkptPhase:
		dst = binary.LittleEndian.AppendUint32(dst, uint32(rec.Phase))
	case CkptEpoch:
		dst = binary.LittleEndian.AppendUint32(dst, uint32(rec.Worker))
		dst = binary.LittleEndian.AppendUint32(dst, rec.SessEpoch)
		dst = binary.LittleEndian.AppendUint32(dst, rec.PeerEpoch)
	case CkptDeath:
		dst = binary.LittleEndian.AppendUint32(dst, uint32(rec.Worker))
	default:
		return nil, fmt.Errorf("wire: encode unknown checkpoint kind %d: %w", rec.Kind, ErrUnknownKind)
	}
	body := dst[start+ckptHeaderLen:]
	if len(body) > maxCkptBytes {
		return nil, fmt.Errorf("wire: checkpoint record of %d bytes exceeds limit", len(body))
	}
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(body)))
	binary.LittleEndian.PutUint32(body, crc32.Checksum(body[4:], ckptCRC))
	return dst, nil
}

// CheckpointReader decodes records from a stored checkpoint stream.
type CheckpointReader struct {
	br  *bufio.Reader
	buf []byte
}

// NewCheckpointReader wraps r for record-at-a-time decoding.
func NewCheckpointReader(r io.Reader) *CheckpointReader {
	return &CheckpointReader{br: bufio.NewReaderSize(r, 1<<16)}
}

// Next decodes the next record. A clean end of stream at a record boundary
// returns io.EOF; a stream ending mid-record, an illegal length, a failed
// CRC, or an unknown kind return an error wrapping the matching typed
// decode error, so callers can tell a torn tail from a clean end.
func (cr *CheckpointReader) Next() (*CkptRecord, error) {
	var hdr [ckptHeaderLen]byte
	if _, err := io.ReadFull(cr.br, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("wire: checkpoint ended mid-header (%v): %w", err, ErrTruncated)
	}
	n := int(binary.LittleEndian.Uint32(hdr[:]))
	if n < ckptMinBody || n > maxCkptBytes {
		return nil, fmt.Errorf("wire: checkpoint record length %d outside [%d, %d]: %w",
			n, ckptMinBody, maxCkptBytes, ErrBadLength)
	}
	if cap(cr.buf) < n {
		cr.buf = make([]byte, n)
	}
	body := cr.buf[:n]
	if _, err := io.ReadFull(cr.br, body); err != nil {
		return nil, fmt.Errorf("wire: checkpoint record truncated (%v): %w", err, ErrTruncated)
	}
	if want, got := binary.LittleEndian.Uint32(body), crc32.Checksum(body[4:], ckptCRC); got != want {
		return nil, fmt.Errorf("wire: checkpoint record crc %#x, header says %#x: %w", got, want, ErrChecksum)
	}
	rec := &CkptRecord{Kind: CkptKind(body[4])}
	body = body[ckptMinBody:]
	bad := func() (*CkptRecord, error) {
		return nil, fmt.Errorf("wire: short body for checkpoint kind %d: %w", rec.Kind, ErrTruncated)
	}
	switch rec.Kind {
	case CkptHeader:
		if len(body) < 17 {
			return bad()
		}
		rec.Version = binary.LittleEndian.Uint32(body)
		rec.SessionBase = binary.LittleEndian.Uint64(body[4:])
		rec.P2P = body[12] != 0
		bl := int(binary.LittleEndian.Uint32(body[13:]))
		body = body[17:]
		if bl < 0 || len(body) < bl+4 {
			return bad()
		}
		if bl > 0 {
			rec.CfgBlob = append([]byte(nil), body[:bl]...) // body is reused; copy
		}
		body = body[bl:]
		np := int(binary.LittleEndian.Uint32(body))
		body = body[4:]
		if np < 0 || np > maxCkptBytes/2 {
			return bad()
		}
		if np > 0 {
			rec.PeerAddrs = make([]string, np)
			for i := range rec.PeerAddrs {
				if len(body) < 2 {
					return bad()
				}
				al := int(binary.LittleEndian.Uint16(body))
				body = body[2:]
				if len(body) < al {
					return bad()
				}
				rec.PeerAddrs[i] = string(body[:al])
				body = body[al:]
			}
		}
		if len(body) < 4 {
			return bad()
		}
		na := int(binary.LittleEndian.Uint32(body))
		body = body[4:]
		if na < 0 || len(body) < 8*na {
			return bad()
		}
		if na > 0 {
			rec.AssignIDs = make([]int32, na)
			rec.AssignWorkers = make([]int32, na)
			for i := 0; i < na; i++ {
				rec.AssignIDs[i] = int32(binary.LittleEndian.Uint32(body[8*i:]))
				rec.AssignWorkers[i] = int32(binary.LittleEndian.Uint32(body[8*i+4:]))
			}
		}
	case CkptDelivery, CkptRelay:
		if len(body) < 20 {
			return bad()
		}
		rec.From = int32(binary.LittleEndian.Uint32(body))
		rec.To = int32(binary.LittleEndian.Uint32(body[4:]))
		rec.Worker = int32(binary.LittleEndian.Uint32(body[8:]))
		rec.Seq = binary.LittleEndian.Uint64(body[12:])
		m, err := DecodeMessage(body[20:])
		if err != nil {
			return nil, err
		}
		rec.Msg = m
	case CkptMark:
		if len(body) < 36 {
			return bad()
		}
		rec.Worker = int32(binary.LittleEndian.Uint32(body))
		rec.Seq = binary.LittleEndian.Uint64(body[4:])
		rec.Ack = binary.LittleEndian.Uint64(body[12:])
		rec.Processed = int64(binary.LittleEndian.Uint64(body[20:]))
		rec.Emitted = int64(binary.LittleEndian.Uint64(body[28:]))
	case CkptPhase:
		if len(body) < 4 {
			return bad()
		}
		rec.Phase = int32(binary.LittleEndian.Uint32(body))
	case CkptEpoch:
		if len(body) < 12 {
			return bad()
		}
		rec.Worker = int32(binary.LittleEndian.Uint32(body))
		rec.SessEpoch = binary.LittleEndian.Uint32(body[4:])
		rec.PeerEpoch = binary.LittleEndian.Uint32(body[8:])
	case CkptDeath:
		if len(body) < 4 {
			return bad()
		}
		rec.Worker = int32(binary.LittleEndian.Uint32(body))
	default:
		return nil, fmt.Errorf("wire: unknown checkpoint kind %d: %w", rec.Kind, ErrUnknownKind)
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
