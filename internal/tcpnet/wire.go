package tcpnet

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sync"

	wire "ehjoin/internal/wire"
)

// Wire format. Every frame is length-prefixed and carries a session
// envelope:
//
//	[4-byte little-endian body length][body]
//	body = [crc32c(4)][seq(8)][ack(8)][kind(1)][kind-specific fields]
//
// The CRC32C (Castagnoli) covers everything after itself — seq, ack,
// kind, fields — so a flipped bit anywhere in a frame is detected before
// the frame is acted on, and surfaces as wire.ErrChecksum instead of a
// clean close. seq is the per-session sequence number for reliable frames
// (0 for control frames); ack is the sender's cumulative receive position,
// piggybacked on every frame in both directions (see session.go). The kind
// byte and fields are one field-codec function (frameFields, internal/wire)
// shared by the writer and the reader; a frameMsg payload is the message's
// codec id and its registered fields.
//
// Both directions are buffered. The flush discipline is what keeps the
// coordinator's quiescence predicate sound on a buffered transport: a
// writer flushes exactly at its blocking points (the coordinator's writer
// goroutine when its outbox runs dry, the worker before blocking on its
// next read), and buffering preserves per-connection FIFO order, so a
// worker's report still follows every message it emitted before it.

const (
	// maxFrameBytes bounds a single frame body; a corrupt length prefix
	// fails fast instead of attempting a huge allocation.
	maxFrameBytes = 1 << 30
	// writeBufBytes/readBufBytes size the per-connection buffers; large
	// enough to batch many control frames and a data chunk per syscall.
	writeBufBytes = 256 << 10
	readBufBytes  = 256 << 10

	frameHeaderLen = 4
	// envelopeLen is the session envelope inside the body: crc + seq + ack.
	envelopeLen = 4 + 8 + 8
	// minBodyLen is the envelope plus the kind byte.
	minBodyLen = envelopeLen + 1
)

// crcTable is the Castagnoli polynomial, hardware-accelerated on amd64
// and arm64.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// framePool recycles frame structs between the read loops, the drain
// loop, and the writer goroutines.
var framePool = sync.Pool{New: func() any { return new(frame) }}

func getFrame() *frame { return framePool.Get().(*frame) }

// putFrame zeroes and recycles f. References f held to (message, config
// blob) stay valid — only the frame struct itself is reused.
func putFrame(f *frame) {
	*f = frame{}
	framePool.Put(f)
}

// frameFields is the frame body after the session envelope: the kind byte
// and the kind's fields. appendFrame and ReadFrame both run it.
func frameFields(c *wire.Codec, f *frame) {
	wire.U8(c, &f.Kind)
	switch f.Kind {
	case frameAssign:
		wire.U64(c, &f.Session)
		wire.U32(c, &f.Epoch)
		wire.Blob(c, &f.CfgBlob)
		wire.Slice(c, &f.IDs, 4, wire.U32)
		// Data-plane half: worker index, address book, peer epochs, and
		// the full node→worker map.
		wire.U32(c, &f.Worker)
		wire.Slice(c, &f.Peers, 2, wire.Str16)
		wire.Slice(c, &f.Epochs, 4, wire.U32)
		wire.Pairs(c, &f.MapIDs, &f.MapWorkers, 8, wire.U32, wire.U32)
	case frameMsg:
		wire.U32(c, &f.From)
		wire.U32(c, &f.To)
		wire.Message(c, &f.Msg)
	case frameReport:
		wire.U64(c, &f.Processed)
		wire.U64(c, &f.Emitted)
		wire.U64(c, &f.WFrames)
		wire.U64(c, &f.WResumes)
		wire.U64(c, &f.WRetrans)
		wire.U64(c, &f.WChecksum)
		wire.U64(c, &f.WDups)
		wire.U64(c, &f.WDropped)
		n := wire.Len(c, len(f.PeerEmitted), 16)
		wire.Elems(c, &f.PeerEmitted, n, wire.U64)
		wire.Elems(c, &f.PeerProcessed, n, wire.U64)
	case frameResume, frameCoordResume:
		wire.U64(c, &f.Session)
		wire.U32(c, &f.Epoch)
		wire.U64(c, &f.LastSeq)
		if f.Kind == frameCoordResume {
			wire.U64(c, &f.AckedSeq)
			wire.U64(c, &f.Digest)
		}
		wire.Bool(c, &f.CanReplay)
	case frameResumeOK, framePeerHelloOK:
		wire.U64(c, &f.LastSeq)
	case framePeerAddr:
		wire.Str16(c, &f.Addr)
	case framePeerHello:
		wire.U32(c, &f.From)
		wire.U64(c, &f.Session)
		wire.U32(c, &f.Epoch)
		wire.U64(c, &f.LastSeq)
		wire.Bool(c, &f.CanReplay)
	case framePeerEpoch:
		wire.U32(c, &f.From)
		wire.U32(c, &f.Epoch)
	case framePeerDown:
		wire.U32(c, &f.From)
	case framePing, framePong, frameShutdown, frameAck:
		// envelope and kind byte only
	default:
		c.Fail(wire.ErrUnknownKind)
	}
}

// appendFrame appends one complete frame — length prefix, CRC32C,
// sequence number, cumulative ack, kind byte, fields — to dst.
func appendFrame(dst []byte, f *frame, seq, ack uint64) ([]byte, error) {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0) // length and crc, patched below
	dst = binary.LittleEndian.AppendUint64(dst, seq)
	dst = binary.LittleEndian.AppendUint64(dst, ack)
	dst, err := wire.Encode(dst, f, frameFields)
	if err != nil {
		return nil, fmt.Errorf("tcpnet: encode frame kind %d: %w", f.Kind, err)
	}
	body := dst[start+frameHeaderLen:]
	if len(body) > maxFrameBytes {
		return nil, fmt.Errorf("tcpnet: frame of %d bytes exceeds limit", len(body))
	}
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(body)))
	binary.LittleEndian.PutUint32(body, crc32.Checksum(body[4:], crcTable))
	return dst, nil
}

// wireWriter encodes frames onto a buffered connection. Not safe for
// concurrent use: each connection direction has exactly one owner.
//
// A writer with a session attached keeps accepting reliable frames after
// the connection has failed: WriteFrame still sequences and buffers them
// in the session (they will be replayed on resume) and returns nil, with
// the transport error held in Err for the owner to act on at its next
// blocking point. A sessionless writer (handshakes, redials) returns
// transport errors directly.
type wireWriter struct {
	bw      *bufio.Writer
	sess    *session
	scratch []byte // reused encode buffer for the sessionless path
	err     error  // first transport error, sticky
}

func newWireWriter(w io.Writer) *wireWriter {
	return &wireWriter{bw: bufio.NewWriterSize(w, writeBufBytes)}
}

func newSessionWriter(w io.Writer, s *session) *wireWriter {
	return &wireWriter{bw: bufio.NewWriterSize(w, writeBufBytes), sess: s}
}

// WriteFrame encodes and buffers one frame. Encoding failures (unknown
// kind, codec errors) are always returned; transport failures follow the
// session/sessionless contract above.
func (w *wireWriter) WriteFrame(f *frame) error {
	var data []byte
	var err error
	if w.sess != nil {
		data, err = w.sess.encode(f)
	} else {
		w.scratch, err = appendFrame(w.scratch[:0], f, 0, 0)
		data = w.scratch
	}
	if err != nil {
		return err
	}
	if w.err != nil {
		if w.sess != nil {
			return nil
		}
		return w.err
	}
	if _, werr := w.bw.Write(data); werr != nil {
		w.err = werr
		if w.sess != nil {
			return nil
		}
		return werr
	}
	return nil
}

// WriteRaw buffers pre-encoded frame bytes — the retransmission path.
func (w *wireWriter) WriteRaw(data []byte) error {
	if w.err != nil {
		return w.err
	}
	if _, err := w.bw.Write(data); err != nil {
		w.err = err
	}
	return w.err
}

// Flush pushes everything buffered onto the connection.
func (w *wireWriter) Flush() error {
	if w.err != nil {
		return w.err
	}
	if err := w.bw.Flush(); err != nil {
		w.err = err
	}
	return w.err
}

// Err returns the first transport error this writer hit, if any.
func (w *wireWriter) Err() error { return w.err }

// wireReader decodes frames from a buffered connection.
type wireReader struct {
	br  *bufio.Reader
	buf []byte // reused body buffer; decoded frames must not alias it
}

func newWireReader(r io.Reader) *wireReader {
	return &wireReader{br: bufio.NewReaderSize(r, readBufBytes)}
}

// Buffered reports how many received-but-unparsed bytes are waiting. The
// worker uses it to coalesce counter reports: while more input is already
// buffered it keeps processing, and reports only when about to block.
func (r *wireReader) Buffered() int { return r.br.Buffered() }

// ReadFrame blocks for the next frame. The frame comes from framePool;
// hand it back with putFrame once its fields have been consumed.
//
// A clean peer close at a frame boundary returns bare io.EOF. Anything
// else — a stream ending mid-frame, an illegal length prefix, a failed
// CRC — returns an error matching one of the wire package's typed decode
// errors, so callers can tell corruption from shutdown.
func (r *wireReader) ReadFrame() (*frame, error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r.br, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("tcpnet: stream ended mid-header (%v): %w", err, wire.ErrTruncated)
	}
	n := int(binary.LittleEndian.Uint32(hdr[:]))
	if n < minBodyLen || n > maxFrameBytes {
		return nil, fmt.Errorf("tcpnet: frame length %d outside [%d, %d]: %w",
			n, minBodyLen, maxFrameBytes, wire.ErrBadLength)
	}
	if cap(r.buf) < n {
		r.buf = make([]byte, n)
	}
	body := r.buf[:n]
	if _, err := io.ReadFull(r.br, body); err != nil {
		return nil, fmt.Errorf("tcpnet: frame body truncated (%v): %w", err, wire.ErrTruncated)
	}
	if want, got := binary.LittleEndian.Uint32(body), crc32.Checksum(body[4:], crcTable); got != want {
		return nil, fmt.Errorf("tcpnet: frame crc %#x, header says %#x: %w", got, want, wire.ErrChecksum)
	}
	f := getFrame()
	f.Seq = binary.LittleEndian.Uint64(body[4:])
	f.Ack = binary.LittleEndian.Uint64(body[12:])
	if err := wire.Decode(body[envelopeLen:], f, frameFields); err != nil {
		kind := f.Kind
		putFrame(f)
		return nil, fmt.Errorf("tcpnet: frame kind %d: %w", kind, err)
	}
	return f, nil
}
