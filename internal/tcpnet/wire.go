package tcpnet

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sync"

	wire "ehjoin/internal/wire"
)

// Wire format. Every frame is one wire envelope (internal/wire) whose
// payload opens with the session envelope:
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
	case frameCoordResume:
		wire.U64(c, &f.Session)
		wire.U32(c, &f.Epoch)
		wire.U64(c, &f.LastSeq)
		wire.U64(c, &f.AckedSeq)
		wire.U64(c, &f.Digest)
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
	return appendFrameOn(new(wire.Codec), dst, f, seq, ack)
}

// appendFrameOn is appendFrame encoding on c, which the caller owns: a
// session encodes every frame it sends on its own Codec.
func appendFrameOn(c *wire.Codec, dst []byte, f *frame, seq, ack uint64) ([]byte, error) {
	start := len(dst)
	dst = binary.LittleEndian.AppendUint64(wire.OpenEnvelope(dst), seq)
	dst = binary.LittleEndian.AppendUint64(dst, ack)
	dst, err := wire.EncodeOn(c, dst, f, frameFields)
	if err != nil {
		return nil, fmt.Errorf("tcpnet: encode frame kind %d: %w", f.Kind, err)
	}
	return wire.SealEnvelope(dst, start)
}

// wireWriter encodes frames through a session onto a buffered connection.
// Not safe for concurrent use: each connection direction has exactly one
// owner.
type wireWriter struct {
	bw   *bufio.Writer
	sess *session
	err  error // first transport error, sticky
}

func newSessionWriter(w io.Writer, s *session) *wireWriter {
	return &wireWriter{bw: bufio.NewWriterSize(w, writeBufBytes), sess: s}
}

// WriteFrame encodes one frame through the session, which sequences and
// buffers a reliable one, and buffers it for the connection. Encoding
// failures (unknown kind, codec errors) are returned; transport failures
// are not: after one, reliable frames are still sequenced into the
// session (to be replayed on resume), and the error waits in Err for the
// owner to act on at its next blocking point.
func (w *wireWriter) WriteFrame(f *frame) error {
	data, err := w.sess.encode(f)
	if err == nil {
		_ = w.WriteRaw(data)
	}
	return err
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

// wireReader decodes frames from a buffered connection; Buffered reports
// the received-but-unparsed bytes, which the worker uses to coalesce
// counter reports: while more input is already buffered it keeps
// processing, and reports only when about to block.
type wireReader struct{ *wire.EnvelopeReader }

func newWireReader(r io.Reader) *wireReader {
	return &wireReader{wire.NewEnvelopeReader(r, readBufBytes, minBodyLen)}
}

// ReadFrame blocks for the next frame. The frame comes from framePool;
// hand it back with putFrame once its fields have been consumed.
//
// A clean peer close at a frame boundary returns bare io.EOF. Anything
// else — a stream ending mid-frame, an illegal length prefix, a failed
// CRC — returns an error matching one of the wire package's typed decode
// errors, so callers can tell corruption from shutdown.
func (r *wireReader) ReadFrame() (*frame, error) {
	body, err := r.Next()
	if err != nil {
		return nil, err
	}
	f := getFrame()
	f.Seq = binary.LittleEndian.Uint64(body)
	f.Ack = binary.LittleEndian.Uint64(body[8:])
	if err := wire.Decode(body[16:], f, frameFields); err != nil {
		kind := f.Kind
		putFrame(f)
		return nil, fmt.Errorf("tcpnet: frame kind %d: %w", kind, err)
	}
	return f, nil
}
