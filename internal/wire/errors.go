package wire

import "errors"

// Typed decode errors. The frame layer (internal/tcpnet) and the message
// codecs below it wrap these sentinels so transports can distinguish a
// corrupted or torn stream from a clean peer close: a clean close still
// surfaces as a bare io.EOF at a frame boundary, while anything that stops
// mid-frame or fails verification matches one of the errors here via
// errors.Is. The distinction is what lets the session layer treat
// corruption as a recoverable transport fault (reconnect and resume)
// instead of a normal end of stream.
var (
	// ErrTruncated marks a frame that ended before its declared length:
	// a torn write, a connection dropped mid-frame, or a short payload
	// inside an otherwise intact frame.
	ErrTruncated = errors.New("truncated frame")
	// ErrBadLength marks a length prefix outside the protocol's legal
	// range — almost always stream corruption or desynchronisation.
	ErrBadLength = errors.New("bad frame length prefix")
	// ErrChecksum marks a frame whose body failed CRC32C verification.
	ErrChecksum = errors.New("frame checksum mismatch")
	// ErrUnknownKind marks a frame kind or codec id outside the registered
	// set: a version-skewed peer or corruption that survived the checksum.
	// Every encode/decode switch default wraps this sentinel (pinned by
	// TestUnknownKindTyped, TestUnknownCodecTyped and the every-kind tests)
	// so transports can errors.Is it apart from a clean close.
	ErrUnknownKind = errors.New("unknown frame kind")
)
