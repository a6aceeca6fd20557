package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// An envelope is the unit the TCP frame stream and the checkpoint log are
// both cut into:
//
//	[4-byte little-endian length][crc32c(4)][payload]
//
// The length counts the CRC and the payload. The CRC32C (Castagnoli)
// covers the payload, so a flipped bit anywhere in it surfaces as
// ErrChecksum instead of a garbage decode.

// MaxEnvelope bounds an envelope's length. A reader refuses a larger claim
// outright, and never allocates ahead of the bytes that actually arrive
// for a smaller one.
const MaxEnvelope = 1 << 30

// envelopeStep is the least room a reader makes for an envelope's body.
const envelopeStep = 64 << 10

// castagnoli is hardware-accelerated on amd64 and arm64.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// OpenEnvelope reserves an envelope's length and CRC at the end of dst.
// Append the payload, then SealEnvelope.
func OpenEnvelope(dst []byte) []byte { return append(dst, 0, 0, 0, 0, 0, 0, 0, 0) }

// SealEnvelope fills in the length and CRC of the envelope OpenEnvelope
// began at dst[start:], whose payload runs to the end of dst.
func SealEnvelope(dst []byte, start int) ([]byte, error) {
	body := dst[start+4:]
	if len(body) > MaxEnvelope {
		return nil, fmt.Errorf("wire: envelope of %d bytes exceeds %d: %w", len(body), MaxEnvelope, ErrBadLength)
	}
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(body)))
	binary.LittleEndian.PutUint32(body, crc32.Checksum(body[4:], castagnoli))
	return dst, nil
}

// EnvelopeReader reads envelopes off a stream.
type EnvelopeReader struct {
	br     *bufio.Reader
	minLen int
	buf    []byte // reused body buffer; callers must not keep what Next returns
}

// NewEnvelopeReader buffers r with size bytes. Envelopes shorter than
// minLen (CRC included) are refused with ErrBadLength.
func NewEnvelopeReader(r io.Reader, size, minLen int) *EnvelopeReader {
	return &EnvelopeReader{br: bufio.NewReaderSize(r, size), minLen: minLen}
}

// Buffered reports how many bytes past the last envelope are already read.
func (er *EnvelopeReader) Buffered() int { return er.br.Buffered() }

// Next reads the next envelope and returns its payload once the CRC
// verifies; the payload is valid until the next call. A clean end of
// stream at an envelope boundary returns bare io.EOF. A stream that ends
// mid-envelope fails with ErrTruncated, a length outside [minLen,
// MaxEnvelope] with ErrBadLength, and a CRC mismatch with ErrChecksum.
//
// The body buffer grows with the bytes that arrive, never ahead of them:
// a peer that sends a 4-byte prefix claiming a gigabyte costs one 64 KiB
// step, and one that sends k bytes of it at most 4k.
func (er *EnvelopeReader) Next() ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(er.br, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("wire: stream ended mid-header (%v): %w", err, ErrTruncated)
	}
	n := int(binary.LittleEndian.Uint32(hdr[:]))
	if n < er.minLen || n > MaxEnvelope {
		return nil, fmt.Errorf("wire: envelope length %d outside [%d, %d]: %w", n, er.minLen, MaxEnvelope, ErrBadLength)
	}
	// Room for the body starts at envelopeStep and grows to four times
	// what has arrived, read or already buffered: an honest body a quarter
	// of which is in is allocated once, at its size.
	body := er.buf[:0]
	for len(body) < n {
		if room := min(n, max(envelopeStep, 4*len(body), 4*er.br.Buffered())); room > cap(body) {
			body = append(make([]byte, 0, room), body...)
		}
		got, err := io.ReadFull(er.br, body[len(body):min(n, cap(body))])
		body = body[:len(body)+got]
		if err != nil {
			er.buf = body[:0]
			return nil, fmt.Errorf("wire: envelope body ends at %d of %d bytes (%v): %w", len(body), n, err, ErrTruncated)
		}
	}
	er.buf = body[:0]
	if want, got := binary.LittleEndian.Uint32(body), crc32.Checksum(body[4:], castagnoli); got != want {
		return nil, fmt.Errorf("wire: envelope crc %#x, header says %#x: %w", got, want, ErrChecksum)
	}
	return body[4:], nil
}
