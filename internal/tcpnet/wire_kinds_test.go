package tcpnet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"runtime"
	"testing"

	wire "ehjoin/internal/wire"
)

// crcTable is the frame CRC's polynomial, for hand-built frames.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// kindFixtures returns one representative, fully-populated frame per
// declared frame kind. The test below fails if a kind is added to the enum
// without a fixture here, so the error-path table can never silently lag
// the protocol.
func kindFixtures() map[frameKind]*frame {
	return map[frameKind]*frame{
		frameAssign: {Kind: frameAssign, Session: 77, Epoch: 3,
			CfgBlob: []byte{1, 2, 3, 4}, IDs: []int32{5, 6, 7},
			Worker: 1, Peers: []string{"10.0.0.1:9001", "10.0.0.2:9002"},
			Epochs: []uint32{0, 2}, MapIDs: []int32{5, 6, 7}, MapWorkers: []int32{0, 1, 1}},
		frameMsg: {Kind: frameMsg, From: 2, To: 9,
			Msg: &testMsg{Seq: 11, Pad: []byte("kind table payload")}},
		frameReport: {Kind: frameReport, Rep: workerReport{Processed: 100, Emitted: 50,
			WFrames: 9, WResumes: 1, WRetrans: 2, WChecksum: 3, WDups: 4,
			WDropped: 5, PeerEmitted: []int64{0, 12, 7}, PeerProcessed: []int64{0, 3, 9}}},
		frameShutdown: {Kind: frameShutdown},
		framePing:     {Kind: framePing},
		framePong:     {Kind: framePong},
		frameResumeOK: {Kind: frameResumeOK, LastSeq: 41},
		frameAck:      {Kind: frameAck},
		framePeerAddr: {Kind: framePeerAddr, Addr: "10.0.0.1:9001"},
		framePeerHello: {Kind: framePeerHello, From: 2, Session: 0x8000 | 77,
			Epoch: 3, LastSeq: 41, CanReplay: true},
		framePeerHelloOK: {Kind: framePeerHelloOK, LastSeq: 41},
		framePeerEpoch:   {Kind: framePeerEpoch, From: 2, Epoch: 4},
		framePeerDown:    {Kind: framePeerDown, From: 2},
		frameCoordResume: {Kind: frameCoordResume, Session: 77, Epoch: 3,
			LastSeq: 41, AckedSeq: 38, Digest: 0xDEADBEEFCAFEF00D, CanReplay: true},
	}
}

// allFrameKinds enumerates the enum by probing the encoder with every
// kind byte; a reserved or undeclared kind fails with ErrUnknownKind.
func allFrameKinds(t *testing.T) []frameKind {
	t.Helper()
	var kinds []frameKind
	fixtures := kindFixtures()
	for k := frameKind(1); k != 0; k++ {
		f := fixtures[k]
		if f == nil {
			f = &frame{Kind: k}
		}
		if _, err := appendFrame(nil, f, 0, 0); err != nil {
			if !errors.Is(err, wire.ErrUnknownKind) {
				t.Fatalf("kind %d: %v", k, err)
			}
			continue
		}
		kinds = append(kinds, k)
	}
	if len(kinds) != len(fixtures) {
		t.Fatalf("encoder accepts %d kinds but kindFixtures covers %d: "+
			"add a fixture for the new frame kind", len(kinds), len(fixtures))
	}
	return kinds
}

// encodeKind renders the fixture for kind k through the buffered writer.
func encodeKind(t *testing.T, k frameKind) []byte {
	t.Helper()
	f := kindFixtures()[k]
	var bb bytes.Buffer
	w := newWireWriter(&bb)
	if err := w.WriteFrame(f); err != nil {
		t.Fatalf("kind %d: encode: %v", k, err)
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("kind %d: flush: %v", k, err)
	}
	return bb.Bytes()
}

// TestEveryKindTruncation cuts the encoding of every frame kind at every
// byte boundary: each prefix must decode to wire.ErrTruncated — never a
// clean io.EOF, never a panic, never success.
func TestEveryKindTruncation(t *testing.T) {
	for _, k := range allFrameKinds(t) {
		full := encodeKind(t, k)
		for cut := 1; cut < len(full); cut++ {
			r := newWireReader(bytes.NewReader(full[:cut]))
			_, err := r.ReadFrame()
			if err == nil {
				t.Fatalf("kind %d truncated to %d/%d bytes decoded without error", k, cut, len(full))
			}
			if !errors.Is(err, wire.ErrTruncated) {
				t.Fatalf("kind %d truncated to %d bytes: got %v, want ErrTruncated", k, cut, err)
			}
		}
	}
}

// TestEveryKindCorruption flips every byte of every kind's encoding in
// turn; the reader must reject each mutation with one of the typed wire
// sentinels and must never panic or silently accept it.
func TestEveryKindCorruption(t *testing.T) {
	for _, k := range allFrameKinds(t) {
		full := encodeKind(t, k)
		for i := range full {
			mut := append([]byte(nil), full...)
			mut[i] ^= 0xFF
			r := newWireReader(bytes.NewReader(mut))
			f, err := r.ReadFrame()
			if err == nil {
				putFrame(f)
				t.Fatalf("kind %d: flipping byte %d of %d decoded without error", k, i, len(full))
			}
			if !errors.Is(err, wire.ErrTruncated) && !errors.Is(err, wire.ErrBadLength) &&
				!errors.Is(err, wire.ErrChecksum) && !errors.Is(err, wire.ErrUnknownKind) {
				t.Fatalf("kind %d: flipping byte %d: untyped error %v", k, i, err)
			}
		}
	}
}

// TestEveryKindRoundTrip decodes each kind's encoding back and checks the
// kind survives, then confirms the stream ends with a bare io.EOF.
func TestEveryKindRoundTrip(t *testing.T) {
	for _, k := range allFrameKinds(t) {
		r := newWireReader(bytes.NewReader(encodeKind(t, k)))
		f, err := r.ReadFrame()
		if err != nil {
			t.Fatalf("kind %d: decode: %v", k, err)
		}
		if f.Kind != k {
			t.Fatalf("kind %d decoded as kind %d", k, f.Kind)
		}
		putFrame(f)
		if _, err := r.ReadFrame(); err != io.EOF {
			t.Fatalf("kind %d: stream end: got %v, want bare io.EOF", k, err)
		}
	}
}

// TestUnknownKindTyped exercises the ErrUnknownKind paths on both sides:
// encoding an unregistered kind fails typed, and a checksum-valid frame
// carrying an unregistered kind byte decodes to the same sentinel (the
// version-skew case corruption detection cannot catch).
func TestUnknownKindTyped(t *testing.T) {
	if _, err := appendFrame(nil, &frame{Kind: 0xEE}, 0, 0); !errors.Is(err, wire.ErrUnknownKind) {
		t.Errorf("encode of unknown kind: got %v, want ErrUnknownKind", err)
	}

	// Hand-build a minimal frame with a valid CRC and kind byte 0xEE:
	// [len][crc][seq][ack][kind].
	body := make([]byte, 4+8+8+1)
	binary.LittleEndian.PutUint64(body[4:], 1)  // seq
	binary.LittleEndian.PutUint64(body[12:], 0) // ack
	body[20] = 0xEE
	binary.LittleEndian.PutUint32(body, crc32.Checksum(body[4:], crcTable))
	var bb bytes.Buffer
	var lenPrefix [4]byte
	binary.LittleEndian.PutUint32(lenPrefix[:], uint32(len(body)))
	bb.Write(lenPrefix[:])
	bb.Write(body)

	r := newWireReader(&bb)
	_, err := r.ReadFrame()
	if !errors.Is(err, wire.ErrUnknownKind) {
		t.Errorf("decode of checksum-valid unknown kind: got %v, want ErrUnknownKind", err)
	}
	if err != nil && !errors.Is(err, io.EOF) {
		// The error must identify the offending kind for the operator.
		if want := fmt.Sprintf("%d", 0xEE); !bytes.Contains([]byte(err.Error()), []byte(want)) {
			t.Errorf("unknown-kind error %q does not name kind %s", err, want)
		}
	}
}

// TestFrameHostileCountBounded: a CRC-valid frameAssign that claims 1<<24
// peer addresses and carries none must fail with wire.ErrTruncated before
// allocating for the claim. An unchecked count allocated 256 MB here.
func TestFrameHostileCountBounded(t *testing.T) {
	body := make([]byte, 4, 49)                          // crc, patched below
	body = binary.LittleEndian.AppendUint64(body, 1)     // seq
	body = binary.LittleEndian.AppendUint64(body, 0)     // ack
	body = append(body, byte(frameAssign))               // kind
	body = binary.LittleEndian.AppendUint64(body, 77)    // session
	body = binary.LittleEndian.AppendUint32(body, 3)     // epoch
	body = binary.LittleEndian.AppendUint32(body, 0)     // config blob length
	body = binary.LittleEndian.AppendUint32(body, 0)     // node id count
	body = binary.LittleEndian.AppendUint32(body, 1)     // worker index
	body = binary.LittleEndian.AppendUint32(body, 1<<24) // peer address count
	binary.LittleEndian.PutUint32(body, crc32.Checksum(body[4:], crcTable))
	raw := append(binary.LittleEndian.AppendUint32(nil, uint32(len(body))), body...)
	if len(raw) != 53 {
		t.Fatalf("hostile frame is %d bytes, want 53", len(raw))
	}

	r := newWireReader(bytes.NewReader(raw))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := r.ReadFrame()
	runtime.ReadMemStats(&after)
	if !errors.Is(err, wire.ErrTruncated) {
		t.Fatalf("hostile peer count: got %v, want ErrTruncated", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 64<<10 {
		t.Errorf("rejecting the hostile count allocated %d bytes, want under 64 KB", alloc)
	}
}

// TestFrameOversizePrefixBounded: a frame whose 4-byte prefix claims a
// gigabyte, followed by EOF, must fail with wire.ErrTruncated without
// allocating for the claim. The reader used to allocate the whole claimed
// body first, so any client of a listener could cost the process 1 GiB
// with 4 bytes.
func TestFrameOversizePrefixBounded(t *testing.T) {
	r := newWireReader(bytes.NewReader(binary.LittleEndian.AppendUint32(nil, 1<<30)))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := r.ReadFrame()
	runtime.ReadMemStats(&after)
	if !errors.Is(err, wire.ErrTruncated) {
		t.Fatalf("1 GiB prefix then EOF: got %v, want ErrTruncated", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Errorf("rejecting the prefix allocated %d bytes, want under 1 MiB", alloc)
	}
}

// FuzzReadFrame drives arbitrary bytes through the frame reader: decoding
// must never panic, and a frame that decodes must re-encode, under its own
// envelope, to bytes that decode and re-encode to themselves.
func FuzzReadFrame(f *testing.F) {
	fixtures := kindFixtures()
	for k := frameKind(1); k != 0; k++ {
		if fixtures[k] == nil {
			continue
		}
		data, err := appendFrame(nil, fixtures[k], 3, 2)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte{})
	f.Add(binary.LittleEndian.AppendUint32(nil, 1<<30)) // a gigabyte claimed, nothing sent
	reencode := func(t *testing.T, data []byte) []byte {
		// A 4 KB reader, not the connection's 256 KB one: one per input.
		r := &wireReader{EnvelopeReader: wire.NewEnvelopeReader(bytes.NewReader(data), 4096, minBodyLen)}
		fr, err := r.ReadFrame()
		if err != nil {
			return nil
		}
		defer putFrame(fr)
		re, err := appendFrame(nil, fr, fr.Seq, fr.Ack)
		if err != nil {
			t.Fatalf("decoded kind %d frame does not re-encode: %v", fr.Kind, err)
		}
		return re
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		re := reencode(t, data)
		if re == nil {
			return
		}
		if re2 := reencode(t, re); !bytes.Equal(re, re2) {
			t.Fatalf("re-encode is not a fixed point:\n first %x\nsecond %x", re, re2)
		}
	})
}
