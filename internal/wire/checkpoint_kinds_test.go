package wire

// The checkpoint decode-error table, mirroring the frame-kind table test
// in tcpnet (wire_kinds_test.go): every declared CkptKind — enumerated by
// probing the encoder, with ckptFixtures coverage asserted — is truncated
// at every byte boundary and corrupted at every byte, and each mutation
// must surface as one of the typed wire sentinels. A stored log is the
// only thing a crashed coordinator has left; an untyped or silent decode
// failure there turns recovery into corruption.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"runtime"
	"strings"
	"testing"
)

// encodeCkptKind renders the fixture record for kind k.
func encodeCkptKind(t *testing.T, k CkptKind) []byte {
	t.Helper()
	data, err := AppendCheckpointRecord(nil, ckptFixtures()[k])
	if err != nil {
		t.Fatalf("kind %d: encode: %v", k, err)
	}
	return data
}

// TestEveryCkptKindTruncation cuts the encoding of every checkpoint kind
// at every byte boundary: each prefix must decode to ErrTruncated — never
// a clean io.EOF, never a panic, never success.
func TestEveryCkptKindTruncation(t *testing.T) {
	for _, k := range allCkptKinds(t) {
		full := encodeCkptKind(t, k)
		for cut := 1; cut < len(full); cut++ {
			_, err := NewCheckpointReader(bytes.NewReader(full[:cut])).Next()
			if err == nil {
				t.Fatalf("kind %d truncated to %d/%d bytes decoded without error", k, cut, len(full))
			}
			if !errors.Is(err, ErrTruncated) {
				t.Fatalf("kind %d truncated to %d bytes: got %v, want ErrTruncated", k, cut, err)
			}
		}
	}
}

// TestEveryCkptKindCorruption flips every byte of every kind's encoding in
// turn; the reader must reject each mutation with one of the typed wire
// sentinels and must never panic or silently accept it.
func TestEveryCkptKindCorruption(t *testing.T) {
	for _, k := range allCkptKinds(t) {
		full := encodeCkptKind(t, k)
		for i := range full {
			mut := append([]byte(nil), full...)
			mut[i] ^= 0xFF
			_, err := NewCheckpointReader(bytes.NewReader(mut)).Next()
			if err == nil {
				t.Fatalf("kind %d: flipping byte %d of %d decoded without error", k, i, len(full))
			}
			if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrBadLength) &&
				!errors.Is(err, ErrChecksum) && !errors.Is(err, ErrUnknownKind) {
				t.Fatalf("kind %d: flipping byte %d: untyped error %v", k, i, err)
			}
		}
	}
}

// TestCkptUnknownKindTyped exercises ErrUnknownKind on both sides of the
// log: encoding an unregistered kind fails typed, and a CRC-valid record
// carrying an unregistered kind byte decodes to the same sentinel — the
// version-skew case checksums cannot catch — naming the offending kind.
func TestCkptUnknownKindTyped(t *testing.T) {
	if _, err := AppendCheckpointRecord(nil, &CkptRecord{Kind: 0xEE}); !errors.Is(err, ErrUnknownKind) {
		t.Errorf("encode of unknown kind: got %v, want ErrUnknownKind", err)
	}

	// Hand-build a minimal record with a valid CRC and kind byte 0xEE:
	// [4B len][4B crc][1B kind], crc over body[4:].
	body := make([]byte, ckptMinBody)
	body[4] = 0xEE
	binary.LittleEndian.PutUint32(body, crc32.Checksum(body[4:], castagnoli))
	raw := binary.LittleEndian.AppendUint32(nil, uint32(len(body)))
	raw = append(raw, body...)

	_, err := NewCheckpointReader(bytes.NewReader(raw)).Next()
	if !errors.Is(err, ErrUnknownKind) {
		t.Fatalf("decode of crc-valid unknown kind: got %v, want ErrUnknownKind", err)
	}
	if !strings.Contains(err.Error(), "238") {
		t.Errorf("unknown-kind error %q does not name kind 238", err)
	}
}

// TestCheckpointOversizePrefixBounded: a record whose 4-byte prefix claims
// a gigabyte, followed by the end of the log, must fail with ErrTruncated
// without allocating for the claim. The reader used to allocate the whole
// claimed body before reading a byte of it.
func TestCheckpointOversizePrefixBounded(t *testing.T) {
	cr := NewCheckpointReader(bytes.NewReader(binary.LittleEndian.AppendUint32(nil, 1<<30)))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := cr.Next()
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("1 GiB prefix then EOF: got %v, want ErrTruncated", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Errorf("rejecting the prefix allocated %d bytes, want under 1 MiB", alloc)
	}
}
