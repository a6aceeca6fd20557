package wire

import (
	"bytes"
	"testing"
)

// FuzzDecodeMessage drives arbitrary payloads through the message codec
// registry: decode must never panic, and whatever decodes successfully
// must re-encode to a fixed point — decoding the re-encoding and encoding
// again yields the same bytes.
func FuzzDecodeMessage(f *testing.F) {
	// In-code seeds complement the checked-in corpus: one valid message per
	// registered test codec plus the error shapes.
	if valid, err := AppendMessage(nil, &binMsg{A: 7, B: 9}); err == nil {
		f.Add(valid)
	}
	if valid, err := AppendMessage(nil, kitFixture()); err == nil {
		f.Add(valid)
	}
	f.Add([]byte{})
	f.Add([]byte{199, 1, 2, 3})
	f.Add([]byte{200})

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeMessage(data)
		if err != nil {
			return
		}
		re, err := AppendMessage(nil, m)
		if err != nil {
			t.Fatalf("decoded message %#v does not re-encode: %v", m, err)
		}
		m2, err := DecodeMessage(re)
		if err != nil {
			t.Fatalf("re-encoded message does not decode: %v", err)
		}
		re2, err := AppendMessage(nil, m2)
		if err != nil {
			t.Fatalf("second re-encode failed: %v", err)
		}
		if !bytes.Equal(re, re2) {
			t.Fatalf("re-encode is not a fixed point:\n first %x\nsecond %x", re, re2)
		}
	})
}
