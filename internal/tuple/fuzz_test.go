package tuple

import (
	"bytes"
	"slices"
	"testing"
)

// FuzzDecodeBinary drives arbitrary bytes through the chunk codec: decode
// must never panic or over-read, and every successful decode must
// re-encode to exactly the bytes it consumed (the codec is canonical). Each
// input is decoded four ways — into a fresh array, through a list whose
// parked arrays are longer and hold stale tuples, and on the block-copy
// and field-loop paths — and all four must return the same chunk and
// re-encode, on both paths, to the same bytes.
func FuzzDecodeBinary(f *testing.F) {
	// In-code seeds complement the checked-in corpus: an empty chunk, a
	// populated chunk, and truncation/corruption shapes.
	empty := (&Chunk{Layout: Layout{PayloadBytes: 100}}).AppendBinary(nil)
	f.Add(empty)
	full := (&Chunk{
		Rel:    1,
		Layout: Layout{PayloadBytes: 64},
		Tuples: []Tuple{{Index: 1, Key: 2}, {Index: 3, Key: 4}},
	}).AppendBinary(nil)
	f.Add(full)
	f.Add([]byte{})
	f.Add(full[:len(full)-1])
	f.Add([]byte{0, 0, 0, 0, 0, 255, 255, 255, 255})

	f.Fuzz(func(t *testing.T, data []byte) {
		c, n, err := DecodeBinary(data)
		stale := staleList(t, 2, 64)
		decoders := []struct {
			name   string
			decode func([]byte) (*Chunk, int, error)
		}{
			{"fields", func(b []byte) (*Chunk, int, error) { return decodeBinary(b, nil, false) }},
			{"list", stale.DecodeBinary},
			{"list+fields", func(b []byte) (*Chunk, int, error) { return decodeBinary(b, stale, false) }},
		}
		for _, d := range decoders {
			dc, dn, derr := d.decode(data)
			if (derr == nil) != (err == nil) || dn != n {
				t.Fatalf("%s decode: consumed %d, err %v; fresh decode consumed %d, err %v", d.name, dn, derr, n, err)
			}
			if err == nil && !sameChunk(dc, c) {
				t.Fatalf("%s decode returned %+v, fresh decode %+v", d.name, dc, c)
			}
		}
		if err != nil {
			return
		}
		if n < chunkHeaderBytes || n > len(data) {
			t.Fatalf("decode consumed %d of %d bytes", n, len(data))
		}
		for _, re := range [][]byte{c.AppendBinary(nil), c.appendBinary(nil, false)} {
			if !bytes.Equal(re, data[:n]) {
				t.Fatalf("re-encode %x differs from the %d bytes decode consumed %x", re, n, data[:n])
			}
		}
	})
}

// staleList returns a list holding n released chunks whose arrays hold
// size stale tuples each.
func staleList(t testing.TB, n, size int) *FreeList {
	t.Helper()
	fl := NewFreeList(n)
	stale := make([]Tuple, size)
	for i := range stale {
		stale[i] = Tuple{Index: ^uint64(i), Key: uint64(i) * 7}
	}
	in := (&Chunk{Rel: RelS, Layout: Layout{PayloadBytes: 9}, Tuples: stale}).AppendBinary(nil)
	var parked []*Chunk
	for range n {
		c, _, err := fl.DecodeBinary(in)
		if err != nil {
			t.Fatal(err)
		}
		parked = append(parked, c)
	}
	for _, c := range parked {
		c.Release()
	}
	return fl
}

// sameChunk compares the coded fields; a nil and an empty array are the
// same chunk.
func sameChunk(a, b *Chunk) bool {
	return a.Rel == b.Rel && a.Layout == b.Layout && slices.Equal(a.Tuples, b.Tuples)
}
