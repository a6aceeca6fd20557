package tuple

import "testing"

func TestChunkBinaryRoundTrip(t *testing.T) {
	in := &Chunk{Rel: RelS, Layout: Layout{PayloadBytes: 200}}
	for i := 0; i < 1000; i++ {
		in.Tuples = append(in.Tuples, Tuple{Index: uint64(i), Key: uint64(i) * 2654435761})
	}
	buf := in.AppendBinary(nil)
	if len(buf) != in.BinarySize() {
		t.Fatalf("AppendBinary emitted %d bytes, BinarySize says %d", len(buf), in.BinarySize())
	}
	out, n, err := DecodeBinary(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(buf) {
		t.Fatalf("DecodeBinary consumed %d of %d bytes", n, len(buf))
	}
	if out.Rel != in.Rel || out.Layout != in.Layout || len(out.Tuples) != len(in.Tuples) {
		t.Fatalf("header mismatch: got %+v rel=%d, want %+v rel=%d", out.Layout, out.Rel, in.Layout, in.Rel)
	}
	for i := range in.Tuples {
		if out.Tuples[i] != in.Tuples[i] {
			t.Fatalf("tuple %d: got %+v, want %+v", i, out.Tuples[i], in.Tuples[i])
		}
	}
}

func TestChunkBinaryEmpty(t *testing.T) {
	in := &Chunk{Rel: RelR, Layout: Layout{PayloadBytes: 100}}
	buf := in.AppendBinary(nil)
	out, n, err := DecodeBinary(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != chunkHeaderBytes || len(out.Tuples) != 0 {
		t.Fatalf("empty chunk: consumed %d bytes, %d tuples", n, len(out.Tuples))
	}
	if out.Rel != RelR || out.Layout.PayloadBytes != 100 {
		t.Fatalf("empty chunk header mismatch: %+v", out)
	}
}

func TestChunkBinaryAppendsInPlace(t *testing.T) {
	prefix := []byte("prefix")
	in := &Chunk{Rel: RelR, Tuples: []Tuple{{Index: 1, Key: 2}}}
	buf := in.AppendBinary(append([]byte(nil), prefix...))
	if string(buf[:len(prefix)]) != string(prefix) {
		t.Fatalf("prefix clobbered: %q", buf[:len(prefix)])
	}
	out, _, err := DecodeBinary(buf[len(prefix):])
	if err != nil {
		t.Fatal(err)
	}
	if out.Tuples[0] != in.Tuples[0] {
		t.Fatalf("got %+v, want %+v", out.Tuples[0], in.Tuples[0])
	}
}

func TestChunkBinaryTruncated(t *testing.T) {
	in := &Chunk{Rel: RelS, Tuples: []Tuple{{1, 2}, {3, 4}}}
	buf := in.AppendBinary(nil)
	for cut := 0; cut < len(buf); cut++ {
		if _, _, err := DecodeBinary(buf[:cut]); err == nil {
			t.Fatalf("truncation to %d of %d bytes decoded without error", cut, len(buf))
		}
	}
}

// TestBlockCopyMatchesFieldLoop: on every host the block copy and the field
// loop write the same bytes and read back the same tuples, whichever path
// AppendBinary and DecodeBinary take here.
func TestBlockCopyMatchesFieldLoop(t *testing.T) {
	in := &Chunk{Rel: RelS, Layout: Layout{PayloadBytes: 84}}
	for i := 0; i < 257; i++ {
		in.Tuples = append(in.Tuples, Tuple{Index: uint64(i)<<40 ^ 0x0102030405060708, Key: ^uint64(i) * 0x9E3779B97F4A7C15})
	}
	block, fields := in.AppendBinary(nil), in.appendBinary(nil, false)
	if string(block) != string(fields) {
		t.Fatal("the block copy and the field loop emitted different bytes")
	}
	if got := fields[chunkHeaderBytes : chunkHeaderBytes+8]; got[0] != 0x08 || got[7] != 0x01 {
		t.Fatalf("tuple 0's index encodes as % x, want little-endian 08 .. 01", got)
	}
	for _, block := range []bool{littleEndian, false} {
		out, n, err := decodeBinary(fields, nil, block)
		if err != nil || n != len(fields) || !sameChunk(out, in) {
			t.Fatalf("decode (block copy %v): %d of %d bytes, err %v, same chunk %v", block, n, len(fields), err, err == nil && sameChunk(out, in))
		}
	}
}
