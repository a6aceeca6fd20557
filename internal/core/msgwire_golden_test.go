package core

import (
	"encoding/hex"
	"testing"

	rt "ehjoin/internal/runtime"
	"ehjoin/internal/tuple"
	"ehjoin/internal/wire"
)

// TestMessageBytesPinned pins the wire bytes of the chunk-bearing and spill
// and heavy-routing messages, codec id byte included. Every process of a
// run and every checkpoint log must agree on them: a codec change may move
// code, never a byte of these messages.
func TestMessageBytesPinned(t *testing.T) {
	chunk := &tuple.Chunk{Rel: tuple.RelS, Layout: tuple.Layout{PayloadBytes: 84},
		Tuples: []tuple.Tuple{{Index: 1, Key: 0xA1A2A3A4A5A6A7A8}, {Index: 0x0102030405060708, Key: 2}}}
	for _, tc := range []struct {
		msg  rt.Message
		want string
	}{
		{&dataChunk{Chunk: chunk, Origin: 3, Forwarded: true, Version: 0x1122334455667788}, "010154000000020000000100000000000000a8a7a6a5a4a3a2a10807060504030201020000000000000003000000018877665544332211"},
		{&chunkAck{Rel: tuple.RelS, Adjust: windowNarrow}, "0201ff"},
		{&moveTuples{Chunk: chunk, Version: 9}, "030154000000020000000100000000000000a8a7a6a5a4a3a2a1080706050403020102000000000000000900000000000000"},
		{&cloneTuples{Chunk: chunk}, "040154000000020000000100000000000000a8a7a6a5a4a3a2a108070605040302010200000000000000"},
		{&spillOrder{TargetBytes: 1 << 40}, "050000000000010000"},
		{&spillAck{Partitions: 7, Bytes: -2}, "060700000000000000feffffffffffffff"},
		{&heavyAssign{Keys: []uint64{5, 1 << 63}}, "0705000000000000000000000000000080"},
		{&heavyClone{Chunk: chunk}, "080154000000020000000100000000000000a8a7a6a5a4a3a2a108070605040302010200000000000000"},
	} {
		data, err := wire.AppendMessage(nil, tc.msg)
		if err != nil {
			t.Fatalf("%T: %v", tc.msg, err)
		}
		if got := hex.EncodeToString(data); got != tc.want {
			t.Errorf("%T bytes moved:\n got %s\nwant %s", tc.msg, got, tc.want)
		}
	}
}
