package core

import (
	"testing"

	"ehjoin/internal/hashfn"
	rt "ehjoin/internal/runtime"
	"ehjoin/internal/tuple"
	"ehjoin/internal/wire"
)

// benchChunkMsg builds the frame that dominates TCP traffic: a full
// dataChunk of DefaultChunkTuples tuples.
func benchChunkMsg() *dataChunk {
	c := &tuple.Chunk{Rel: tuple.RelS, Layout: tuple.Layout{PayloadBytes: 200}}
	c.Tuples = make([]tuple.Tuple, tuple.DefaultChunkTuples)
	for i := range c.Tuples {
		c.Tuples[i] = tuple.Tuple{Index: uint64(i), Key: uint64(i) * 2654435761}
	}
	return &dataChunk{Chunk: c, Origin: 3, Forwarded: true, Version: 7}
}

// benchRouteMsg builds the largest control message: a routing-table
// broadcast over the paper's 24-node cluster, every entry split and one
// replicated.
func benchRouteMsg(b *testing.B) *routeUpdate {
	owners := make([]int32, 24)
	for i := range owners {
		owners[i] = int32(i + 9)
	}
	t, err := hashfn.NewTable(hashfn.DefaultSpace(), owners)
	if err != nil {
		b.Fatal(err)
	}
	t.AddReplica(0, 40)
	return &routeUpdate{Table: t}
}

// BenchmarkWireCodec measures encode+decode of the chunk-bearing message
// that dominates traffic and of the table-bearing control message.
func BenchmarkWireCodec(b *testing.B) {
	for _, arm := range []struct {
		name string
		msg  rt.Message
	}{
		{"dataChunk", benchChunkMsg()},
		{"routeUpdate", benchRouteMsg(b)},
	} {
		b.Run(arm.name, func(b *testing.B) {
			buf, err := wire.AppendMessage(nil, arm.msg)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(buf)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf, err = wire.AppendMessage(buf[:0], arm.msg)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := wire.DecodeMessage(buf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
