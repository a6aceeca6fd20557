package core

import (
	"encoding/binary"
	"fmt"

	rt "ehjoin/internal/runtime"
	"ehjoin/internal/tuple"
	"ehjoin/internal/wire"
)

// Binary wire codecs for the chunk-bearing messages that dominate TCP
// traffic. Everything else (control messages, one per phase or per event)
// stays on the gob fallback. Codec ids are wire protocol: identical in
// every process of a run, never reused for a different type.
const (
	wireDataChunk   = 1
	wireChunkAck    = 2
	wireMoveTuples  = 3
	wireCloneTuples = 4
	wireSpillOrder  = 5
	wireSpillAck    = 6
	wireHeavyAssign = 7
	wireHeavyClone  = 8
)

func init() {
	// dataChunk: [chunk][4B origin][1B forwarded][8B version]
	wire.Register(wireDataChunk, &dataChunk{},
		func(buf []byte, m rt.Message) []byte {
			d := m.(*dataChunk)
			buf = d.Chunk.AppendBinary(buf)
			buf = binary.LittleEndian.AppendUint32(buf, uint32(d.Origin))
			var fwd byte
			if d.Forwarded {
				fwd = 1
			}
			buf = append(buf, fwd)
			return binary.LittleEndian.AppendUint64(buf, d.Version)
		},
		func(data []byte) (rt.Message, error) {
			c, n, err := tuple.DecodeBinary(data)
			if err != nil {
				return nil, fmt.Errorf("core: decode dataChunk: %w", err)
			}
			rest := data[n:]
			if len(rest) != 13 {
				return nil, fmt.Errorf("core: dataChunk trailer has %d bytes, want 13", len(rest))
			}
			return &dataChunk{
				Chunk:     c,
				Origin:    rt.NodeID(int32(binary.LittleEndian.Uint32(rest))),
				Forwarded: rest[4] != 0,
				Version:   binary.LittleEndian.Uint64(rest[5:]),
			}, nil
		})

	// chunkAck: [1B relation][1B window adjustment, two's complement]
	wire.Register(wireChunkAck, &chunkAck{},
		func(buf []byte, m rt.Message) []byte {
			a := m.(*chunkAck)
			return append(buf, byte(a.Rel), byte(a.Adjust))
		},
		func(data []byte) (rt.Message, error) {
			if len(data) != 2 {
				return nil, fmt.Errorf("core: chunkAck payload has %d bytes, want 2", len(data))
			}
			adj := int8(data[1])
			if adj < windowNarrow || adj > windowWiden {
				return nil, fmt.Errorf("core: chunkAck window adjustment %d outside [-1,1]", adj)
			}
			return &chunkAck{Rel: tuple.Relation(data[0]), Adjust: adj}, nil
		})

	// moveTuples: [chunk][8B version]
	wire.Register(wireMoveTuples, &moveTuples{},
		func(buf []byte, m rt.Message) []byte {
			mt := m.(*moveTuples)
			buf = mt.Chunk.AppendBinary(buf)
			return binary.LittleEndian.AppendUint64(buf, mt.Version)
		},
		func(data []byte) (rt.Message, error) {
			c, n, err := tuple.DecodeBinary(data)
			if err != nil {
				return nil, fmt.Errorf("core: decode moveTuples: %w", err)
			}
			rest := data[n:]
			if len(rest) != 8 {
				return nil, fmt.Errorf("core: moveTuples trailer has %d bytes, want 8", len(rest))
			}
			return &moveTuples{Chunk: c, Version: binary.LittleEndian.Uint64(rest)}, nil
		})

	// cloneTuples: [chunk]
	wire.Register(wireCloneTuples, &cloneTuples{},
		func(buf []byte, m rt.Message) []byte {
			return m.(*cloneTuples).Chunk.AppendBinary(buf)
		},
		func(data []byte) (rt.Message, error) {
			c, n, err := tuple.DecodeBinary(data)
			if err != nil {
				return nil, fmt.Errorf("core: decode cloneTuples: %w", err)
			}
			if n != len(data) {
				return nil, fmt.Errorf("core: cloneTuples has %d trailing bytes", len(data)-n)
			}
			return &cloneTuples{Chunk: c}, nil
		})

	// spillOrder / spillAck are control messages, not hot-path traffic;
	// they get fixed-layout codecs anyway so the spill handshake's wire
	// format is pinned (and fuzzable) independently of gob's encoding.

	// spillOrder: [8B target bytes]
	wire.Register(wireSpillOrder, &spillOrder{},
		func(buf []byte, m rt.Message) []byte {
			return binary.LittleEndian.AppendUint64(buf, uint64(m.(*spillOrder).TargetBytes))
		},
		func(data []byte) (rt.Message, error) {
			if len(data) != 8 {
				return nil, fmt.Errorf("core: spillOrder payload has %d bytes, want 8", len(data))
			}
			return &spillOrder{TargetBytes: int64(binary.LittleEndian.Uint64(data))}, nil
		})

	// spillAck: [8B partitions][8B bytes]
	wire.Register(wireSpillAck, &spillAck{},
		func(buf []byte, m rt.Message) []byte {
			a := m.(*spillAck)
			buf = binary.LittleEndian.AppendUint64(buf, uint64(a.Partitions))
			return binary.LittleEndian.AppendUint64(buf, uint64(a.Bytes))
		},
		func(data []byte) (rt.Message, error) {
			if len(data) != 16 {
				return nil, fmt.Errorf("core: spillAck payload has %d bytes, want 16", len(data))
			}
			return &spillAck{
				Partitions: int64(binary.LittleEndian.Uint64(data)),
				Bytes:      int64(binary.LittleEndian.Uint64(data[8:])),
			}, nil
		})

	// heavyAssign: [8B key]... — the heavy-key set, sorted ascending. The
	// frame is table-free by design (receivers derive each key's group from
	// their own routing table), so the layout is just the key list.
	wire.Register(wireHeavyAssign, &heavyAssign{},
		func(buf []byte, m rt.Message) []byte {
			for _, k := range m.(*heavyAssign).Keys {
				buf = binary.LittleEndian.AppendUint64(buf, k)
			}
			return buf
		},
		func(data []byte) (rt.Message, error) {
			if len(data)%8 != 0 {
				return nil, fmt.Errorf("core: heavyAssign payload has %d bytes, want a multiple of 8", len(data))
			}
			a := &heavyAssign{}
			if n := len(data) / 8; n > 0 {
				a.Keys = make([]uint64, n)
				for i := range a.Keys {
					a.Keys[i] = binary.LittleEndian.Uint64(data[8*i:])
				}
			}
			return a, nil
		})

	// heavyClone: [chunk]
	wire.Register(wireHeavyClone, &heavyClone{},
		func(buf []byte, m rt.Message) []byte {
			return m.(*heavyClone).Chunk.AppendBinary(buf)
		},
		func(data []byte) (rt.Message, error) {
			c, n, err := tuple.DecodeBinary(data)
			if err != nil {
				return nil, fmt.Errorf("core: decode heavyClone: %w", err)
			}
			if n != len(data) {
				return nil, fmt.Errorf("core: heavyClone has %d trailing bytes", len(data)-n)
			}
			return &heavyClone{Chunk: c}, nil
		})
}
