package tuple

import (
	"encoding/binary"
	"fmt"
	"unsafe"
)

// Binary chunk encoding for the TCP transport's hot path. The layout is
// fixed-width little-endian:
//
//	[1-byte relation][4-byte payload size][4-byte tuple count]
//	[count × (8-byte index, 8-byte key)]
//
// Only the materialised 16 bytes per tuple cross the wire; the logical
// payload is carried as its size, exactly as it is held in memory.
//
// On a little-endian host the tuple array's memory is already its wire
// layout, so encode and decode move it in one block copy. Elsewhere they
// run the field loop, which every host's tests also run, through
// appendBinary and decodeBinary with block false: the reference the block
// copy is tested against.

// chunkHeaderBytes is the fixed-size prefix before the tuple array.
const chunkHeaderBytes = 1 + 4 + 4

// littleEndian reports whether a []Tuple's memory is its wire layout.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// The block copy needs Tuple to be exactly (Index, Key) with no padding.
var (
	_ [PhysicalSize - unsafe.Sizeof(Tuple{})]struct{}
	_ [unsafe.Sizeof(Tuple{}) - PhysicalSize]struct{}
	_ [unsafe.Offsetof(Tuple{}.Key) - 8]struct{}
)

// BinarySize returns the exact number of bytes AppendBinary will emit.
func (c *Chunk) BinarySize() int { return chunkHeaderBytes + PhysicalSize*len(c.Tuples) }

// AppendBinary appends the chunk's binary encoding to buf and returns the
// extended slice. The buffer is grown at most once.
func (c *Chunk) AppendBinary(buf []byte) []byte { return c.appendBinary(buf, littleEndian) }

func (c *Chunk) appendBinary(buf []byte, block bool) []byte {
	if need := c.BinarySize(); cap(buf)-len(buf) < need {
		grown := make([]byte, len(buf), len(buf)+need)
		copy(grown, buf)
		buf = grown
	}
	buf = append(buf, byte(c.Rel))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(c.Layout.PayloadBytes))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(c.Tuples)))
	off := len(buf)
	buf = buf[:off+PhysicalSize*len(c.Tuples)]
	if block {
		copy(buf[off:], tupleBytes(c.Tuples))
		return buf
	}
	for i := range c.Tuples {
		binary.LittleEndian.PutUint64(buf[off:], c.Tuples[i].Index)
		binary.LittleEndian.PutUint64(buf[off+8:], c.Tuples[i].Key)
		off += PhysicalSize
	}
	return buf
}

// DecodeBinary parses one chunk from the front of data, returning the chunk
// and the number of bytes consumed. The chunk shares no memory with data,
// and its array is freshly allocated.
func DecodeBinary(data []byte) (*Chunk, int, error) { return decodeBinary(data, nil, littleEndian) }

// DecodeBinary is tuple.DecodeBinary into an array drawn from fl, when it
// holds a released chunk whose array is long enough, and homed to fl:
// Release hands the chunk back for the next decode. A nil fl allocates.
func (fl *FreeList) DecodeBinary(data []byte) (*Chunk, int, error) {
	return decodeBinary(data, fl, littleEndian)
}

func decodeBinary(data []byte, fl *FreeList, block bool) (*Chunk, int, error) {
	if len(data) < chunkHeaderBytes {
		return nil, 0, fmt.Errorf("tuple: chunk header truncated (%d bytes)", len(data))
	}
	rel := Relation(data[0])
	payload := int(int32(binary.LittleEndian.Uint32(data[1:5])))
	n := int(binary.LittleEndian.Uint32(data[5:9]))
	if n < 0 || n > (len(data)-chunkHeaderBytes)/PhysicalSize {
		return nil, 0, fmt.Errorf("tuple: chunk of %d tuples exceeds %d available bytes",
			n, len(data)-chunkHeaderBytes)
	}
	c := fl.take(n)
	c.Rel, c.Layout = rel, Layout{PayloadBytes: payload}
	src := data[chunkHeaderBytes : chunkHeaderBytes+PhysicalSize*n]
	if block {
		copy(tupleBytes(c.Tuples), src)
	} else {
		for i := range c.Tuples {
			c.Tuples[i].Index = binary.LittleEndian.Uint64(src[i*PhysicalSize:])
			c.Tuples[i].Key = binary.LittleEndian.Uint64(src[i*PhysicalSize+8:])
		}
	}
	return c, chunkHeaderBytes + PhysicalSize*n, nil
}

// tupleBytes is the memory of ts as bytes.
func tupleBytes(ts []Tuple) []byte {
	if len(ts) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(ts))), len(ts)*PhysicalSize)
}
