package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"ehjoin/internal/tuple"
)

// A Codec is one pass of a format function, in one direction.
type Codec struct {
	decoding bool
	buf      []byte // encoding: the output so far; decoding: the unread input
	err      error
	chunks   *tuple.FreeList // decoding: where chunk arrays come from; nil allocates
}

// Fail records err as the pass's error unless one is recorded already.
func (c *Codec) Fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// codecs recycles Codecs. Format functions reach message formats through
// function values, so a Codec on the caller's stack would escape to the
// heap once per pass. A sender that encodes every frame owns its Codec
// instead (EncodeOn): the race detector's sync.Pool drops items at random.
var codecs = sync.Pool{New: func() any { return new(Codec) }}

// Encode appends v's fields, as fields lists them, to dst.
func Encode[T any](dst []byte, v *T, fields func(*Codec, *T)) ([]byte, error) {
	c := codecs.Get().(*Codec)
	defer codecs.Put(c)
	return EncodeOn(c, dst, v, fields)
}

// EncodeOn is Encode on a Codec the caller owns and does not share.
func EncodeOn[T any](c *Codec, dst []byte, v *T, fields func(*Codec, *T)) ([]byte, error) {
	return run(c, Codec{buf: dst}, v, fields)
}

// Decode parses data into v, as fields lists it. Every byte of data must
// belong to a field: anything left over fails with ErrBadLength.
func Decode[T any](data []byte, v *T, fields func(*Codec, *T)) error {
	return DecodeWith(nil, data, v, fields)
}

// DecodeWith is Decode with every chunk decoded into an array drawn from,
// and homed to, chunks (tuple.FreeList.DecodeBinary); a nil list allocates
// each array, as Decode does.
func DecodeWith[T any](chunks *tuple.FreeList, data []byte, v *T, fields func(*Codec, *T)) error {
	c := codecs.Get().(*Codec)
	defer codecs.Put(c)
	_, err := run(c, Codec{decoding: true, buf: data, chunks: chunks}, v, fields)
	return err
}

// run is one pass on c, which it leaves zeroed.
func run[T any](c *Codec, start Codec, v *T, fields func(*Codec, *T)) ([]byte, error) {
	*c = start
	fields(c, v)
	if c.decoding && len(c.buf) > 0 {
		c.Fail(fmt.Errorf("wire: %d bytes past the last field: %w", len(c.buf), ErrBadLength))
	}
	out, err := c.buf, c.err
	*c = Codec{}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// take consumes the next n input bytes, or fails with ErrTruncated and
// returns nil.
func (c *Codec) take(n int) []byte {
	if c.err != nil {
		return nil
	}
	if len(c.buf) < n {
		c.Fail(fmt.Errorf("wire: %d-byte field with %d bytes left: %w", n, len(c.buf), ErrTruncated))
		return nil
	}
	b := c.buf[:n:n]
	c.buf = c.buf[n:]
	return b
}

// U8 codes a one-byte integer.
func U8[T ~uint8 | ~int8](c *Codec, v *T) { word(c, v, 1) }

// U32 codes a four-byte integer; signed values travel as two's complement.
func U32[T ~uint32 | ~int32](c *Codec, v *T) { word(c, v, 4) }

// U64 codes an eight-byte integer; signed values travel as two's
// complement, and an int or uint always takes eight bytes.
func U64[T ~uint64 | ~int64 | ~uint | ~int](c *Codec, v *T) { word(c, v, 8) }

// word codes an integer as its low n bytes, little-endian.
func word[T ~uint8 | ~int8 | ~uint16 | ~uint32 | ~int32 | ~uint64 | ~int64 | ~uint | ~int](c *Codec, v *T, n int) {
	var w [8]byte
	if !c.decoding {
		binary.LittleEndian.PutUint64(w[:], uint64(*v))
		c.buf = append(c.buf, w[:n]...)
	} else if b := c.take(n); b != nil {
		copy(w[:], b)
		*v = T(binary.LittleEndian.Uint64(w[:]))
	}
}

// Bool codes a bool as one byte; any nonzero byte decodes to true.
func Bool(c *Codec, v *bool) {
	var b uint8
	if *v {
		b = 1
	}
	U8(c, &b)
	*v = b != 0
}

// F64 codes a float64 as its eight IEEE 754 bytes.
func F64(c *Codec, v *float64) {
	u := math.Float64bits(*v)
	U64(c, &u)
	*v = math.Float64frombits(u)
}

// Str16 codes a string as a two-byte length and its bytes.
func Str16(c *Codec, s *string) {
	if len(*s) > math.MaxUint16 {
		c.Fail(fmt.Errorf("wire: %d-byte string overflows its 2-byte length", len(*s)))
		return
	}
	n := uint16(len(*s))
	word(c, &n, 2)
	if !c.decoding {
		c.buf = append(c.buf, *s...)
	} else if b := c.take(int(n)); c.err == nil {
		*s = string(b)
	}
}

// Blob codes a byte slice as a four-byte length and its bytes. Decoding
// copies (the input is a reused read buffer); an empty blob decodes to nil.
func Blob(c *Codec, b *[]byte) {
	n := Len(c, len(*b), 1)
	if !c.decoding {
		c.buf = append(c.buf, *b...)
	} else if n > 0 {
		*b = append([]byte(nil), c.take(n)...)
	}
}

// Len codes a slice length as a four-byte count and returns it. Decoding,
// the count fails with ErrTruncated unless the input left holds that many
// elements of at least minSize bytes each, so a hostile count is refused
// before anything is allocated.
func Len(c *Codec, n, minSize int) int {
	u := uint32(n)
	U32(c, &u)
	if c.decoding && c.err == nil && uint64(u)*uint64(minSize) > uint64(len(c.buf)) {
		c.Fail(fmt.Errorf("wire: count %d of %d-byte elements with %d bytes left: %w",
			u, minSize, len(c.buf), ErrTruncated))
	}
	if c.err != nil {
		return 0
	}
	return int(u)
}

// Elems codes exactly n elements of s, each with elem; the count itself is
// coded elsewhere. Encoding fails if s does not hold n elements; an empty
// slice decodes to nil.
func Elems[T any](c *Codec, s *[]T, n int, elem func(*Codec, *T)) {
	if c.decoding && n > 0 {
		*s = make([]T, n)
	} else if !c.decoding && len(*s) != n {
		c.Fail(fmt.Errorf("wire: %d elements where the count says %d", len(*s), n))
		return
	}
	for i := range *s {
		elem(c, &(*s)[i])
	}
}

// Slice codes s as a count and its elements; minSize is the fewest bytes
// one element takes on the wire. An empty slice decodes to nil.
func Slice[T any](c *Codec, s *[]T, minSize int, elem func(*Codec, *T)) {
	Elems(c, s, Len(c, len(*s), minSize), elem)
}

// Pairs codes two slices of one length as a count and the interleaved pairs
// (a[0], b[0]), (a[1], b[1]), …; minSize is the fewest bytes one pair takes.
func Pairs[A, B any](c *Codec, a *[]A, b *[]B, minSize int, ea func(*Codec, *A), eb func(*Codec, *B)) {
	n := Len(c, len(*a), minSize)
	if c.decoding && n > 0 {
		*a, *b = make([]A, n), make([]B, n)
	} else if !c.decoding && len(*b) != n {
		c.Fail(fmt.Errorf("wire: paired slices of %d and %d elements", n, len(*b)))
		return
	}
	for i := range *a {
		ea(c, &(*a)[i])
		eb(c, &(*b)[i])
	}
}

// Rest codes s with no count: its elements, size bytes each, run to the end
// of the input. An empty slice decodes to nil.
func Rest[T any](c *Codec, s *[]T, size int, elem func(*Codec, *T)) {
	n := len(*s)
	if c.decoding {
		if n = len(c.buf) / size; c.err != nil || len(c.buf)%size != 0 {
			c.Fail(fmt.Errorf("wire: %d bytes left for %d-byte elements: %w", len(c.buf), size, ErrTruncated))
			return
		}
	}
	Elems(c, s, n, elem)
}

// Opt codes a pointer as a presence byte and, when it is not nil, the
// fields of what it points to. A nil pointer decodes to nil.
func Opt[T any](c *Codec, p **T, fields func(*Codec, *T)) {
	present := *p != nil
	Bool(c, &present)
	if present && c.err == nil {
		if c.decoding {
			*p = new(T)
		}
		fields(c, *p)
	}
}

// Chunk codes a tuple chunk in its own bulk layout (tuple.AppendBinary),
// decoding it through the pass's free list, if it has one.
func Chunk(c *Codec, ch **tuple.Chunk) {
	if !c.decoding {
		c.buf = (*ch).AppendBinary(c.buf)
	} else if c.err == nil {
		v, n, err := c.chunks.DecodeBinary(c.buf)
		if err != nil {
			c.Fail(fmt.Errorf("wire: %v: %w", err, ErrTruncated))
			return
		}
		*ch, c.buf = v, c.buf[n:]
	}
}
