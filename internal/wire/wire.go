// Package wire is the one binary codec of the TCP transport and the
// coordinator's checkpoint log. Every format — each protocol message, the
// tcpnet frame body, the checkpoint record body, the run configuration — is
// one function that names its fields once, in wire order:
//
//	func(c *wire.Codec, m *spillAck) {
//		wire.U64(c, &m.Partitions)
//		wire.U64(c, &m.Bytes)
//	}
//
// Encode runs it to append the fields, and Decode runs the same function to
// parse them back through the same pointers (codec.go), so a layout cannot
// be written one way and read another. Integers are fixed-width little-
// endian. Decoding checks every length and count against the bytes that
// remain before it allocates anything, and the first error sticks: later
// fields read nothing, and Decode returns it wrapping one of the typed
// sentinels in errors.go. Field coding uses no reflection.
//
// A message travels as [1-byte codec id][fields]: the id names the message
// type, whose registered format function lists the fields. The registry is
// append-only and must be populated from init functions: after process
// start-up it is read concurrently without locking.
package wire

import (
	"fmt"
	"reflect"

	rt "ehjoin/internal/runtime"
)

type codec struct {
	id     uint8
	fields func(*Codec, rt.Message)
	new    func() rt.Message
}

var (
	byType = make(map[reflect.Type]*codec)
	byID   [256]*codec
)

// Register installs the format of message type P under id. Ids are part of
// the wire protocol: they must be identical in every process of a run and
// never reused for a different type. fields lists P's fields; decoding runs
// it on a fresh zero P. Register must be called from an init function; it
// panics on id or type collisions.
func Register[M any, P interface {
	*M
	rt.Message
}](id uint8, fields func(*Codec, P)) {
	t := reflect.TypeOf(P(nil))
	if byID[id] != nil {
		panic(fmt.Sprintf("wire: codec id %d registered twice", id))
	}
	if _, dup := byType[t]; dup {
		panic(fmt.Sprintf("wire: type %v registered twice", t))
	}
	cd := &codec{id: id,
		fields: func(c *Codec, m rt.Message) { fields(c, m.(P)) },
		new:    func() rt.Message { return P(new(M)) },
	}
	byType[t] = cd
	byID[id] = cd
}

// Message codes a message as its codec id byte and its registered fields.
// Encoding a message of an unregistered type fails with ErrUnknownKind.
func Message(c *Codec, m *rt.Message) {
	if !c.decoding {
		cd := byType[reflect.TypeOf(*m)]
		if cd == nil {
			c.Fail(fmt.Errorf("wire: no codec registered for %T: %w", *m, ErrUnknownKind))
			return
		}
		c.buf = append(c.buf, cd.id)
		cd.fields(c, *m)
		return
	}
	if b := c.take(1); b != nil {
		cd := byID[b[0]]
		if cd == nil {
			c.Fail(fmt.Errorf("wire: unknown codec id %d: %w", b[0], ErrUnknownKind))
			return
		}
		*m = cd.new()
		cd.fields(c, *m)
	}
}

// AppendMessage appends m's wire encoding (codec id byte + fields) to buf.
func AppendMessage(buf []byte, m rt.Message) ([]byte, error) {
	return Encode(buf, &m, Message)
}

// DecodeMessage parses one message produced by AppendMessage. The returned
// message shares no memory with data.
func DecodeMessage(data []byte) (rt.Message, error) {
	var m rt.Message
	if err := Decode(data, &m, Message); err != nil {
		return nil, err
	}
	return m, nil
}
