package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"reflect"
	"runtime"
	"testing"

	rt "ehjoin/internal/runtime"
	"ehjoin/internal/tuple"
)

// binMsg is a fixed-layout message: [8B A][4B B].
type binMsg struct {
	A uint64
	B uint32
}

func (m *binMsg) WireSize() int { return 12 }

func binFields(c *Codec, m *binMsg) {
	U64(c, &m.A)
	U32(c, &m.B)
}

// kitMsg carries one field of every kind the codec offers.
type kitMsg struct {
	Flag    bool
	Small   int8
	Word    int32
	Big     int
	Ratio   float64
	Name    string
	Blob    []byte
	List    []uint64
	IDs     []int32
	Owners  []int32
	Names   []string
	Inner   *binMsg
	Chunk   *tuple.Chunk
	Trailer []uint32
}

func (m *kitMsg) WireSize() int { return 64 }

// unregisteredMsg has no codec.
type unregisteredMsg struct{}

func (*unregisteredMsg) WireSize() int { return 0 }

func init() {
	Register(200, binFields)
	Register(201, func(c *Codec, m *kitMsg) {
		Bool(c, &m.Flag)
		U8(c, &m.Small)
		U32(c, &m.Word)
		U64(c, &m.Big)
		F64(c, &m.Ratio)
		Str16(c, &m.Name)
		Blob(c, &m.Blob)
		Slice(c, &m.List, 8, U64)
		Pairs(c, &m.IDs, &m.Owners, 8, U32, U32)
		Slice(c, &m.Names, 2, Str16)
		Opt(c, &m.Inner, binFields)
		Chunk(c, &m.Chunk)
		Rest(c, &m.Trailer, 4, U32)
	})
}

func kitFixture() *kitMsg {
	return &kitMsg{Flag: true, Small: -3, Word: -70000, Big: math.MinInt, Ratio: 0.25,
		Name: "peer 10.0.0.1:9001", Blob: []byte{1, 2, 3}, List: []uint64{7, 1 << 63},
		IDs: []int32{5, 6}, Owners: []int32{0, 1}, Names: []string{"a", ""},
		Inner: &binMsg{A: 1, B: 2},
		Chunk: &tuple.Chunk{Rel: tuple.RelS, Layout: tuple.Layout{PayloadBytes: 84},
			Tuples: []tuple.Tuple{{Index: 4, Key: 5}}},
		Trailer: []uint32{9, 10, 11}}
}

func roundTrip(t *testing.T, m rt.Message) rt.Message {
	t.Helper()
	buf, err := AppendMessage(nil, m)
	if err != nil {
		t.Fatalf("AppendMessage(%T): %v", m, err)
	}
	got, err := DecodeMessage(buf)
	if err != nil {
		t.Fatalf("DecodeMessage(%T): %v", m, err)
	}
	return got
}

func TestBinaryCodecRoundTrip(t *testing.T) {
	in := &binMsg{A: 0xdeadbeefcafe, B: 42}
	buf, err := AppendMessage(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	if buf[0] != 200 {
		t.Fatalf("registered message used codec id %d, want 200", buf[0])
	}
	if len(buf) != 1+12 {
		t.Fatalf("binary encoding is %d bytes, want 13", len(buf))
	}
	got, err := DecodeMessage(buf)
	if err != nil {
		t.Fatal(err)
	}
	if bm, ok := got.(*binMsg); !ok || *bm != *in {
		t.Fatalf("round trip: got %#v, want %#v", got, in)
	}
}

// TestEveryFieldKindRoundTrip: a message holding one field of every kind
// survives the codec, and its empty form decodes empty slices and a nil
// pointer back to nil.
func TestEveryFieldKindRoundTrip(t *testing.T) {
	if in, got := kitFixture(), roundTrip(t, kitFixture()); !reflect.DeepEqual(got, in) {
		t.Errorf("round trip:\n got %+v\nwant %+v", got, in)
	}
	empty := &kitMsg{Blob: []byte{}, List: []uint64{}, IDs: []int32{}, Owners: []int32{},
		Names: []string{}, Chunk: &tuple.Chunk{}, Trailer: []uint32{}}
	want := &kitMsg{Chunk: &tuple.Chunk{}}
	if got := roundTrip(t, empty); !reflect.DeepEqual(got, want) {
		t.Errorf("empty round trip:\n got %+v\nwant %+v", got, want)
	}
}

// TestEncodeRejectsInconsistentFields: a pair count the second slice does
// not match, or a string too long for its length prefix, fails the encode
// instead of writing a layout the decoder would misread.
func TestEncodeRejectsInconsistentFields(t *testing.T) {
	ragged := kitFixture()
	ragged.Owners = ragged.Owners[:1]
	if _, err := AppendMessage(nil, ragged); err == nil {
		t.Error("paired slices of different lengths encoded")
	}
	long := kitFixture()
	long.Name = string(make([]byte, 1<<16))
	if _, err := AppendMessage(nil, long); err == nil {
		t.Error("a 64 KiB string encoded behind a 2-byte length")
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := DecodeMessage(nil); !errors.Is(err, ErrTruncated) {
		t.Errorf("empty payload: got %v, want ErrTruncated", err)
	}
	if _, err := DecodeMessage([]byte{199, 1, 2}); !errors.Is(err, ErrUnknownKind) {
		t.Errorf("unknown codec id: got %v, want ErrUnknownKind", err)
	}
	if _, err := DecodeMessage([]byte{200, 1, 2}); !errors.Is(err, ErrTruncated) {
		t.Errorf("truncated binMsg: got %v, want ErrTruncated", err)
	}
	whole, _ := AppendMessage(nil, &binMsg{A: 1, B: 2})
	if _, err := DecodeMessage(append(whole, 0)); !errors.Is(err, ErrBadLength) {
		t.Errorf("trailing byte: got %v, want ErrBadLength", err)
	}
	// Every cut before the uncounted trailer fails; inside it, a cut on an
	// element boundary is a shorter valid trailer by design.
	kit, _ := AppendMessage(nil, kitFixture())
	for cut := 1; cut < len(kit)-4*len(kitFixture().Trailer); cut++ {
		if _, err := DecodeMessage(kit[:cut]); err == nil {
			t.Fatalf("kitMsg cut to %d of %d bytes decoded", cut, len(kit))
		}
	}
}

// TestUnregisteredMessageTyped: a message type without a registered codec
// cannot be encoded, and the error is the typed unknown-kind sentinel.
func TestUnregisteredMessageTyped(t *testing.T) {
	if _, err := AppendMessage(nil, &unregisteredMsg{}); !errors.Is(err, ErrUnknownKind) {
		t.Fatalf("unregistered message: got %v, want ErrUnknownKind", err)
	}
}

// TestCheckpointHostileCountBounded: a CRC-valid header record that claims
// 1<<24 peer addresses and carries none must fail with ErrTruncated before
// allocating for the claim. The parent of this test allocated 256 MB here.
func TestCheckpointHostileCountBounded(t *testing.T) {
	body := make([]byte, 4, 26)
	body = append(body, byte(CkptHeader))
	body = binary.LittleEndian.AppendUint32(body, CkptVersion)
	body = binary.LittleEndian.AppendUint64(body, 0xABCD0000) // session base
	body = binary.LittleEndian.AppendUint32(body, 0)          // config blob length
	body = binary.LittleEndian.AppendUint32(body, 1<<24)      // peer address count
	binary.LittleEndian.PutUint32(body, crc32.Checksum(body[4:], castagnoli))
	raw := append(binary.LittleEndian.AppendUint32(nil, uint32(len(body))), body...)

	cr := NewCheckpointReader(bytes.NewReader(raw))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := cr.Next()
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("hostile peer count: got %v, want ErrTruncated", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 64<<10 {
		t.Errorf("rejecting the hostile count allocated %d bytes, want under 64 KB", alloc)
	}
}

// TestDecodeWithDrawsChunksFromTheList: DecodeWith decodes a message's
// chunk as Decode does, into an array homed to the list, so releasing it
// lets the next decode reuse that array.
func TestDecodeWithDrawsChunksFromTheList(t *testing.T) {
	buf, err := AppendMessage(nil, kitFixture())
	if err != nil {
		t.Fatal(err)
	}
	fl := tuple.NewFreeList(1)
	decode := func() *tuple.Chunk {
		var m rt.Message
		if err := DecodeWith(fl, buf, &m, Message); err != nil {
			t.Fatal(err)
		}
		return m.(*kitMsg).Chunk
	}
	first, want := decode(), kitFixture().Chunk
	if first.Rel != want.Rel || first.Layout != want.Layout || !reflect.DeepEqual(first.Tuples, want.Tuples) {
		t.Fatalf("chunk decoded through a list as %+v, want %+v", first, want)
	}
	array := &first.Tuples[0]
	first.Release()
	if second := decode(); &second.Tuples[0] != array {
		t.Error("the next decode did not reuse the released chunk's array")
	}
}
