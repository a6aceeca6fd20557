package core

import (
	"bytes"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"reflect"
	"sort"
	"strings"
	"testing"

	"ehjoin/internal/hashfn"
	rt "ehjoin/internal/runtime"
	"ehjoin/internal/tuple"
	"ehjoin/internal/wire"
)

func TestConfigRoundTrip(t *testing.T) {
	cfg := testConfig(Hybrid)
	blob, err := EncodeConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeConfig(blob)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := cfg.normalized()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip changed config:\n got %+v\nwant %+v", got, want)
	}
}

func TestEncodeConfigValidates(t *testing.T) {
	if _, err := EncodeConfig(Config{}); err == nil {
		t.Error("invalid config encoded")
	}
	if _, err := DecodeConfig([]byte("junk")); err == nil {
		t.Error("junk decoded")
	}
}

// wireSizeTypes parses the package's non-test files and returns every type
// with a WireSize method: the protocol's message set, as the source
// declares it.
func wireSizeTypes(t *testing.T) []string {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, f := range pkgs["core"].Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Name.Name != "WireSize" {
				continue
			}
			recv := fd.Recv.List[0].Type
			if star, ok := recv.(*ast.StarExpr); ok {
				recv = star.X
			}
			names = append(names, recv.(*ast.Ident).Name)
		}
	}
	sort.Strings(names)
	return names
}

// protocolMessages is one zero value of every message type; the two tests
// below hold it to the source's message set and to the codec registry.
func protocolMessages() []rt.Message {
	return []rt.Message{
		&startBuild{}, &genStep{}, &dataChunk{}, &chunkAck{}, &sourcePhaseDone{},
		&memFull{}, &memFullNack{}, &spillOrder{}, &spillAck{}, &joinInit{},
		&splitOrder{}, &splitDone{}, &retire{}, &routeUpdate{}, &moveTuples{},
		&cloneTable{}, &cloneTuples{}, &cloneEnd{}, &doReshuffle{}, &countReq{},
		&countResp{}, &reshuffleAssign{}, &startProbe{}, &finishOOC{}, &setForward{},
		&nodeDead{}, &purgeRange{}, &replayRange{}, &replayDone{}, &detectHeavy{},
		&keyCountReq{}, &keyCountResp{}, &heavyAssign{}, &heavyClone{}, &collectStats{},
		&statsReq{}, &joinStats{}, &sourceStats{},
	}
}

// TestEveryMessageHasCodec: every type the package declares with a
// WireSize method — every message an engine can send — has a registered
// wire codec, and protocolMessages lists exactly the declared set.
func TestEveryMessageHasCodec(t *testing.T) {
	var listed []string
	n := 0
	for _, m := range protocolMessages() {
		listed = append(listed, reflect.TypeOf(m).Elem().Name())
		fill(t, reflect.ValueOf(m).Elem(), &n)
		if _, err := wire.AppendMessage(nil, m); errors.Is(err, wire.ErrUnknownKind) {
			t.Errorf("%T has no registered codec", m)
		}
	}
	sort.Strings(listed)
	if declared := wireSizeTypes(t); !reflect.DeepEqual(declared, listed) {
		t.Fatalf("declared message types and protocolMessages differ:\ndeclared %v\nlisted   %v", declared, listed)
	}
	if n := len(listed); n != 38 {
		t.Errorf("%d messages, want the protocol's 38", n)
	}
}

// fill sets every exported field reachable from v — through nested
// structs, slices and pointers — to a non-zero value distinct per field,
// and fails on a field kind it does not know.
func fill(t *testing.T, v reflect.Value, n *int) {
	t.Helper()
	*n++
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int8:
		v.SetInt(1) // chunkAck's window adjustment lives in [-1, 1]
	case reflect.Int, reflect.Int32, reflect.Int64:
		v.SetInt(-int64(*n))
	case reflect.Uint, reflect.Uint8, reflect.Uint32, reflect.Uint64:
		v.SetUint(uint64(*n))
	case reflect.Float64:
		v.SetFloat(float64(*n) + 0.25)
	case reflect.String:
		v.SetString(fmt.Sprint("s", *n))
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fill(t, v.Field(i), n)
			}
		}
	case reflect.Slice:
		s := reflect.MakeSlice(v.Type(), 2, 2)
		for i := 0; i < s.Len(); i++ {
			fill(t, s.Index(i), n)
		}
		v.Set(s)
	case reflect.Pointer:
		p := reflect.New(v.Type().Elem())
		fill(t, p.Elem(), n)
		v.Set(p)
	default:
		t.Fatalf("fill: no rule for a %v field", v.Type())
	}
}

// TestEveryFieldRoundTrips sets every exported field of every message, of
// Config and of MultiConfig to a non-zero value and requires the codec to
// carry each one: a field added without a codec line fails here.
func TestEveryFieldRoundTrips(t *testing.T) {
	n := 0
	for _, m := range protocolMessages() {
		fill(t, reflect.ValueOf(m).Elem(), &n)
		data, err := wire.AppendMessage(nil, m)
		if err != nil {
			t.Fatalf("%T: encode: %v", m, err)
		}
		back, err := wire.DecodeMessage(data)
		if err != nil {
			t.Fatalf("%T: decode: %v", m, err)
		}
		if !reflect.DeepEqual(back, m) {
			t.Errorf("%T round trip:\n got %+v\nwant %+v", m, back, m)
		}
	}
	var cfg, cfgBack Config
	fill(t, reflect.ValueOf(&cfg).Elem(), &n)
	roundTripFields(t, &cfg, &cfgBack, configFields)
	var mc, mcBack MultiConfig
	fill(t, reflect.ValueOf(&mc).Elem(), &n)
	roundTripFields(t, &mc, &mcBack, multiConfigFields)
}

func roundTripFields[T any](t *testing.T, in, out *T, fields func(*wire.Codec, *T)) {
	t.Helper()
	data, err := wire.Encode(nil, in, fields)
	if err != nil {
		t.Fatalf("%T: encode: %v", in, err)
	}
	if err := wire.Decode(data, out, fields); err != nil {
		t.Fatalf("%T: decode: %v", in, err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Errorf("%T round trip:\n got %+v\nwant %+v", in, out, in)
	}
}

// TestNilAndEmptyDecodeToNil: a nil routing table stays nil across the
// wire, and an empty slice arrives as nil.
func TestNilAndEmptyDecodeToNil(t *testing.T) {
	full := hashfn.Range{Lo: 0, Hi: 1 << 16}
	for _, tc := range []struct{ in, want rt.Message }{
		{&routeUpdate{}, &routeUpdate{}},
		{&routeUpdate{Table: &hashfn.Table{Version: 3, Entries: []hashfn.Entry{{Range: full, Owners: []int32{}}},
			Dead: []int32{}, Barriers: []hashfn.Barrier{}}},
			&routeUpdate{Table: &hashfn.Table{Version: 3, Entries: []hashfn.Entry{{Range: full}}}}},
		{&keyCountResp{Keys: []uint64{}, Counts: []int64{}, SpilledParts: []int32{}}, &keyCountResp{}},
		{&heavyAssign{Keys: []uint64{}}, &heavyAssign{}},
		{&setForward{Layout: tuple.DefaultLayout()}, &setForward{Layout: tuple.DefaultLayout()}},
	} {
		data, err := wire.AppendMessage(nil, tc.in)
		if err != nil {
			t.Fatalf("%T: encode: %v", tc.in, err)
		}
		back, err := wire.DecodeMessage(data)
		if err != nil {
			t.Fatalf("%T: decode: %v", tc.in, err)
		}
		if !reflect.DeepEqual(back, tc.want) {
			t.Errorf("%T decoded to %+v, want %+v", tc.in, back, tc.want)
		}
	}
}

// FuzzDecodeCoreMessage drives arbitrary payloads through the protocol's
// own codecs: decode must never panic, and whatever decodes must re-encode
// to a fixed point.
func FuzzDecodeCoreMessage(f *testing.F) {
	table, err := hashfn.NewTable(hashfn.DefaultSpace(), []int32{5, 6, 7})
	if err != nil {
		f.Fatal(err)
	}
	table.AddReplica(1, 8)
	table.MarkDead(6)
	for _, m := range []rt.Message{
		&routeUpdate{Table: table},
		&joinStats{Active: true, Stored: 5, Matches: 6, Checksum: 7, Forwarded: 8, WidestWindow: 32},
		&keyCountResp{Keys: []uint64{2, 4}, Counts: []int64{100, 50}, SpilledParts: []int32{1}},
	} {
		data, err := wire.AppendMessage(nil, m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := wire.DecodeMessage(data)
		if err != nil {
			return
		}
		re, err := wire.AppendMessage(nil, m)
		if err != nil {
			t.Fatalf("decoded %#v does not re-encode: %v", m, err)
		}
		m2, err := wire.DecodeMessage(re)
		if err != nil {
			t.Fatalf("re-encoded message does not decode: %v", err)
		}
		re2, err := wire.AppendMessage(nil, m2)
		if err != nil || !bytes.Equal(re, re2) {
			t.Fatalf("re-encode is not a fixed point (%v):\n first %x\nsecond %x", err, re, re2)
		}
	})
}

// TestChunkAckBinaryRoundTrip pins the flow-control ack's codec (wire id 2):
// the zero value is the fixed-window ack and stays "keep" across the wire,
// both adjustments survive, and anything that is not exactly a relation byte
// plus an adjustment in [-1, 1] — including the one-byte form older builds
// sent — is rejected rather than read as a grant.
func TestChunkAckBinaryRoundTrip(t *testing.T) {
	for _, m := range []*chunkAck{
		{},
		{Rel: tuple.RelS},
		{Rel: tuple.RelR, Adjust: windowWiden},
		{Rel: tuple.RelS, Adjust: windowNarrow},
	} {
		frame, err := wire.AppendMessage(nil, m)
		if err != nil {
			t.Fatalf("%+v: encode: %v", m, err)
		}
		if len(frame) != 3 || frame[0] != 2 {
			t.Fatalf("%+v encoded as % x, want codec id 2 and two payload bytes", m, frame)
		}
		back, err := wire.DecodeMessage(frame)
		if err != nil {
			t.Fatalf("%+v: %v", m, err)
		}
		if !reflect.DeepEqual(back, m) {
			t.Errorf("round trip changed %+v into %+v", m, back)
		}
		if back.WireSize() != ctrlBytes {
			t.Errorf("%+v: wire size %d, want the constant %d every simulated charge assumes", m, back.WireSize(), ctrlBytes)
		}
	}
	if zero, err := wire.DecodeMessage([]byte{2, 0, 0}); err != nil || zero.(*chunkAck).Adjust != windowKeep {
		t.Errorf("all-zero payload decoded to %+v, %v; want a keep ack", zero, err)
	}
	for _, bad := range [][]byte{
		{2}, {2, 1}, {2, 1, 0, 0},
		{2, 0, 2}, {2, 0, 0xfe}, {2, 1, 0x7f},
	} {
		if _, err := wire.DecodeMessage(bad); err == nil {
			t.Errorf("malformed frame % x decoded", bad)
		}
	}
}

// TestSpillMessagesBinaryRoundTrip pins the spill handshake's fixed-layout
// codecs (wire ids 5 and 6).
func TestSpillMessagesBinaryRoundTrip(t *testing.T) {
	msgs := []rt.Message{
		&spillOrder{TargetBytes: 0},
		&spillOrder{TargetBytes: 123456789},
		&spillAck{},
		&spillAck{Partitions: 7, Bytes: 1 << 30},
	}
	for _, m := range msgs {
		frame, err := wire.AppendMessage(nil, m)
		if err != nil {
			t.Fatalf("%T: encode: %v", m, err)
		}
		back, err := wire.DecodeMessage(frame)
		if err != nil {
			t.Fatalf("%T: %v", m, err)
		}
		if !reflect.DeepEqual(back, m) {
			t.Errorf("round trip changed %T: got %+v, want %+v", m, back, m)
		}
	}
	// Truncated and oversized payloads must be rejected, not misread.
	for _, bad := range [][]byte{
		{5}, {5, 1, 2, 3}, {5, 1, 2, 3, 4, 5, 6, 7, 8, 9},
		{6}, {6, 1, 2, 3, 4, 5, 6, 7, 8},
	} {
		if _, err := wire.DecodeMessage(bad); err == nil {
			t.Errorf("malformed frame % x decoded", bad)
		}
	}
}

// TestHeavyMessagesBinaryRoundTrip pins the heavy-routing frames' codecs
// (wire ids 7 and 8): the heavyAssign key list and the heavyClone
// replication chunk.
func TestHeavyMessagesBinaryRoundTrip(t *testing.T) {
	chunk := &tuple.Chunk{Rel: tuple.RelR, Layout: tuple.DefaultLayout(),
		Tuples: []tuple.Tuple{{Index: 1, Key: 2}, {Index: 3, Key: 2}}}
	msgs := []rt.Message{
		&heavyAssign{},
		&heavyAssign{Keys: []uint64{7}},
		&heavyAssign{Keys: []uint64{1, 1 << 40, ^uint64(0)}},
		&heavyClone{Chunk: chunk},
	}
	for _, m := range msgs {
		frame, err := wire.AppendMessage(nil, m)
		if err != nil {
			t.Fatalf("%T: encode: %v", m, err)
		}
		if len(frame) == 0 || (frame[0] != 7 && frame[0] != 8) {
			t.Fatalf("%T encoded under codec id % x, want 7 or 8", m, frame[:1])
		}
		back, err := wire.DecodeMessage(frame)
		if err != nil {
			t.Fatalf("%T: %v", m, err)
		}
		if !reflect.DeepEqual(back, m) {
			t.Errorf("round trip changed %T: got %+v, want %+v", m, back, m)
		}
	}
	// Ragged key lists, truncated chunks, and trailing garbage must be
	// rejected, not misread.
	cloneFrame, err := wire.AppendMessage(nil, &heavyClone{Chunk: chunk})
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][]byte{
		{7, 1}, {7, 1, 2, 3, 4, 5, 6, 7, 8, 9},
		{8}, {8, 1, 2, 3},
		append(append([]byte{}, cloneFrame...), 0xff),
		cloneFrame[:len(cloneFrame)-1],
	} {
		if _, err := wire.DecodeMessage(bad); err == nil {
			t.Errorf("malformed frame % x decoded", bad)
		}
	}
}

func TestJoinNodeIDsAndFactory(t *testing.T) {
	cfg := testConfig(Split)
	ids, err := JoinNodeIDs(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n, _ := cfg.normalized()
	if len(ids) != n.MaxNodes {
		t.Fatalf("ids = %v", ids)
	}
	for _, id := range ids {
		a, err := NewJoinActor(cfg, id)
		if err != nil {
			t.Fatalf("actor for %d: %v", id, err)
		}
		if a == nil {
			t.Fatalf("nil actor for %d", id)
		}
	}
	if _, err := NewJoinActor(cfg, n.schedulerID()); err == nil {
		t.Error("scheduler id accepted as join node")
	}
	if _, err := NewJoinActor(cfg, n.sourceID(0)); err == nil {
		t.Error("source id accepted as join node")
	}
	if _, err := JoinNodeIDs(Config{}); err == nil {
		t.Error("invalid config accepted")
	}
}

// TestProbeConservationDetectsLoss exercises the invariant checking in
// assembleReport by corrupting collected statistics.
func TestStatsValidation(t *testing.T) {
	cfg := testConfig(Split)
	n, _ := cfg.normalized()
	table, _ := hashfn.NewTable(n.Space, []int32{int32(n.joinID(0))})
	sched := newScheduler(n, table, []rt.NodeID{n.joinID(0)}, nil)
	// Incomplete stats must be rejected.
	sched.joinStats = map[rt.NodeID]*joinStats{}
	sched.sourceStats = map[rt.NodeID]*sourceStats{}
	if _, err := assembleReport(n, nil, sched, 1, 1, 2); err == nil {
		t.Error("incomplete stats accepted")
	}
}
