package core

import (
	"bytes"
	"encoding/gob"
	"reflect"
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

// TestMessageGobRoundTrip ships every message kind through gob as an
// interface value, the way the TCP transport does.
func TestMessageGobRoundTrip(t *testing.T) {
	table, err := hashfn.NewTable(hashfn.DefaultSpace(), []int32{5, 6})
	if err != nil {
		t.Fatal(err)
	}
	chunk := &tuple.Chunk{Rel: tuple.RelR, Layout: tuple.DefaultLayout(),
		Tuples: []tuple.Tuple{{Index: 1, Key: 2}, {Index: 3, Key: 4}}}

	msgs := []rt.Message{
		&startBuild{Table: table},
		&genStep{},
		&dataChunk{Chunk: chunk, Origin: 3, Forwarded: true},
		&chunkAck{Rel: tuple.RelS},
		&chunkAck{Rel: tuple.RelR, Adjust: windowNarrow},
		&sourcePhaseDone{Rel: tuple.RelR, Chunks: 7},
		&memFull{Bytes: 99},
		&memFullNack{},
		&spillOrder{TargetBytes: 4096},
		&spillAck{Partitions: 3, Bytes: 2048},
		&joinInit{Range: hashfn.Range{Lo: 1, Hi: 9}, Table: table},
		&splitOrder{Lower: hashfn.Range{Lo: 1, Hi: 5}, Upper: hashfn.Range{Lo: 5, Hi: 9}, NewNode: 4, Table: table},
		&splitDone{MovedTuples: 11},
		&retire{ForwardTo: 8, Table: table},
		&routeUpdate{Table: table},
		&moveTuples{Chunk: chunk},
		&doReshuffle{},
		&countReq{Range: hashfn.Range{Lo: 0, Hi: 4}},
		&countResp{Range: hashfn.Range{Lo: 0, Hi: 4}, Counts: []int64{1, 2, 3, 4}},
		&reshuffleAssign{Keep: hashfn.Range{Lo: 0, Hi: 2}, GroupEntries: table.Entries, Table: table},
		&startProbe{Table: table},
		&finishOOC{},
		&detectHeavy{},
		&keyCountReq{Positions: []int32{3, 9, 27}},
		&keyCountResp{Keys: []uint64{2, 4}, Counts: []int64{100, 50}, SpilledParts: []int32{1}},
		&heavyAssign{Keys: []uint64{2, 4, 8}},
		&heavyClone{Chunk: chunk},
		&setForward{NextTable: table, NextSeed: 42, Layout: tuple.DefaultLayout()},
		&collectStats{},
		&statsReq{},
		&joinStats{Active: true, Stored: 5, Matches: 6, Checksum: 7, Forwarded: 8},
		&sourceStats{ChunksSent: 9, ProbeExtraCopies: 10},
	}
	for _, m := range msgs {
		var buf bytes.Buffer
		holder := struct{ M rt.Message }{M: m}
		if err := gob.NewEncoder(&buf).Encode(&holder); err != nil {
			t.Fatalf("%T: encode: %v", m, err)
		}
		var back struct{ M rt.Message }
		if err := gob.NewDecoder(&buf).Decode(&back); err != nil {
			t.Fatalf("%T: decode: %v", m, err)
		}
		if back.M == nil {
			t.Fatalf("%T: decoded nil", m)
		}
		if back.M.WireSize() != m.WireSize() {
			t.Errorf("%T: wire size changed %d -> %d", m, m.WireSize(), back.M.WireSize())
		}
	}
	// Spot-check payload fidelity on a chunk-bearing message.
	var buf bytes.Buffer
	holder := struct{ M rt.Message }{M: &dataChunk{Chunk: chunk, Origin: 3}}
	if err := gob.NewEncoder(&buf).Encode(&holder); err != nil {
		t.Fatal(err)
	}
	var back struct{ M rt.Message }
	if err := gob.NewDecoder(&buf).Decode(&back); err != nil {
		t.Fatal(err)
	}
	dc := back.M.(*dataChunk)
	if len(dc.Chunk.Tuples) != 2 || dc.Chunk.Tuples[1].Key != 4 || dc.Origin != 3 {
		t.Errorf("chunk payload corrupted: %+v", dc)
	}
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
		if len(frame) != 3 || frame[0] != wireChunkAck {
			t.Fatalf("%+v encoded as % x, want codec id %d and two payload bytes", m, frame, wireChunkAck)
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
	if zero, err := wire.DecodeMessage([]byte{wireChunkAck, 0, 0}); err != nil || zero.(*chunkAck).Adjust != windowKeep {
		t.Errorf("all-zero payload decoded to %+v, %v; want a keep ack", zero, err)
	}
	for _, bad := range [][]byte{
		{wireChunkAck}, {wireChunkAck, 1}, {wireChunkAck, 1, 0, 0},
		{wireChunkAck, 0, 2}, {wireChunkAck, 0, 0xfe}, {wireChunkAck, 1, 0x7f},
	} {
		if _, err := wire.DecodeMessage(bad); err == nil {
			t.Errorf("malformed frame % x decoded", bad)
		}
	}
}

// TestSpillMessagesBinaryRoundTrip pins the spill handshake's fixed-layout
// binary codecs (wire ids 5 and 6) independently of gob.
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

// TestHeavyMessagesBinaryRoundTrip pins the heavy-routing frames' binary
// codecs (wire ids 7 and 8) independently of gob: the heavyAssign key list
// and the heavyClone replication chunk.
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
		if len(frame) == 0 || (frame[0] != wireHeavyAssign && frame[0] != wireHeavyClone) {
			t.Fatalf("%T went through the gob fallback: % x", m, frame[:1])
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
