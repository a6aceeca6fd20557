package wire

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
)

// ckptFixtures returns one fully-populated record per checkpoint kind.
// allCkptKinds fails if a kind is added to the enum without a fixture
// here, so coverage can never silently lag the format.
func ckptFixtures() map[CkptKind]*CkptRecord {
	return map[CkptKind]*CkptRecord{
		// Version is a literal, not CkptVersion: the record layout is
		// pinned byte for byte (golden_test.go) independently of the
		// format version the header announces.
		CkptHeader: {Kind: CkptHeader, Version: 2, SessionBase: 0xABCD0000,
			CfgBlob:       []byte{9, 8, 7},
			PeerAddrs:     []string{"10.0.0.1:9001", "10.0.0.2:9002"},
			AssignIDs:     []int32{5, 6, 7},
			AssignWorkers: []int32{0, 1, 0}},
		CkptDelivery: {Kind: CkptDelivery, From: -1, To: 3, Worker: 1,
			Msg: &binMsg{A: 11, B: 22}},
		CkptInject: {Kind: CkptInject, To: 9, Root: true,
			Msg: &binMsg{A: 33, B: 44}},
		CkptMark:  {Kind: CkptMark, Worker: 1, Ack: 41, Processed: 100, Emitted: 50},
		CkptPhase: {Kind: CkptPhase, Phase: 3},
		CkptEpoch: {Kind: CkptEpoch, Worker: 2, SessEpoch: 4, PeerEpoch: 5},
		CkptDeath: {Kind: CkptDeath, Worker: 0},
	}
}

// allCkptKinds probes the encoder for the contiguous kind range, exactly
// like the frame-kind table test in tcpnet.
func allCkptKinds(t *testing.T) []CkptKind {
	t.Helper()
	fixtures := ckptFixtures()
	var kinds []CkptKind
	for k := CkptKind(1); ; k++ {
		rec := fixtures[k]
		if rec == nil {
			rec = &CkptRecord{Kind: k, Msg: &binMsg{}}
		}
		if _, err := AppendCheckpointRecord(nil, rec); err != nil {
			if !errors.Is(err, ErrUnknownKind) {
				t.Fatalf("kind %d: %v", k, err)
			}
			break
		}
		kinds = append(kinds, k)
	}
	if len(kinds) != len(fixtures) {
		t.Fatalf("encoder accepts %d checkpoint kinds but ckptFixtures covers %d: "+
			"add a fixture for the new kind", len(kinds), len(fixtures))
	}
	return kinds
}

func TestCheckpointRoundTrip(t *testing.T) {
	fixtures := ckptFixtures()
	for _, k := range allCkptKinds(t) {
		want := fixtures[k]
		data, err := AppendCheckpointRecord(nil, want)
		if err != nil {
			t.Fatalf("kind %d: encode: %v", k, err)
		}
		got, err := NewCheckpointReader(bytes.NewReader(data)).Next()
		if err != nil {
			t.Fatalf("kind %d: decode: %v", k, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("kind %d round trip:\n got %+v\nwant %+v", k, got, want)
		}
	}
}

// TestCheckpointStream: a multi-record log decodes in order and ends with
// a clean io.EOF.
func TestCheckpointStream(t *testing.T) {
	fixtures := ckptFixtures()
	var buf []byte
	order := []CkptKind{CkptHeader, CkptDelivery, CkptInject, CkptMark, CkptPhase, CkptEpoch, CkptDeath}
	for _, k := range order {
		var err error
		if buf, err = AppendCheckpointRecord(buf, fixtures[k]); err != nil {
			t.Fatal(err)
		}
	}
	recs, torn, err := ReadCheckpoint(bytes.NewReader(buf))
	if err != nil || torn {
		t.Fatalf("ReadCheckpoint: torn=%v err=%v", torn, err)
	}
	if len(recs) != len(order) {
		t.Fatalf("decoded %d records, want %d", len(recs), len(order))
	}
	for i, k := range order {
		if recs[i].Kind != k {
			t.Errorf("record %d kind %d, want %d", i, recs[i].Kind, k)
		}
	}
}

// TestCheckpointTornTail: truncating a log anywhere inside its final
// record must yield the intact prefix with torn set — never an error,
// never a garbage record.
func TestCheckpointTornTail(t *testing.T) {
	fixtures := ckptFixtures()
	var buf []byte
	var err error
	if buf, err = AppendCheckpointRecord(buf, fixtures[CkptHeader]); err != nil {
		t.Fatal(err)
	}
	prefixLen := len(buf)
	if buf, err = AppendCheckpointRecord(buf, fixtures[CkptDelivery]); err != nil {
		t.Fatal(err)
	}
	for cut := prefixLen + 1; cut < len(buf); cut++ {
		recs, torn, err := ReadCheckpoint(bytes.NewReader(buf[:cut]))
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if !torn {
			t.Fatalf("cut %d: torn tail not reported", cut)
		}
		if len(recs) != 1 || recs[0].Kind != CkptHeader {
			t.Fatalf("cut %d: got %d records, want the intact header only", cut, len(recs))
		}
	}
}

// TestCheckpointCorruption: a flipped bit in any record byte fails that
// record's CRC (or its length/kind validation) rather than decoding
// quietly wrong.
func TestCheckpointCorruption(t *testing.T) {
	data, err := AppendCheckpointRecord(nil, ckptFixtures()[CkptMark])
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		corrupted := append([]byte(nil), data...)
		corrupted[i] ^= 0x40
		rec, err := NewCheckpointReader(bytes.NewReader(corrupted)).Next()
		if err == nil && reflect.DeepEqual(rec, ckptFixtures()[CkptMark]) {
			// A flip in the length prefix can legally re-frame into a
			// stream whose first record still decodes — but never into a
			// silently different record with a valid CRC.
			continue
		}
		if err == nil {
			t.Fatalf("flip at byte %d decoded to a different record without an error: %+v", i, rec)
		}
	}
	// A headerless log is unusable even when every record is intact.
	if _, _, err := ReadCheckpoint(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty checkpoint must be rejected")
	}
	mark, _ := AppendCheckpointRecord(nil, ckptFixtures()[CkptMark])
	if _, _, err := ReadCheckpoint(bytes.NewReader(mark)); err == nil {
		t.Fatal("checkpoint without a header record must be rejected")
	}
}

// FuzzDecodeCheckpoint drives arbitrary bytes through the checkpoint
// reader: decoding must never panic, and any record that decodes must
// re-encode and decode back identically.
func FuzzDecodeCheckpoint(f *testing.F) {
	for _, rec := range ckptFixtures() {
		if data, err := AppendCheckpointRecord(nil, rec); err == nil {
			f.Add(data)
		}
	}
	// A failure handler's injection: the fixture above is a root one.
	if data, err := AppendCheckpointRecord(nil, &CkptRecord{Kind: CkptInject, To: 2,
		Msg: &binMsg{A: 1, B: 2}}); err == nil {
		f.Add(data)
	}
	f.Add([]byte{})
	f.Add([]byte{5, 0, 0, 0, 1, 2, 3, 4, 5})

	f.Fuzz(func(t *testing.T, data []byte) {
		cr := NewCheckpointReader(bytes.NewReader(data))
		for {
			rec, err := cr.Next()
			if err != nil {
				return
			}
			re, err := AppendCheckpointRecord(nil, rec)
			if err != nil {
				t.Fatalf("decoded record %+v does not re-encode: %v", rec, err)
			}
			rec2, err := NewCheckpointReader(bytes.NewReader(re)).Next()
			if err != nil {
				t.Fatalf("re-encoded record does not decode: %v", err)
			}
			if rec.Kind != rec2.Kind || rec.Worker != rec2.Worker || rec.Root != rec2.Root {
				t.Fatalf("re-decode mismatch: %+v vs %+v", rec, rec2)
			}
		}
	})
}
