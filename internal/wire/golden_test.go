package wire

import (
	"encoding/hex"
	"testing"
)

// ckptGolden pins AppendCheckpointRecord's output for every ckptFixtures
// record, byte for byte. A restored coordinator replays logs written by
// the process that died: a codec change may move code, never a byte of a
// record. A layout change bumps CkptVersion (5 dropped the header's
// topology byte; 6 gave kind 3 to CkptInject, so the relay record's golden
// went with the relay itself: no coordinator writes or replays one).
var ckptGolden = map[CkptKind]string{
	CkptHeader:   "560000005e9dd33f01020000000000cdab0000000003000000090807020000000d0031302e302e302e313a393030310d0031302e302e302e323a3930303203000000050000000000000006000000010000000700000000000000",
	CkptDelivery: "26000000b3cc8e1402ffffffff03000000010000000000000000000000c80b0000000000000016000000",
	CkptInject:   "17000000f582ec95030900000001c821000000000000002c000000",
	CkptMark:     "29000000cace0a7d04010000000000000000000000290000000000000064000000000000003200000000000000",
	CkptPhase:    "09000000102e04ff0503000000",
	CkptEpoch:    "11000000fc852efb06020000000400000005000000",
	CkptDeath:    "09000000717804ed0700000000",
}

func TestCheckpointRecordBytesPinned(t *testing.T) {
	fixtures := ckptFixtures()
	for _, k := range allCkptKinds(t) {
		data, err := AppendCheckpointRecord(nil, fixtures[k])
		if err != nil {
			t.Fatalf("kind %d: %v", k, err)
		}
		if got := hex.EncodeToString(data); got != ckptGolden[k] {
			t.Errorf("kind %d record bytes moved:\n got %s\nwant %s", k, got, ckptGolden[k])
		}
	}
	if len(ckptGolden) != len(fixtures) {
		t.Errorf("%d pinned records for %d fixtures", len(ckptGolden), len(fixtures))
	}
}
