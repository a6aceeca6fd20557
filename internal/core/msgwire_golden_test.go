package core

import (
	"encoding/hex"
	"testing"

	"ehjoin/internal/datagen"
	rt "ehjoin/internal/runtime"
	"ehjoin/internal/spill"
	"ehjoin/internal/tuple"
	"ehjoin/internal/wire"
)

// TestMessageBytesPinned pins the wire bytes of the chunk-bearing and spill
// and heavy-routing messages, codec id byte included. Every process of a
// run and every checkpoint log must agree on them: a codec change may move
// code, never a byte of these messages.
func TestMessageBytesPinned(t *testing.T) {
	chunk := &tuple.Chunk{Rel: tuple.RelS, Layout: tuple.Layout{PayloadBytes: 84},
		Tuples: []tuple.Tuple{{Index: 1, Key: 0xA1A2A3A4A5A6A7A8}, {Index: 0x0102030405060708, Key: 2}}}
	for _, tc := range []struct {
		msg  rt.Message
		want string
	}{
		{&dataChunk{Chunk: chunk, Origin: 3, Forwarded: true, Version: 0x1122334455667788}, "010154000000020000000100000000000000a8a7a6a5a4a3a2a10807060504030201020000000000000003000000018877665544332211"},
		{&chunkAck{Rel: tuple.RelS, Adjust: windowNarrow}, "0201ff"},
		{&moveTuples{Chunk: chunk, Version: 9}, "030154000000020000000100000000000000a8a7a6a5a4a3a2a1080706050403020102000000000000000900000000000000"},
		{&cloneTuples{Chunk: chunk}, "040154000000020000000100000000000000a8a7a6a5a4a3a2a108070605040302010200000000000000"},
		{&spillOrder{TargetBytes: 1 << 40}, "050000000000010000"},
		{&spillAck{Partitions: 7, Bytes: -2}, "060700000000000000feffffffffffffff"},
		{&heavyAssign{Keys: []uint64{5, 1 << 63}}, "0705000000000000000000000000000080"},
		{&heavyClone{Chunk: chunk}, "080154000000020000000100000000000000a8a7a6a5a4a3a2a108070605040302010200000000000000"},
	} {
		data, err := wire.AppendMessage(nil, tc.msg)
		if err != nil {
			t.Fatalf("%T: %v", tc.msg, err)
		}
		if got := hex.EncodeToString(data); got != tc.want {
			t.Errorf("%T bytes moved:\n got %s\nwant %s", tc.msg, got, tc.want)
		}
	}
}

// configPinFixture sets every Config field the blob carries to a value
// distinct from its default (all but MaterializeOutput, which SpillEnabled
// excludes), so a field that moves, widens or goes missing moves a byte of
// TestConfigBytesPinned.
func configPinFixture() Config {
	cfg := testConfig(Split)
	cfg.NodeBudgets = []int64{1 << 20, 0, 3 << 20}
	cfg.Space.Bits = 12
	cfg.Build.Dist, cfg.Build.ZipfS = datagen.Zipf, 1.25
	cfg.Probe.Dist = datagen.Correlated
	cfg.Probe.Layout = tuple.LayoutForTupleSize(200)
	cfg.Cost = rt.OSUMed()
	cfg.Cost.BlockingMigration = true
	cfg.MaxCreditWindow = 32
	cfg.OOCPolicy = spill.HybridHash
	cfg.Cores = 1
	cfg.SpillEnabled = true
	cfg.HeavyThreshold = 0.125
	cfg.BaseID = 40
	return cfg
}

// TestConfigBytesPinned pins the config and multi-config blobs a
// coordinator ships to its workers and freezes into its checkpoint header
// (whose CkptVersion must move with any change to these bytes).
func TestConfigBytesPinned(t *testing.T) {
	mc := MultiConfig{
		Algorithm: Hybrid, InitialNodes: 2, MaxNodes: 6, Sources: 3,
		MemoryBudget: 8 << 20, ChunkTuples: 500, Cost: rt.OSUMed(),
		Relations: []StageRelation{
			{Spec: datagen.Spec{Dist: datagen.Uniform, Tuples: 1000, Seed: 10}},
			{Spec: datagen.Spec{Dist: datagen.Gaussian, Mean: 0.5, Sigma: 0.01, Tuples: 2000, Seed: 11}, MatchFraction: 0.9},
		},
	}
	cfgBlob, err := EncodeConfig(configPinFixture())
	if err != nil {
		t.Fatal(err)
	}
	mcBlob, err := EncodeMultiConfig(mc)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		what string
		blob []byte
		want string
	}{
		{"EncodeConfig", cfgBlob, "0102000000000000000c0000000000000004000000000000000060090000000000030000000000100000000000000000000000000000003000000000000c00000000000000e8030000000000000200000000000000000000000000000000000000000000f43f50c3000000000000650000000000000054000000000000000300000000000000000000000000000000000000000000000050c3000000000000ca00000000000000b800000000000000000000000000e03f0000000084d76741a0860100000000003c000000000000002c010000000000008403000000000000bc02000000000000fa00000000000000fa0000000000000050c30000000000000000000084d777410000000076b0804100127a000000000001200000000000000001010000000000000001000000000000c03f0028000000"},
		{"EncodeMultiConfig", mcBlob, "030200000000000000060000000000000003000000000000000000800000000000f4010000000000000000000084d76741a0860100000000003c000000000000002c010000000000008403000000000000bc02000000000000fa00000000000000fa0000000000000050c30000000000000000000084d777410000000076b0804100127a0000000000000200000000000000000000000000000000000000000000000000000000e8030000000000000a000000000000000000000000000000000000000000000001000000000000e03f7b14ae47e17a843f0000000000000000d0070000000000000b000000000000000000000000000000cdccccccccccec3f"},
	} {
		if got := hex.EncodeToString(tc.blob); got != tc.want {
			t.Errorf("%s bytes moved:\n got %s\nwant %s", tc.what, got, tc.want)
		}
	}
}
