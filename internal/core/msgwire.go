package core

import (
	"fmt"

	"ehjoin/internal/datagen"
	"ehjoin/internal/hashfn"
	rt "ehjoin/internal/runtime"
	"ehjoin/internal/wire"
)

// The wire formats of every protocol message, the routing table and the
// run configuration, each one field-codec function (internal/wire) that
// both encodes and decodes. Codec ids are wire protocol: identical in every
// process of a run, never reused for a different type. The layouts of ids
// 1–8 are pinned byte for byte (msgwire_golden_test.go).
func init() {
	wire.Register(1, func(c *wire.Codec, m *dataChunk) {
		wire.Chunk(c, &m.Chunk)
		wire.U32(c, &m.Origin)
		wire.Bool(c, &m.Forwarded)
		wire.U64(c, &m.Version)
	})
	wire.Register(2, func(c *wire.Codec, m *chunkAck) {
		wire.U8(c, &m.Rel)
		wire.U8(c, &m.Adjust)
		if m.Adjust < windowNarrow || m.Adjust > windowWiden {
			c.Fail(fmt.Errorf("core: chunkAck window adjustment %d outside [-1,1]: %w", m.Adjust, wire.ErrUnknownKind))
		}
	})
	wire.Register(3, func(c *wire.Codec, m *moveTuples) {
		wire.Chunk(c, &m.Chunk)
		wire.U64(c, &m.Version)
	})
	wire.Register(4, func(c *wire.Codec, m *cloneTuples) { wire.Chunk(c, &m.Chunk) })
	wire.Register(5, func(c *wire.Codec, m *spillOrder) { wire.U64(c, &m.TargetBytes) })
	wire.Register(6, func(c *wire.Codec, m *spillAck) {
		wire.U64(c, &m.Partitions)
		wire.U64(c, &m.Bytes)
	})
	// The heavy-key set, sorted ascending, with no count: the frame is
	// table-free by design (receivers derive each key's group from their own
	// routing table), so the layout is just the key list.
	wire.Register(7, func(c *wire.Codec, m *heavyAssign) { wire.Rest(c, &m.Keys, 8, wire.U64) })
	wire.Register(8, func(c *wire.Codec, m *heavyClone) { wire.Chunk(c, &m.Chunk) })

	wire.Register(9, func(c *wire.Codec, m *startBuild) { wire.Opt(c, &m.Table, tableFields) })
	wire.Register(10, func(*wire.Codec, *genStep) {})
	wire.Register(11, func(c *wire.Codec, m *sourcePhaseDone) {
		wire.U8(c, &m.Rel)
		wire.U64(c, &m.Chunks)
	})
	wire.Register(12, func(c *wire.Codec, m *memFull) { wire.U64(c, &m.Bytes) })
	wire.Register(13, func(*wire.Codec, *memFullNack) {})
	wire.Register(14, func(c *wire.Codec, m *joinInit) {
		rangeFields(c, &m.Range)
		wire.Opt(c, &m.Table, tableFields)
		wire.Bool(c, &m.AwaitClone)
	})
	wire.Register(15, func(c *wire.Codec, m *splitOrder) {
		rangeFields(c, &m.Lower)
		rangeFields(c, &m.Upper)
		wire.U32(c, &m.NewNode)
		wire.Opt(c, &m.Table, tableFields)
	})
	wire.Register(16, func(c *wire.Codec, m *splitDone) { wire.U64(c, &m.MovedTuples) })
	wire.Register(17, func(c *wire.Codec, m *retire) {
		wire.U32(c, &m.ForwardTo)
		wire.Opt(c, &m.Table, tableFields)
	})
	wire.Register(18, func(c *wire.Codec, m *routeUpdate) { wire.Opt(c, &m.Table, tableFields) })
	wire.Register(19, func(c *wire.Codec, m *cloneTable) { wire.U32(c, &m.To) })
	wire.Register(20, func(c *wire.Codec, m *cloneEnd) { wire.U64(c, &m.TotalTuples) })
	wire.Register(21, func(*wire.Codec, *doReshuffle) {})
	wire.Register(22, func(c *wire.Codec, m *countReq) { rangeFields(c, &m.Range) })
	wire.Register(23, func(c *wire.Codec, m *countResp) {
		rangeFields(c, &m.Range)
		wire.Slice(c, &m.Counts, 8, wire.U64)
	})
	wire.Register(24, func(c *wire.Codec, m *reshuffleAssign) {
		rangeFields(c, &m.Keep)
		wire.Slice(c, &m.GroupEntries, 20, entryFields)
		wire.Opt(c, &m.Table, tableFields)
	})
	wire.Register(25, func(c *wire.Codec, m *startProbe) { wire.Opt(c, &m.Table, tableFields) })
	wire.Register(26, func(*wire.Codec, *finishOOC) {})
	wire.Register(27, func(c *wire.Codec, m *setForward) {
		wire.Opt(c, &m.NextTable, tableFields)
		wire.U64(c, &m.NextSeed)
		wire.U64(c, &m.Layout.PayloadBytes)
	})
	wire.Register(28, func(c *wire.Codec, m *nodeDead) { wire.U32(c, &m.Node) })
	wire.Register(29, func(c *wire.Codec, m *purgeRange) {
		rangeFields(c, &m.Range)
		wire.U32(c, &m.NewOwner)
		wire.Opt(c, &m.Table, tableFields)
	})
	wire.Register(30, func(c *wire.Codec, m *replayRange) {
		rangeFields(c, &m.Range)
		wire.Opt(c, &m.Table, tableFields)
	})
	wire.Register(31, func(c *wire.Codec, m *replayDone) {
		wire.U64(c, &m.Chunks)
		wire.U64(c, &m.Tuples)
	})
	wire.Register(32, func(*wire.Codec, *detectHeavy) {})
	wire.Register(33, func(c *wire.Codec, m *keyCountReq) { wire.Slice(c, &m.Positions, 4, wire.U32) })
	wire.Register(34, func(c *wire.Codec, m *keyCountResp) {
		wire.Slice(c, &m.Keys, 8, wire.U64)
		wire.Slice(c, &m.Counts, 8, wire.U64)
		wire.Slice(c, &m.SpilledParts, 4, wire.U32)
	})
	wire.Register(35, func(*wire.Codec, *collectStats) {})
	wire.Register(36, func(*wire.Codec, *statsReq) {})
	wire.Register(37, func(c *wire.Codec, m *joinStats) {
		wire.Bool(c, &m.Active)
		wire.U64(c, &m.Stored)
		wire.U64(c, &m.MovedOut)
		wire.U64(c, &m.ReshuffleOut)
		wire.U64(c, &m.SplitOpNs)
		wire.U64(c, &m.FwdChunks)
		wire.U64(c, &m.StrayBuild)
		wire.U64(c, &m.ProbeTuples)
		wire.U64(c, &m.Matches)
		wire.U64(c, &m.Checksum)
		wire.U64(c, &m.Forwarded)
		wire.U64(c, &m.ForwardedCopies)
		wire.U64(c, &m.OutputBytes)
		wire.Bool(c, &m.NoMoreNodes)
		wire.U64(c, &m.SpillWrittenBytes)
		wire.U64(c, &m.SpillReadBytes)
		wire.U64(c, &m.BNLPasses)
		wire.U64(c, &m.SpilledPartitions)
		wire.U64(c, &m.SpillBytes)
		wire.U64(c, &m.Purged)
		wire.U64(c, &m.DroppedStale)
		wire.U64(c, &m.HeavyCopies)
		wire.U64(c, &m.HeavyProbeTuples)
		wire.U64(c, &m.WidestWindow)
	})
	wire.Register(38, func(c *wire.Codec, m *sourceStats) {
		wire.U64(c, &m.ChunksSent)
		wire.U64(c, &m.ProbeExtraCopies)
		wire.U64(c, &m.CreditStalls)
	})
}

func rangeFields(c *wire.Codec, r *hashfn.Range) {
	wire.U64(c, &r.Lo)
	wire.U64(c, &r.Hi)
}

func entryFields(c *wire.Codec, e *hashfn.Entry) {
	rangeFields(c, &e.Range)
	wire.Slice(c, &e.Owners, 4, wire.U32)
}

func barrierFields(c *wire.Codec, b *hashfn.Barrier) {
	rangeFields(c, &b.Range)
	wire.U64(c, &b.MinVersion)
}

// tableFields codes a routing table's exported state; its position index is
// private to each copy and rebuilt on first lookup.
func tableFields(c *wire.Codec, t *hashfn.Table) {
	wire.U64(c, &t.Version)
	wire.Slice(c, &t.Entries, 20, entryFields)
	wire.Slice(c, &t.Dead, 4, wire.U32)
	wire.Slice(c, &t.Barriers, 24, barrierFields)
}

func specFields(c *wire.Codec, s *datagen.Spec) {
	wire.U8(c, &s.Dist)
	wire.F64(c, &s.Mean)
	wire.F64(c, &s.Sigma)
	wire.F64(c, &s.ZipfS)
	wire.U64(c, &s.Tuples)
	wire.U64(c, &s.Seed)
	wire.U64(c, &s.Layout.PayloadBytes)
}

func costFields(c *wire.Codec, m *rt.CostModel) {
	wire.F64(c, &m.NetBandwidthBps)
	wire.U64(c, &m.NetLatencyNs)
	wire.U64(c, &m.MsgOverheadBytes)
	wire.U64(c, &m.GenNs)
	wire.U64(c, &m.BuildNs)
	wire.U64(c, &m.ProbeNs)
	wire.U64(c, &m.MatchNs)
	wire.U64(c, &m.MoveNs)
	wire.U64(c, &m.ChunkOverheadNs)
	wire.F64(c, &m.DiskWriteBps)
	wire.F64(c, &m.DiskReadBps)
	wire.U64(c, &m.DiskSeekNs)
	wire.Bool(c, &m.BlockingMigration)
}

// configFields is the EncodeConfig blob: the frame a coordinator ships to
// every worker and freezes into its checkpoint header.
func configFields(c *wire.Codec, cfg *Config) {
	wire.U8(c, &cfg.Algorithm)
	wire.U64(c, &cfg.InitialNodes)
	wire.U64(c, &cfg.MaxNodes)
	wire.U64(c, &cfg.Sources)
	wire.U64(c, &cfg.MemoryBudget)
	wire.Slice(c, &cfg.NodeBudgets, 8, wire.U64)
	wire.U64(c, &cfg.Space.Bits)
	wire.U64(c, &cfg.ChunkTuples)
	specFields(c, &cfg.Build)
	specFields(c, &cfg.Probe)
	wire.F64(c, &cfg.MatchFraction)
	costFields(c, &cfg.Cost)
	wire.U64(c, &cfg.MaxCreditWindow)
	wire.U8(c, &cfg.OOCPolicy)
	wire.U64(c, &cfg.Cores)
	wire.Bool(c, &cfg.SpillEnabled)
	wire.F64(c, &cfg.HeavyThreshold)
	wire.Bool(c, &cfg.MaterializeOutput)
	wire.U32(c, &cfg.BaseID)
}

func stageFields(c *wire.Codec, s *StageRelation) {
	specFields(c, &s.Spec)
	wire.F64(c, &s.MatchFraction)
}

// multiConfigFields is the EncodeMultiConfig blob.
func multiConfigFields(c *wire.Codec, mc *MultiConfig) {
	wire.U8(c, &mc.Algorithm)
	wire.U64(c, &mc.InitialNodes)
	wire.U64(c, &mc.MaxNodes)
	wire.U64(c, &mc.Sources)
	wire.U64(c, &mc.MemoryBudget)
	wire.U64(c, &mc.ChunkTuples)
	costFields(c, &mc.Cost)
	wire.Slice(c, &mc.Relations, 57, stageFields)
}
