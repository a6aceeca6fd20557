package core

import (
	"fmt"

	"ehjoin/internal/hashfn"
	"ehjoin/internal/metrics"
	rt "ehjoin/internal/runtime"
)

// ExpansionEvent is one entry of the scheduler's expansion-protocol log,
// in arrival order: each overflow report and the action it triggered.
type ExpansionEvent struct {
	Kind  string       // "memfull", "split", "replicate", "probe-expand", "reshuffle", "recover", "spill"
	Node  rt.NodeID    // reporting / victim node
	Peer  rt.NodeID    // recruited or new-owner node, if any
	Range hashfn.Range // affected routing range (zero for memfull)
	Bytes int64        // reported bytes (memfull only)
}

// Report is the outcome of one join execution: the result fingerprint plus
// every measurement the paper's figures plot.
type Report struct {
	Algorithm    Algorithm
	InitialNodes int
	// FinalNodes counts every join node that participated (working plus
	// full), i.e. the paper's expanded node set.
	FinalNodes int

	// Phase timings in engine seconds (virtual on the simulator).
	BuildSec     float64
	ReshuffleSec float64
	ProbeSec     float64
	TotalSec     float64

	// Expansion activity.
	Splits       int64
	Replications int64
	// ProbeExpansions counts probe-phase recruitments (§4 footnote 1,
	// MaterializeOutput runs only).
	ProbeExpansions int64
	// OutputBytes is the total materialised join output held in memory
	// across nodes at the end of a MaterializeOutput run.
	OutputBytes int64
	// SplitOpSec is the cumulative time attributable to split operations
	// (extraction, migration wire time, re-insertion), the paper's
	// Figure 5 "split time".
	SplitOpSec float64
	// ExhaustedResources is set when the environment ran out of potential
	// nodes and an algorithm had to proceed over budget.
	ExhaustedResources bool

	// Communication accounting.
	SplitMovedTuples int64 // tuples migrated by bucket splits
	ReshuffleTuples  int64 // tuples redistributed by the reshuffling step
	ForwardedChunks  int64 // pending buffers and stray sub-chunks re-sent
	// ExtraBuildChunks is the paper's Figures 4/11 metric: communication
	// beyond the direct source-to-node streaming during the table-building
	// phase (and, for the hybrid algorithm, reshuffling), in chunk units.
	ExtraBuildChunks float64
	// ProbeExtraChunks is the probe-phase duplication the
	// replication-based algorithm pays: probe tuples broadcast beyond
	// their first copy, in chunk units.
	ProbeExtraChunks float64
	StrayBuildTuples int64

	// Join result fingerprint.
	Matches  uint64
	Checksum uint64

	// Per-node build-relation tuples held at probe time, and the derived
	// load-balance figures in chunks (Figures 12-13).
	NodeLoads     []int64
	LoadAvgChunks float64
	LoadMaxChunks float64
	LoadMinChunks float64

	// Heavy-hitter routing activity (HeavyThreshold > 0 runs; DESIGN.md
	// §11). HeavyKeys counts the keys the detection round promoted to
	// replicate-build / partition-probe routing; HeavyCopies the build
	// tuples replicated to group peers for them; HeavyProbeTuples the probe
	// tuples that reached a node through the partitioned path instead of a
	// broadcast or a single-owner hop.
	HeavyKeys        int64
	HeavyCopies      int64
	HeavyProbeTuples int64
	// NodeProbeLoads is each participating node's processed probe-tuple
	// count, parallel to NodeLoads — the per-node probe pressure whose
	// max/mean ratio heavy routing flattens under skew.
	NodeProbeLoads []int64

	// Out-of-core activity.
	SpillWrittenBytes int64
	SpillReadBytes    int64
	BNLPasses         int64

	// Spill-rung activity (SpillEnabled runs only): partitions the
	// expanding algorithms evicted to local disk as the degradation
	// ladder's fourth rung, and the build+probe bytes written for them.
	SpilledPartitions int64
	SpillBytes        int64
	// DegradationRung is the deepest degradation rung the run engaged:
	// 0 none, 1 probe-phase expansion, 2 build-phase split/replication,
	// 3 failure recovery by re-streaming, 4 spill to local disk.
	DegradationRung int

	// Failure-recovery activity (fault-injected or real failures).
	NodesLost      int64 // join nodes declared dead during the run
	NodesRecovered int64 // deaths recovered exactly by re-streaming
	// RecoverySec is the cumulative time from each death's declaration until
	// every source finished re-generating the lost ranges.
	RecoverySec      float64
	RestreamedChunks int64 // chunks re-sent by source replays
	RestreamedTuples int64 // tuples re-sent by source replays
	PurgedTuples     int64 // tuples discarded from surviving replicas
	// DroppedStaleTuples counts in-flight copies discarded at re-stream
	// barriers to preserve the stored-exactly-once invariant.
	DroppedStaleTuples int64
	// Degraded is set when a death could not be recovered exactly (probe or
	// reshuffle phase, out-of-core baseline, or resource exhaustion); the
	// result may be incomplete and conservation checks are skipped.
	Degraded bool

	// Session-layer transport activity (TCP engine only; zero elsewhere).
	// Resumes counts ack-based session resumes: connections that broke and
	// continued with only unacked frames retransmitted, no state lost.
	Resumes             int64
	RetransmittedFrames int64 // frames replayed on resume, both directions
	ChecksumFailures    int64 // frames rejected by CRC32C verification
	DuplicateFrames     int64 // frames dropped by sequence-number dedup
	SessionFrames       int64 // unique reliable frames carried, both directions
	// RecoveryRung is the most expensive recovery rung the run engaged:
	// 0 none, 1 ack-based resume, 2 purge + re-stream, 3 degraded
	// (replica loss the probe phase worked around).
	RecoveryRung int
	// DegradedProbeRecoveries counts probe-phase deaths handled by the
	// degrade-onto-replicas path: losses the run could only work around,
	// not recover exactly.
	DegradedProbeRecoveries int64

	// Coordinator crash recovery (TCP engine with checkpointing only).
	// CoordRestarts counts coordinator restorations from the write-ahead
	// checkpoint, CheckpointReplays the records replayed across them, and
	// ReattachedWorkers the workers that re-attached to a restored
	// coordinator with their session intact.
	CoordRestarts     int64
	CheckpointReplays int64
	ReattachedWorkers int64

	// Flow control (DESIGN.md §15). CreditStalls counts the generation steps
	// on which a data source parked because a destination's send window was
	// exhausted; WidestWindow is the largest window, in chunks, any join node
	// advertised to a source (the base window of 4 on a fixed-window run).
	CreditStalls int64
	WidestWindow int64

	// Events is the scheduler's expansion-protocol log, in arrival order.
	Events []ExpansionEvent

	// Transport totals (simulator only; zero on live engines).
	WireBytes int64
	Messages  int64

	// Per-node utilisation, parallel to NodeLoads (simulator only): how
	// much virtual time each participating join node spent computing and
	// on its local disk.
	NodeCPUSecs  []float64
	NodeDiskSecs []float64

	ProbeTuplesProcessed int64
}

// String renders a compact single-run summary.
func (r *Report) String() string {
	s := fmt.Sprintf(
		"%s: total %.2fs (build %.2fs, reshuffle %.2fs, probe %.2fs) nodes %d->%d "+
			"splits %d repl %d extra-build %.1f chunks probe-extra %.1f chunks "+
			"matches %d load avg/max/min %.1f/%.1f/%.1f chunks",
		r.Algorithm, r.TotalSec, r.BuildSec, r.ReshuffleSec, r.ProbeSec,
		r.InitialNodes, r.FinalNodes, r.Splits, r.Replications,
		r.ExtraBuildChunks, r.ProbeExtraChunks, r.Matches,
		r.LoadAvgChunks, r.LoadMaxChunks, r.LoadMinChunks)
	if r.ProbeExpansions > 0 {
		s += fmt.Sprintf(" probe-expansions %d (output %d MB)",
			r.ProbeExpansions, r.OutputBytes>>20)
	}
	if r.ExhaustedResources {
		s += " EXHAUSTED"
	}
	if r.SpilledPartitions > 0 {
		s += fmt.Sprintf(" spilled %d partitions (%d KB)",
			r.SpilledPartitions, r.SpillBytes>>10)
	}
	if r.HeavyKeys > 0 {
		s += fmt.Sprintf(" heavy %d keys (%d replicated, %d probes partitioned, probe max/mean %.2f)",
			r.HeavyKeys, r.HeavyCopies, r.HeavyProbeTuples, metrics.MaxMeanRatio(r.NodeProbeLoads))
	}
	if r.DegradationRung > 0 {
		s += fmt.Sprintf(" degradation rung %d", r.DegradationRung)
	}
	if r.NodesLost > 0 {
		s += fmt.Sprintf(" lost %d recovered %d recovery %.3fs re-streamed %d chunks (%d tuples)",
			r.NodesLost, r.NodesRecovered, r.RecoverySec, r.RestreamedChunks, r.RestreamedTuples)
		if r.DegradedProbeRecoveries > 0 {
			s += fmt.Sprintf(" probe-degraded %d", r.DegradedProbeRecoveries)
		}
		if r.Degraded {
			s += " DEGRADED"
		}
	}
	if r.CoordRestarts > 0 {
		s += fmt.Sprintf(" coord-restarts %d (replayed %d records, re-attached %d workers)",
			r.CoordRestarts, r.CheckpointReplays, r.ReattachedWorkers)
	}
	if r.RecoveryRung > 0 || r.Resumes > 0 || r.ChecksumFailures > 0 || r.DuplicateFrames > 0 {
		s += fmt.Sprintf(" rung %d resumes %d retransmitted %d/%d frames crc-fail %d dups %d",
			r.RecoveryRung, r.Resumes, r.RetransmittedFrames, r.SessionFrames,
			r.ChecksumFailures, r.DuplicateFrames)
	}
	return s
}

// finalizeLoads computes the load-balance summary from NodeLoads.
func (r *Report) finalizeLoads(chunkTuples int) {
	r.LoadAvgChunks, r.LoadMaxChunks, r.LoadMinChunks = metrics.Balance(r.NodeLoads, chunkTuples)
}
