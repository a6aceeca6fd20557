package core

import (
	"fmt"

	"ehjoin/internal/metrics"
	rt "ehjoin/internal/runtime"
	"ehjoin/internal/sim"
)

// Run executes the configured join on the cluster simulator and returns the
// measured report. This is the primary entry point for experiments.
func Run(cfg Config) (*Report, error) {
	n, err := cfg.normalized()
	if err != nil {
		return nil, err
	}
	return Execute(n, sim.New(n.Cost))
}

// Execute runs the configured join on an arbitrary engine (simulator or
// TCP transport). The engine must be freshly
// constructed; Execute registers all actors and drives the phase schedule
// (schedule.go) from its first step.
func Execute(cfg Config, eng rt.Engine) (*Report, error) {
	st, err := singleStage(cfg)
	if err != nil {
		return nil, err
	}
	st.register(eng)
	return st.run(eng)
}

// assembleReport folds the scheduler's collected per-node statistics into a
// Report and verifies the conservation invariants.
func assembleReport(cfg Config, eng rt.Engine, sched *schedActor,
	buildEnd, reshuffleEnd, end float64) (*Report, error) {

	r := &Report{
		Algorithm:        cfg.Algorithm,
		InitialNodes:     cfg.InitialNodes,
		BuildSec:         buildEnd,
		ReshuffleSec:     reshuffleEnd - buildEnd,
		ProbeSec:         end - reshuffleEnd,
		TotalSec:         end,
		Splits:           sched.splits,
		Replications:     sched.replications,
		ProbeExpansions:  sched.probeExpansions,
		NodesLost:        sched.nodesLost,
		NodesRecovered:   sched.nodesRecovered,
		RecoverySec:      float64(sched.recoveryNs) / 1e9,
		RestreamedChunks: sched.restreamedChunks,
		RestreamedTuples: sched.restreamedTuples,
		Degraded:         sched.degraded || sched.recoveryFailed,
		HeavyKeys:        int64(len(sched.heavyKeys)),
		Events:           sched.events,

		DegradedProbeRecoveries: sched.degradedProbeRecoveries,
	}

	wantJoin := cfg.MaxNodes - len(sched.deadNodes)
	if len(sched.joinStats) != wantJoin || len(sched.sourceStats) != cfg.Sources {
		return nil, fmt.Errorf("core: stats collection incomplete: %d/%d join nodes, %d/%d sources",
			len(sched.joinStats), wantJoin, len(sched.sourceStats), cfg.Sources)
	}

	util, hasUtil := eng.(interface {
		NodeCPUSeconds(rt.NodeID) float64
		NodeDiskSeconds(rt.NodeID) float64
	})

	var stored, probeProcessed, probeExtraTuples int64
	for i := 0; i < cfg.MaxNodes; i++ {
		if sched.deadNodes[cfg.joinID(i)] {
			continue // its state died with it; survivors carry the range
		}
		j := sched.joinStats[cfg.joinID(i)]
		if !j.Active {
			if j.Stored != 0 {
				return nil, fmt.Errorf("core: inactive node %d holds %d tuples", cfg.joinID(i), j.Stored)
			}
			continue
		}
		r.FinalNodes++
		stored += j.Stored
		r.NodeLoads = append(r.NodeLoads, j.Stored)
		r.NodeProbeLoads = append(r.NodeProbeLoads, j.ProbeTuples)
		r.HeavyCopies += j.HeavyCopies
		r.HeavyProbeTuples += j.HeavyProbeTuples
		if hasUtil {
			r.NodeCPUSecs = append(r.NodeCPUSecs, util.NodeCPUSeconds(cfg.joinID(i)))
			r.NodeDiskSecs = append(r.NodeDiskSecs, util.NodeDiskSeconds(cfg.joinID(i)))
		}
		r.SplitMovedTuples += j.MovedOut
		r.ReshuffleTuples += j.ReshuffleOut
		r.SplitOpSec += float64(j.SplitOpNs) / 1e9
		r.ForwardedChunks += j.FwdChunks
		r.StrayBuildTuples += j.StrayBuild
		r.Matches += j.Matches
		r.Checksum ^= j.Checksum
		probeProcessed += j.ProbeTuples
		r.ExhaustedResources = r.ExhaustedResources || j.NoMoreNodes
		r.SpillWrittenBytes += j.SpillWrittenBytes
		r.SpillReadBytes += j.SpillReadBytes
		r.BNLPasses += j.BNLPasses
		r.SpilledPartitions += j.SpilledPartitions
		r.SpillBytes += j.SpillBytes
		r.OutputBytes += j.OutputBytes
		r.PurgedTuples += j.Purged
		r.DroppedStaleTuples += j.DroppedStale
		if j.WidestWindow > r.WidestWindow {
			r.WidestWindow = j.WidestWindow
		}
	}
	for _, s := range sched.sourceStats {
		probeExtraTuples += s.ProbeExtraCopies
		r.CreditStalls += s.CreditStalls
	}

	// Conservation invariants: every generated build tuple is stored on
	// exactly one node; every probe tuple (plus broadcast copies) was
	// processed exactly once. Exact failure recovery preserves both; a
	// degraded run (unrecoverable death) legitimately violates them, which
	// is exactly why it is flagged.
	if !r.Degraded {
		if stored != cfg.Build.Tuples {
			return nil, fmt.Errorf("core: conservation violated: stored %d of %d build tuples",
				stored, cfg.Build.Tuples)
		}
		if want := cfg.Probe.Tuples + probeExtraTuples; probeProcessed != want {
			return nil, fmt.Errorf("core: probe conservation violated: processed %d, want %d",
				probeProcessed, want)
		}
	}

	r.ProbeTuplesProcessed = probeProcessed
	r.ExtraBuildChunks = metrics.Chunks(r.SplitMovedTuples+r.ReshuffleTuples, cfg.ChunkTuples) +
		float64(r.ForwardedChunks)
	r.ProbeExtraChunks = metrics.Chunks(probeExtraTuples, cfg.ChunkTuples)
	r.finalizeLoads(cfg.ChunkTuples)

	if st, ok := eng.(interface{ Stats() sim.Stats }); ok {
		r.WireBytes = st.Stats().BytesOnWire
		r.Messages = st.Stats().Messages
	}
	if ts, ok := eng.(interface{ TransportStats() rt.TransportStats }); ok {
		s := ts.TransportStats()
		r.Resumes = s.Resumes
		r.RetransmittedFrames = s.RetransmittedFrames
		r.ChecksumFailures = s.ChecksumFailures
		r.DuplicateFrames = s.DuplicateFrames
		r.SessionFrames = s.FramesSent
		r.CoordRestarts = s.CoordRestarts
		r.CheckpointReplays = s.CheckpointReplays
		r.ReattachedWorkers = s.ReattachedWorkers
	}
	// RecoveryRung records the most expensive recovery path the run took:
	// the session layer's ack-based resume is rung 1, the scheduler's
	// purge + re-stream is rung 2, and degradation (a loss the probe
	// phase could only work around) is rung 3.
	switch {
	case r.Degraded:
		r.RecoveryRung = 3
	case r.NodesLost > 0 || r.RestreamedChunks > 0:
		r.RecoveryRung = 2
	case r.Resumes > 0:
		r.RecoveryRung = 1
	}
	// DegradationRung records the deepest rung of the expansion ladder the
	// run engaged: probe-phase expansion (1), build-phase splits or
	// replications (2), failure recovery by re-streaming (3), or spilling
	// partitions to local disk (4).
	switch {
	case r.SpilledPartitions > 0:
		r.DegradationRung = 4
	case r.RecoveryRung > 0:
		r.DegradationRung = 3
	case r.Splits > 0 || r.Replications > 0:
		r.DegradationRung = 2
	case r.ProbeExpansions > 0:
		r.DegradationRung = 1
	}
	return r, nil
}
