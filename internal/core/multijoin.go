package core

import (
	"fmt"

	"ehjoin/internal/datagen"
	rt "ehjoin/internal/runtime"
	"ehjoin/internal/sim"
	"ehjoin/internal/tuple"
)

// Multi-way joins are the paper's closing future-work item (§6): "In a
// multi-way join operation, performance can be improved if results from
// joins at intermediate levels are maintained in memory." This file
// implements that design as a left-deep pipeline of expanding hash joins:
//
//	R1 ⋈ R2 ⋈ R3 ⋈ ... ⋈ Rk
//
// Stage s (s = 1..k-1) is a complete EHJA instance — its own scheduler,
// sources, and join nodes — that builds its hash table from R_{s+1},
// expanding onto additional nodes exactly as in the single-join case. All
// stages build concurrently. In the probe phase, R1 streams into stage 1;
// every match produces an intermediate tuple, keyed by the matched build
// tuple's next-level join attribute, that is forwarded directly to the
// owning node(s) of stage 2 — intermediate results never leave memory and
// are never re-partitioned through the sources. The final stage emits the
// k-way result.

// StageRelation describes one relation of the join chain.
type StageRelation struct {
	// Spec describes the relation's cardinality, distribution, layout, and
	// seed.
	Spec datagen.Spec
	// MatchFraction is the fraction of this relation's tuples whose join
	// attribute references the previous relation in the chain (ignored for
	// the first relation).
	MatchFraction float64
}

// MultiConfig describes a multi-way join execution. All stages share the
// environment parameters; Relations lists R1..Rk in join order (k >= 2).
type MultiConfig struct {
	// Algorithm is the expansion strategy every stage uses. The
	// out-of-core baseline is not supported in pipelines (its final local
	// phase cannot stream matches onward).
	Algorithm    Algorithm
	InitialNodes int
	MaxNodes     int
	Sources      int
	MemoryBudget int64
	ChunkTuples  int
	Cost         rt.CostModel
	Relations    []StageRelation
}

// StageReport summarises one pipeline stage.
type StageReport struct {
	Algorithm    Algorithm
	InitialNodes int
	FinalNodes   int
	Splits       int64
	Replications int64
	// StoredTuples is the stage's build-relation cardinality as held in
	// memory across its nodes.
	StoredTuples int64
	// ProbeTuples is the number of (intermediate) probe tuples the stage
	// processed; Forwarded is how many matches it passed on (for the last
	// stage this is zero — its matches are the final result).
	ProbeTuples int64
	Forwarded   int64
}

// MultiReport is the outcome of a multi-way join.
type MultiReport struct {
	Stages   []StageReport
	Matches  uint64
	Checksum uint64

	BuildSec     float64
	ReshuffleSec float64
	ProbeSec     float64
	TotalSec     float64

	WireBytes int64
	Messages  int64
}

// String renders a compact summary.
func (r *MultiReport) String() string {
	return fmt.Sprintf("%d-way pipeline: %d matches (checksum %#x) in %.2fs (build %.2fs, reshuffle %.2fs, probe %.2fs)",
		len(r.Stages)+1, r.Matches, r.Checksum, r.TotalSec, r.BuildSec, r.ReshuffleSec, r.ProbeSec)
}

// stageConfigs expands a MultiConfig into one Config per stage, with
// disjoint node-id ranges.
func (mc MultiConfig) stageConfigs() ([]Config, error) {
	if len(mc.Relations) < 2 {
		return nil, fmt.Errorf("core: a multi-way join needs at least two relations, got %d", len(mc.Relations))
	}
	if mc.Algorithm == OutOfCore {
		return nil, fmt.Errorf("core: the out-of-core baseline cannot run as a pipeline stage")
	}
	cfgs := make([]Config, len(mc.Relations)-1)
	var base rt.NodeID
	for s := range cfgs {
		cfg := Config{
			Algorithm:    mc.Algorithm,
			InitialNodes: mc.InitialNodes,
			MaxNodes:     mc.MaxNodes,
			Sources:      mc.Sources,
			MemoryBudget: mc.MemoryBudget,
			ChunkTuples:  mc.ChunkTuples,
			Cost:         mc.Cost,
			BaseID:       base,
			// Stage s builds from R_{s+2} in 1-based relation numbering.
			Build: mc.Relations[s+1].Spec,
			// Only stage 0's sources stream a probe relation (R1); the
			// spec is set for every stage so validation passes.
			Probe: mc.Relations[0].Spec,
		}
		n, err := cfg.normalized()
		if err != nil {
			return nil, fmt.Errorf("core: stage %d: %w", s, err)
		}
		cfgs[s] = n
		base += n.IDStride()
	}
	return cfgs, nil
}

// RunMulti executes the pipeline on the cluster simulator.
func RunMulti(mc MultiConfig) (*MultiReport, error) {
	cost := mc.Cost
	if cost == (rt.CostModel{}) {
		cost = rt.OSUMed()
	}
	return ExecuteMulti(mc, sim.New(cost))
}

// ExecuteMulti executes the pipeline on an arbitrary engine.
func ExecuteMulti(mc MultiConfig, eng rt.Engine) (*MultiReport, error) {
	cfgs, err := mc.stageConfigs()
	if err != nil {
		return nil, err
	}

	// R1 is a root generator; every later relation links to its
	// predecessor (R2 references R1's primary attribute, the rest their
	// predecessor's chain attribute). All stages build concurrently.
	r1, err := datagen.New(mc.Relations[0].Spec)
	if err != nil {
		return nil, err
	}
	stages := make([]*stage, len(cfgs))
	for s, cfg := range cfgs {
		rel := mc.Relations[s+1]
		build, err := datagen.NewLinked(rel.Spec, mc.Relations[s].Spec, rel.MatchFraction, s > 0)
		if err != nil {
			return nil, fmt.Errorf("core: relation %d: %w", s+2, err)
		}
		if stages[s], err = newStage(cfg, build, r1); err != nil {
			return nil, err
		}
		stages[s].register(eng)
	}
	var buildEnd, reshuffleEnd, end float64
	steps := []step{{"pipeline build phase", kickoffs(stages...), []*float64{&buildEnd, &reshuffleEnd}}}
	if mc.Algorithm == Hybrid {
		steps = append(steps, step{"pipeline reshuffle phase", toSchedulers(&doReshuffle{}, stages...), []*float64{&reshuffleEnd}})
	}
	// Wire the stages together: stage s's nodes forward matches using
	// stage s+1's final routing table, read after the reshuffle, each node
	// through its own copy (a lookup builds the copy's index, and an
	// engine that hands injections over in process may run the nodes
	// concurrently).
	wiring := func() []pendingInject {
		var in []pendingInject
		for s := 0; s+1 < len(cfgs); s++ {
			interLayout := tuple.Layout{
				PayloadBytes: mc.Relations[s+1].Spec.Layout.PayloadBytes +
					mc.Relations[0].Spec.Layout.PayloadBytes,
			}
			for i := 0; i < cfgs[s].MaxNodes; i++ {
				in = append(in, pendingInject{cfgs[s].joinID(i), &setForward{
					NextTable: stages[s+1].sched.table.Clone(),
					NextSeed:  mc.Relations[s+1].Spec.Seed,
					Layout:    interLayout,
				}})
			}
		}
		return in
	}
	steps = append(steps,
		step{"pipeline wiring", wiring, nil},
		// Probe: R1 streams into stage 0; matches cascade through the stages.
		step{"pipeline probe phase", toSchedulers(&startProbe{}, stages[0]), []*float64{&end}},
		step{"pipeline stats collection", toSchedulers(&collectStats{}, stages...), nil})
	if err := runSteps(eng, steps); err != nil {
		return nil, err
	}
	return assembleMultiReport(mc, stages, eng, buildEnd, reshuffleEnd, end)
}

// assembleMultiReport folds per-stage statistics into a MultiReport and
// verifies the pipeline conservation invariants.
func assembleMultiReport(mc MultiConfig, stages []*stage,
	eng rt.Engine, buildEnd, reshuffleEnd, end float64) (*MultiReport, error) {

	r := &MultiReport{
		BuildSec:     buildEnd,
		ReshuffleSec: reshuffleEnd - buildEnd,
		ProbeSec:     end - reshuffleEnd,
		TotalSec:     end,
	}
	last := len(stages) - 1
	prevForwardCopies := int64(-1)
	for s, st := range stages {
		cfg, sched := st.cfg, st.sched
		if len(sched.joinStats) != cfg.MaxNodes {
			return nil, fmt.Errorf("core: stage %d stats incomplete", s)
		}
		st := StageReport{
			Algorithm:    cfg.Algorithm,
			InitialNodes: cfg.InitialNodes,
			Splits:       sched.splits,
			Replications: sched.replications,
		}
		var probeProcessed, forwardCopies int64
		for i := 0; i < cfg.MaxNodes; i++ {
			js := sched.joinStats[cfg.joinID(i)]
			if !js.Active {
				continue
			}
			st.FinalNodes++
			st.StoredTuples += js.Stored
			st.ProbeTuples += js.ProbeTuples
			st.Forwarded += js.Forwarded
			probeProcessed += js.ProbeTuples
			forwardCopies += js.ForwardedCopies
			if s == last {
				r.Matches += js.Matches
				r.Checksum ^= js.Checksum
			}
		}
		// Build-side conservation per stage.
		if st.StoredTuples != cfg.Build.Tuples {
			return nil, fmt.Errorf("core: stage %d conservation violated: stored %d of %d",
				s, st.StoredTuples, cfg.Build.Tuples)
		}
		// Probe-side conservation: stage 0 processes R1 (plus broadcast
		// copies accounted by its sources); stage s>0 processes exactly
		// the copies stage s-1 forwarded.
		if s == 0 {
			var extra int64
			for _, src := range sched.sourceStats {
				extra += src.ProbeExtraCopies
			}
			if want := mc.Relations[0].Spec.Tuples + extra; probeProcessed != want {
				return nil, fmt.Errorf("core: stage 0 probe conservation violated: %d, want %d",
					probeProcessed, want)
			}
		} else if probeProcessed != prevForwardCopies {
			return nil, fmt.Errorf("core: stage %d probe conservation violated: processed %d, stage %d forwarded %d",
				s, probeProcessed, s-1, prevForwardCopies)
		}
		prevForwardCopies = forwardCopies
		r.Stages = append(r.Stages, st)
	}
	if st, ok := eng.(interface{ Stats() sim.Stats }); ok {
		r.WireBytes = st.Stats().BytesOnWire
		r.Messages = st.Stats().Messages
	}
	return r, nil
}
