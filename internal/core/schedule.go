package core

import (
	"fmt"

	"ehjoin/internal/datagen"
	"ehjoin/internal/hashfn"
	rt "ehjoin/internal/runtime"
)

// The phase schedule (paper §4.1, "phase synchronisation"): a run is a
// fixed list of steps, each a burst of root injections followed by one
// Drain. Execute, ResumeExecute and ExecuteMulti all walk their list with
// runSteps, so the drain count a transport logs, the phase a coordinator
// kill names and the step a resumed run re-enters are one sequence. A
// resumed run walks the whole list too: the restored engine, which knows
// what its log absorbed, skips it.

// stage is one complete EHJA instance before it runs: the scheduler, data
// sources and join nodes in registration order, and the kickoff that
// starts its build phase.
type stage struct {
	cfg   Config
	sched *schedActor
	// actors[i] is node cfg.BaseID+i: the scheduler, the sources, then
	// the join nodes.
	actors []rt.Actor
	// kickoff is joinInit per initial working node, then startBuild per
	// source, each carrying its own clone of the initial routing table.
	kickoff []pendingInject
}

// pendingInject is one root injection of the phase schedule.
type pendingInject struct {
	to  rt.NodeID
	msg rt.Message
}

// newStage constructs a stage's actors and kickoff without touching an
// engine. Every kickoff copy of the table is cloned here, before any actor
// runs: on a concurrent engine the scheduler splits its table as soon as
// one source's chunks overflow a node, and a resumed run must not clone a
// table that replaying the log has already touched.
func newStage(cfg Config, build, probe relationGen) (*stage, error) {
	// Initial bucket assignment: one entry per initial working node.
	owners := make([]int32, cfg.InitialNodes)
	working := make([]rt.NodeID, cfg.InitialNodes)
	for i := range owners {
		working[i] = cfg.joinID(i)
		owners[i] = int32(working[i])
	}
	table, err := hashfn.NewTable(cfg.Space, owners)
	if err != nil {
		return nil, err
	}
	potential := make([]rt.NodeID, 0, cfg.MaxNodes-cfg.InitialNodes)
	for i := cfg.InitialNodes; i < cfg.MaxNodes; i++ {
		potential = append(potential, cfg.joinID(i))
	}

	st := &stage{cfg: cfg, sched: newScheduler(cfg, table, working, potential)}
	st.actors = append(st.actors, st.sched)
	for i := 0; i < cfg.Sources; i++ {
		st.actors = append(st.actors, newSource(cfg, i, build, probe))
	}
	for i := 0; i < cfg.MaxNodes; i++ {
		st.actors = append(st.actors, newJoin(cfg, cfg.joinID(i)))
	}
	// The initial working nodes are activated by message, so the same flow
	// works when join actors live in other processes (TCP transport).
	for i := 0; i < cfg.InitialNodes; i++ {
		st.kickoff = append(st.kickoff, pendingInject{cfg.joinID(i),
			&joinInit{Range: table.Entries[i].Range, Table: table.Clone()}})
	}
	for i := 0; i < cfg.Sources; i++ {
		st.kickoff = append(st.kickoff, pendingInject{cfg.sourceID(i), &startBuild{Table: table.Clone()}})
	}
	return st, nil
}

// singleStage normalizes cfg and constructs its one stage, with the build
// and probe generators the config describes.
func singleStage(cfg Config) (*stage, error) {
	cfg, err := cfg.normalized()
	if err != nil {
		return nil, err
	}
	build, err := datagen.New(cfg.Build)
	if err != nil {
		return nil, err
	}
	probe, err := datagen.NewProbe(cfg.Probe, build, cfg.MatchFraction)
	if err != nil {
		return nil, err
	}
	return newStage(cfg, build, probe)
}

// register adds the stage's actors to eng in construction order.
func (st *stage) register(eng rt.Engine) {
	for i, a := range st.actors {
		eng.Register(st.cfg.BaseID+rt.NodeID(i), a)
	}
}

// step is one phase of a schedule: the root injections that start it and
// the report timestamps the engine clock sets once it has drained.
type step struct {
	name    string
	injects func() []pendingInject
	marks   []*float64
}

// kickoffs is a build step's injection list: every stage's kickoff, in
// stage order.
func kickoffs(stages ...*stage) func() []pendingInject {
	return func() []pendingInject {
		var in []pendingInject
		for _, st := range stages {
			in = append(in, st.kickoff...)
		}
		return in
	}
}

// toSchedulers is a step's injection list: m to every stage's scheduler.
// Every stage receives the same m, so m must carry no state.
func toSchedulers(m rt.Message, stages ...*stage) func() []pendingInject {
	return func() []pendingInject {
		in := make([]pendingInject, len(stages))
		for i, st := range stages {
			in[i] = pendingInject{st.cfg.schedulerID(), m}
		}
		return in
	}
}

// steps is the single-join schedule: build, [reshuffle], [heavy-hitter
// detection], probe, [out-of-core finish], stats. The timestamps land in
// buildEnd, reshuffleEnd and end; the statistics round runs after timing.
func (st *stage) steps(buildEnd, reshuffleEnd, end *float64) []step {
	cfg := st.cfg
	steps := []step{{"build phase", kickoffs(st), []*float64{buildEnd, reshuffleEnd}}}
	if cfg.Algorithm == Hybrid {
		steps = append(steps, step{"reshuffle phase", toSchedulers(&doReshuffle{}, st), []*float64{reshuffleEnd}})
	}
	// Heavy-hitter detection (DESIGN.md §11) runs on the drained post-build
	// (and post-reshuffle) cluster, so the histograms are final and every
	// process holds the same routing table; the normalizer has already
	// cleared the threshold for the out-of-core baseline.
	if cfg.HeavyThreshold > 0 {
		steps = append(steps, step{"heavy-hitter detection", toSchedulers(&detectHeavy{}, st), []*float64{reshuffleEnd}})
	}
	steps = append(steps, step{"probe phase", toSchedulers(&startProbe{}, st), []*float64{end}})
	// The OOC baseline always finishes on disk; under SpillEnabled the
	// expanding algorithms may have engaged the spill rung, whose evicted
	// partitions join here the same way.
	if cfg.Algorithm == OutOfCore || cfg.SpillEnabled {
		steps = append(steps, step{"out-of-core finish", toSchedulers(&finishOOC{}, st), []*float64{end}})
	}
	// The scheduler polls every node by message, not by a memory read, so
	// join actors may live in other processes.
	return append(steps, step{"stats collection", toSchedulers(&collectStats{}, st), nil})
}

// run drives the single-join schedule and folds the collected statistics
// into a Report.
func (st *stage) run(eng rt.Engine) (*Report, error) {
	var buildEnd, reshuffleEnd, end float64
	if err := runSteps(eng, st.steps(&buildEnd, &reshuffleEnd, &end)); err != nil {
		return nil, err
	}
	return assembleReport(st.cfg, eng, st.sched, buildEnd, reshuffleEnd, end)
}

// runSteps injects each step's messages and drains, then reads the step's
// timestamps from the engine clock.
func runSteps(eng rt.Engine, steps []step) error {
	for _, s := range steps {
		for _, in := range s.injects() {
			eng.Inject(in.to, in.msg)
		}
		if err := eng.Drain(); err != nil {
			return fmt.Errorf("core: %s: %w", s.name, err)
		}
		now := eng.NowSeconds()
		for _, m := range s.marks {
			*m = now
		}
	}
	return nil
}
