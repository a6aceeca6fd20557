package core

import (
	"testing"

	"ehjoin/internal/datagen"
	"ehjoin/internal/sim"
)

// faultAt returns a plan crashing one initial join node partway through the
// fault-free run's build phase.
func faultAt(t *testing.T, cfg Config, node int, frac float64) FaultPlan {
	t.Helper()
	ref, err := Run(cfg)
	if err != nil {
		t.Fatalf("fault-free reference: %v", err)
	}
	return FaultPlan{Faults: []Fault{{
		JoinNode:  node,
		AtSec:     ref.BuildSec * frac,
		DetectSec: 0.01,
	}}}
}

// TestRecoveryMatchesFaultFree is the tentpole's acceptance criterion: a
// run that loses a join node mid-build must finish with a join result
// byte-identical to the fault-free run, with nonzero recovery latency and
// re-streamed chunks in the report.
func TestRecoveryMatchesFaultFree(t *testing.T) {
	for _, alg := range []Algorithm{Split, Replication, Hybrid} {
		t.Run(alg.String(), func(t *testing.T) {
			cfg := testConfig(alg)
			want, err := Run(cfg)
			if err != nil {
				t.Fatalf("fault-free run: %v", err)
			}
			plan := faultAt(t, cfg, 0, 0.4)
			got, err := RunWithFaults(cfg, plan)
			if err != nil {
				t.Fatalf("faulted run: %v", err)
			}
			if got.Degraded {
				t.Fatalf("build-phase death should recover exactly, got degraded (report: %v)", got)
			}
			if got.Matches != want.Matches || got.Checksum != want.Checksum {
				t.Errorf("result diverged: matches %d checksum %#x, want %d / %#x",
					got.Matches, got.Checksum, want.Matches, want.Checksum)
			}
			if got.NodesLost != 1 {
				t.Errorf("NodesLost = %d, want 1", got.NodesLost)
			}
			if got.NodesRecovered != 1 {
				t.Errorf("NodesRecovered = %d, want 1", got.NodesRecovered)
			}
			if got.RecoverySec <= 0 {
				t.Errorf("RecoverySec = %v, want > 0", got.RecoverySec)
			}
			if got.RestreamedChunks <= 0 || got.RestreamedTuples <= 0 {
				t.Errorf("re-streamed %d chunks / %d tuples, want > 0",
					got.RestreamedChunks, got.RestreamedTuples)
			}
			if alg != Split && got.PurgedTuples <= 0 {
				t.Errorf("footprint purge removed %d tuples; surviving peers hold copies of the dead node's replicated ranges",
					got.PurgedTuples)
			}
		})
	}
}

// TestSpillRecoveryMatchesFaultFree: losing a join node mid-build on an
// undersized cluster with the spill rung armed must still recover exactly.
// The victim's spilled partitions died with it and are re-streamed from the
// sources; surviving rungs purge their on-disk copies of the rebuilt
// ranges so nothing is double-counted at the finish phase.
func TestSpillRecoveryMatchesFaultFree(t *testing.T) {
	for _, alg := range []Algorithm{Split, Replication, Hybrid} {
		t.Run(alg.String(), func(t *testing.T) {
			cfg := testConfig(alg)
			cfg.MaxNodes = 3
			cfg.SpillEnabled = true
			want, err := Run(cfg)
			if err != nil {
				t.Fatalf("fault-free run: %v", err)
			}
			if want.SpilledPartitions == 0 {
				t.Fatal("scenario did not engage the spill rung")
			}
			plan := faultAt(t, cfg, 0, 0.6)
			got, err := RunWithFaults(cfg, plan)
			if err != nil {
				t.Fatalf("faulted run: %v", err)
			}
			if got.Degraded {
				t.Fatalf("death during spill should recover exactly, got degraded (report: %v)", got)
			}
			if got.Matches != want.Matches || got.Checksum != want.Checksum {
				t.Errorf("result diverged: matches %d checksum %#x, want %d / %#x",
					got.Matches, got.Checksum, want.Matches, want.Checksum)
			}
			if got.NodesLost != 1 {
				t.Errorf("NodesLost = %d, want 1", got.NodesLost)
			}
			if got.SpilledPartitions == 0 {
				t.Error("faulted run on a shrunken cluster did not spill")
			}
			if got.ExhaustedResources {
				t.Error("spill run reports exhaustion")
			}
		})
	}
}

// TestRecoveryDeterministic: the same fault plan must reproduce the same
// run, timing included — the whole point of virtual-time fault injection.
func TestRecoveryDeterministic(t *testing.T) {
	cfg := testConfig(Split)
	plan := faultAt(t, cfg, 1, 0.5)
	a, err := RunWithFaults(cfg, plan)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunWithFaults(cfg, plan)
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("identical fault plans diverged:\n  %v\n  %v", a, b)
	}
	if a.TotalSec != b.TotalSec || a.Checksum != b.Checksum || a.RecoverySec != b.RecoverySec {
		t.Errorf("timing or result not deterministic: %+v vs %+v", a, b)
	}
}

// TestHalfClusterDeathRecovers: simultaneous deaths that exhaust the
// potential-node list still recover exactly — orphaned ranges whose whole
// chain died are merged into adjacent live entries and re-streamed there.
func TestHalfClusterDeathRecovers(t *testing.T) {
	cfg := testConfig(Split)
	cfg.MaxNodes = 8
	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, frac := range []float64{0.2, 0.5, 0.8} {
		at := want.BuildSec * frac
		var plan FaultPlan
		for _, n := range []int{1, 3, 5, 7} {
			plan.Faults = append(plan.Faults, Fault{JoinNode: n, AtSec: at, DetectSec: 0.005})
		}
		got, err := RunWithFaults(cfg, plan)
		if err != nil {
			t.Fatalf("frac %v: %v", frac, err)
		}
		if got.Degraded {
			t.Errorf("frac %v: degraded (report: %v)", frac, got)
			continue
		}
		if got.NodesLost != 4 {
			t.Errorf("frac %v: NodesLost = %d, want 4", frac, got.NodesLost)
		}
		if got.Matches != want.Matches || got.Checksum != want.Checksum {
			t.Errorf("frac %v diverged: %d/%#x, want %d/%#x",
				frac, got.Matches, got.Checksum, want.Matches, want.Checksum)
		}
	}
}

// TestProbePhaseDeathDegrades: a death after the build phase cannot be
// re-streamed (the probe stream is not replayable mid-phase); the run must
// complete degraded on the surviving replicas instead of failing. The
// phases are driven by hand because a pre-armed FaultPlan always surfaces
// during the first drain.
func TestProbePhaseDeathDegrades(t *testing.T) {
	cfg := testConfig(Replication)
	ref, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err = cfg.normalized()
	if err != nil {
		t.Fatal(err)
	}
	build, err := datagen.New(cfg.Build)
	if err != nil {
		t.Fatal(err)
	}
	probe, err := datagen.NewProbe(cfg.Probe, build, cfg.MatchFraction)
	if err != nil {
		t.Fatal(err)
	}
	st, err := newStage(cfg, build, probe)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.New(cfg.Cost)
	st.register(eng)
	for _, in := range st.kickoff {
		eng.Inject(in.to, in.msg)
	}
	if err := eng.Drain(); err != nil {
		t.Fatalf("build phase: %v", err)
	}
	buildEnd := eng.NowSeconds()

	// Crash node 0 between build and probe; the scheduler hears about it
	// just after it has switched the cluster to the probe phase.
	dead := cfg.joinID(0)
	eng.ApplyFaults(sim.FaultPlan{Crashes: []sim.Crash{{Node: dead, AtNs: int64(buildEnd * 1e9)}}})
	eng.Inject(cfg.schedulerID(), &startProbe{})
	eng.Inject(cfg.schedulerID(), &nodeDead{Node: dead})
	if err := eng.Drain(); err != nil {
		t.Fatalf("probe phase: %v", err)
	}
	end := eng.NowSeconds()

	eng.Inject(cfg.schedulerID(), &collectStats{})
	if err := eng.Drain(); err != nil {
		t.Fatalf("stats collection: %v", err)
	}
	got, err := assembleReport(cfg, eng, st.sched, buildEnd, buildEnd, end)
	if err != nil {
		t.Fatalf("degraded run should still complete: %v", err)
	}
	if got.NodesLost != 1 {
		t.Errorf("NodesLost = %d, want 1", got.NodesLost)
	}
	if !got.Degraded {
		t.Errorf("probe-phase death must flag the report degraded")
	}
	if got.Matches >= ref.Matches {
		t.Errorf("degraded run should lose matches: got %d, fault-free %d", got.Matches, ref.Matches)
	}
	if got.Matches == 0 {
		t.Errorf("surviving replicas should still produce matches")
	}
}

// TestFaultPlanValidation rejects out-of-range nodes and negative times.
func TestFaultPlanValidation(t *testing.T) {
	cfg := testConfig(Split)
	if _, err := RunWithFaults(cfg, FaultPlan{Faults: []Fault{{JoinNode: 99, AtSec: 1}}}); err == nil {
		t.Error("out-of-range join node accepted")
	}
	if _, err := RunWithFaults(cfg, FaultPlan{Faults: []Fault{{JoinNode: 0, AtSec: -1}}}); err == nil {
		t.Error("negative crash time accepted")
	}
}
