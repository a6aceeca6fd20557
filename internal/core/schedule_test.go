package core

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"ehjoin/internal/datagen"
	rt "ehjoin/internal/runtime"
	"ehjoin/internal/sim"
)

// scheduleConfig is a Zipf-skewed join with the heavy-hitter and spill
// steps switched on or off, so every optional step of the schedule can
// be present. The spill variant shrinks the cluster until it exhausts.
func scheduleConfig(alg Algorithm, heavy, spill bool) Config {
	cfg := heavyConfig(alg, datagen.Correlated, 1.5, 55)
	if heavy {
		cfg.HeavyThreshold = 0.02
	}
	if spill {
		cfg.MaxNodes = 3
		cfg.SpillEnabled = true
	}
	return cfg
}

// TestResumeFromStartMatchesExecute: a run resumed before its first step
// on the simulator — PrepareResume from the config blob, every actor
// registered in id order, ResumeExecute(rs, sim, 0, 0) — returns exactly
// the Report Execute does, for every algorithm with and without the
// heavy-hitter and spill steps.
func TestResumeFromStartMatchesExecute(t *testing.T) {
	for _, alg := range Algorithms() {
		for _, heavy := range []bool{false, true} {
			for _, spill := range []bool{false, true} {
				t.Run(fmt.Sprintf("%v/heavy=%v/spill=%v", alg, heavy, spill), func(t *testing.T) {
					cfg := scheduleConfig(alg, heavy, spill)
					want, err := Run(cfg)
					if err != nil {
						t.Fatal(err)
					}
					blob, err := EncodeConfig(cfg)
					if err != nil {
						t.Fatal(err)
					}
					rs, err := PrepareResume(blob)
					if err != nil {
						t.Fatal(err)
					}
					eng := sim.New(rs.Config().Cost)
					actors := rs.Actors()
					ids := make([]rt.NodeID, 0, len(actors))
					for id := range actors {
						ids = append(ids, id)
					}
					sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
					for _, id := range ids {
						eng.Register(id, actors[id])
					}
					got, err := ResumeExecute(rs, eng, 0, 0)
					if err != nil {
						t.Fatal(err)
					}
					// The optional steps must have work to do where they can.
					if alg != OutOfCore && spill && want.SpilledPartitions == 0 {
						t.Error("the spill variant never spilled")
					}
					if alg != OutOfCore && heavy && !spill && want.HeavyKeys == 0 {
						t.Error("the heavy variant detected no heavy key")
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("resumed report differs from Execute's:\n got %+v\nwant %+v", got, want)
					}
				})
			}
		}
	}
}

// recordingEngine logs injections and counts drains. Its clock reads 10
// plus the drains so far, so a skipped step's timestamp differs from an
// unset one.
type recordingEngine struct {
	injects []pendingInject
	drains  int
}

func (e *recordingEngine) Register(rt.NodeID, rt.Actor) {}
func (e *recordingEngine) Inject(to rt.NodeID, m rt.Message) {
	e.injects = append(e.injects, pendingInject{to, m})
}
func (e *recordingEngine) Drain() error        { e.drains++; return nil }
func (e *recordingEngine) NowSeconds() float64 { return float64(10 + e.drains) }

// TestRunStepsSkipsWhatTheLogAbsorbed walks the full single-join schedule
// (build, reshuffle, heavy detection, probe, out-of-core finish, stats)
// and resumes it at every (drainsDone=k, rootInjects=j): exactly
// len(steps)−k drains run, the injections are the full run's minus the
// steps before k and the first j of step k, and every timestamp is the
// engine clock after its step, skipped or not.
func TestRunStepsSkipsWhatTheLogAbsorbed(t *testing.T) {
	cfg, err := scheduleConfig(Hybrid, true, true).normalized()
	if err != nil {
		t.Fatal(err)
	}
	st, err := singleStage(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var b, r, e float64
	steps := st.steps(&b, &r, &e)
	if len(steps) != 6 {
		t.Fatalf("schedule has %d steps, want 6", len(steps))
	}
	full := &recordingEngine{}
	if err := runSteps(full, steps, 0, 0); err != nil {
		t.Fatal(err)
	}
	if want := cfg.InitialNodes + cfg.Sources + len(steps) - 1; len(full.injects) != want {
		t.Fatalf("full run injected %d messages, want %d", len(full.injects), want)
	}
	offset := 0
	for k, s := range steps {
		n := len(s.injects())
		for j := 0; j <= n; j++ {
			eng := &recordingEngine{}
			var buildEnd, reshuffleEnd, end float64
			if err := runSteps(eng, st.steps(&buildEnd, &reshuffleEnd, &end), k, j); err != nil {
				t.Fatalf("k=%d j=%d: %v", k, j, err)
			}
			if eng.drains != len(steps)-k {
				t.Errorf("k=%d j=%d: %d drains, want %d", k, j, eng.drains, len(steps)-k)
			}
			want := full.injects[offset+j:]
			if len(eng.injects) != len(want) {
				t.Fatalf("k=%d j=%d: %d injections, want %d", k, j, len(eng.injects), len(want))
			}
			for i, in := range eng.injects {
				if in.to != want[i].to || reflect.TypeOf(in.msg) != reflect.TypeOf(want[i].msg) {
					t.Errorf("k=%d j=%d: injection %d is %T to %d, want %T to %d",
						k, j, i, in.msg, in.to, want[i].msg, want[i].to)
				}
			}
			// Step i leaves the clock at 10 plus the drains run through
			// it, max(0, i+1−k). Build is step 0, reshuffle and heavy
			// detection steps 1–2, the out-of-core finish step 4.
			clock := func(i int) float64 { return float64(10 + max(0, i+1-k)) }
			if buildEnd != clock(0) || reshuffleEnd != clock(2) || end != clock(4) {
				t.Errorf("k=%d j=%d: timestamps %v/%v/%v, want %v/%v/%v",
					k, j, buildEnd, reshuffleEnd, end, clock(0), clock(2), clock(4))
			}
		}
		offset += n
	}
}

// TestRunStepsRejectsOvercount: a log that claims more root injections
// than the interrupted step has is refused before anything is injected
// or drained.
func TestRunStepsRejectsOvercount(t *testing.T) {
	st, err := singleStage(scheduleConfig(Hybrid, true, true))
	if err != nil {
		t.Fatal(err)
	}
	var b, r, e float64
	steps := st.steps(&b, &r, &e)
	for k, s := range steps {
		n := len(s.injects())
		eng := &recordingEngine{}
		err := runSteps(eng, steps, k, n+1)
		want := fmt.Sprintf("log absorbed %d root injections but the %s step only has %d", n+1, s.name, n)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("k=%d: runSteps = %v, want %q", k, err, want)
		}
		if eng.drains != 0 || len(eng.injects) != 0 {
			t.Errorf("k=%d: %d drains and %d injections before the error, want none", k, eng.drains, len(eng.injects))
		}
	}
}
