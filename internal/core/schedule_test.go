package core

import (
	"fmt"
	"reflect"
	"sort"
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
// registered in id order, ResumeExecute(rs, sim) — returns exactly
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
					got, err := ResumeExecute(rs, eng)
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
