package core

import (
	"math/rand"
	"testing"

	"ehjoin/internal/hashfn"
	rt "ehjoin/internal/runtime"
	"ehjoin/internal/spill"
	"ehjoin/internal/tuple"
)

// oocNode returns an initialised out-of-core join node owning the whole
// position space, budgeted for budget tuples and evicting under policy.
func oocNode(t *testing.T, policy spill.Policy, budget int) (*joinActor, *scriptEnv) {
	t.Helper()
	cfg := actorConfig(OutOfCore)
	cfg.OOCPolicy = policy
	cfg.MemoryBudget = int64(budget * cfg.Build.Layout.LogicalSize())
	j := newJoin(cfg, cfg.joinID(0))
	table, _ := hashfn.NewTable(cfg.Space, []int32{int32(cfg.joinID(0))})
	env := &scriptEnv{}
	j.Receive(env, rt.NoNode, &joinInit{Range: table.Entries[0].Range, Table: table})
	return j, env
}

// twoPartitionKeys returns keys of two different spill partitions of j.
func twoPartitionKeys(j *joinActor) (a, b uint64) {
	a = 1
	for b = 2; j.spillRung.PartOf(b) == j.spillRung.PartOf(a); b++ {
	}
	return a, b
}

// TestJoinActorOOCEvictsAtTheOverflowTuple pins that an out-of-core node
// checks its budget after every tuple it keeps, not once per chunk: each
// scenario is one chunk whose eviction points a per-chunk check would move.
// The node decides alone — it sends the scheduler nothing — and what it
// evicted still joins in full in the finish phase.
func TestJoinActorOOCEvictsAtTheOverflowTuple(t *testing.T) {
	for _, tc := range []struct {
		name   string
		policy spill.Policy
		// build is the chunk, one entry per tuple: true for key a, false for b.
		build []bool
		// evictions is how many partitions went to disk holding tuples;
		// markAll says every partition ends up spilled, not just a and b's.
		evictions int64
		markAll   bool
	}{
		// Budget 3: the fourth a overflows, Grace marks every partition, and
		// b streams to disk. A per-chunk check would find b resident too.
		{"grace", spill.Grace, []bool{true, true, true, true, false}, 1, true},
		// Budget 3: the first a overflows behind three b's, so b (the
		// largest) goes; the fourth a overflows again and a goes. A per-chunk
		// check would see a=4, b=3 and evict a alone.
		{"hybrid-hash", spill.HybridHash, []bool{false, false, false, true, true, true, true}, 2, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			j, env := oocNode(t, tc.policy, 3)
			a, b := twoPartitionKeys(j)
			var keys []uint64
			for _, isA := range tc.build {
				if isA {
					keys = append(keys, a)
				} else {
					keys = append(keys, b)
				}
			}
			size := int64(j.cfg.Build.Layout.LogicalSize())
			j.Receive(env, rt.NoNode, &dataChunk{Chunk: chunkOf(tuple.RelR, j.cfg.Build.Layout, keys...), Origin: rt.NoNode})
			if sends := env.take(); len(sends) != 0 {
				t.Errorf("out-of-core node sent %v while building", sends)
			}
			rung := j.spillRung
			if rung.Evictions != tc.evictions {
				t.Errorf("%d partitions evicted holding tuples, want %d", rung.Evictions, tc.evictions)
			}
			want := int64(2)
			if tc.markAll {
				want = int64(rung.Parts())
			}
			if rung.SpilledPartitions() != want {
				t.Errorf("%d partitions spilled, want %d", rung.SpilledPartitions(), want)
			}
			if !rung.Spilled(rung.PartOf(a)) || !rung.Spilled(rung.PartOf(b)) {
				t.Errorf("partition of a spilled=%v, of b spilled=%v; want both",
					rung.Spilled(rung.PartOf(a)), rung.Spilled(rung.PartOf(b)))
			}
			if want := int64(len(keys)) * size; rung.SpillWrittenBytes != want || j.liveBytes() != 0 {
				t.Errorf("wrote %d bytes with %d live, want all %d written", rung.SpillWrittenBytes, j.liveBytes(), want)
			}

			j.Receive(env, rt.NoNode, &dataChunk{Chunk: chunkOf(tuple.RelS, j.cfg.Probe.Layout, a, b), Origin: rt.NoNode})
			if j.totalMatches() != 0 {
				t.Errorf("%d matches before the finish phase; every probe belongs on disk", j.totalMatches())
			}
			j.Receive(env, rt.NoNode, &finishOOC{})
			if got, want := j.totalMatches(), uint64(len(keys)); got != want {
				t.Errorf("%d matches after the finish phase, want %d", got, want)
			}
			if n := j.storedBuildTuples(); n != int64(len(keys)) {
				t.Errorf("node stores %d build tuples, %d were delivered", n, len(keys))
			}
		})
	}
}

// TestJoinActorOOCGraceSpillsEverythingHybridHashDoesNot contrasts the two
// out-of-core policies on one join node: after the first overflow Grace goes
// fully out of core, while hybrid hash keeps as much resident as fits. Both
// produce the reference join.
func TestJoinActorOOCGraceSpillsEverythingHybridHashDoesNot(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	gen := func(rel tuple.Relation, n int) []*tuple.Chunk {
		var out []*tuple.Chunk
		for lo := 0; lo < n; lo += 100 {
			c := &tuple.Chunk{Rel: rel, Layout: tuple.DefaultLayout()}
			for i := lo; i < lo+100; i++ {
				c.Tuples = append(c.Tuples, tuple.Tuple{Index: uint64(i), Key: uint64(rng.Intn(900)) * 0x9E3779B97F4A7C15})
			}
			out = append(out, c)
		}
		return out
	}
	rs, ss := gen(tuple.RelR, 5000), gen(tuple.RelS, 5000)
	byKey := make(map[uint64][]uint64)
	for _, c := range rs {
		for _, r := range c.Tuples {
			byKey[r.Key] = append(byKey[r.Key], r.Index)
		}
	}
	var wantM, wantCk uint64
	for _, c := range ss {
		for _, s := range c.Tuples {
			for _, r := range byKey[s.Key] {
				wantM++
				wantCk ^= tuple.MixPair(r, s.Index)
			}
		}
	}

	run := func(policy spill.Policy) (j *joinActor, live int64) {
		j, env := oocNode(t, policy, 2000)
		for _, c := range rs {
			j.Receive(env, rt.NoNode, &dataChunk{Chunk: c, Origin: rt.NoNode})
		}
		live = j.liveBytes()
		for _, c := range ss {
			j.Receive(env, rt.NoNode, &dataChunk{Chunk: c, Origin: rt.NoNode})
		}
		j.Receive(env, rt.NoNode, &finishOOC{})
		if sends := env.take(); len(sends) != 0 {
			t.Errorf("%v: out-of-core node sent %v", policy, sends)
		}
		if j.totalMatches() != wantM || j.totalChecksum() != wantCk {
			t.Errorf("%v: result %d/%#x, want %d/%#x", policy, j.totalMatches(), j.totalChecksum(), wantM, wantCk)
		}
		return j, live
	}
	grace, graceLive := run(spill.Grace)
	hybrid, hybridLive := run(spill.HybridHash)
	if graceLive != 0 || grace.spillRung.SpilledPartitions() != int64(grace.spillRung.Parts()) {
		t.Errorf("grace kept %d bytes resident and %d of %d partitions after overflow",
			graceLive, int64(grace.spillRung.Parts())-grace.spillRung.SpilledPartitions(), grace.spillRung.Parts())
	}
	if hybridLive == 0 || hybridLive > hybrid.budget {
		t.Errorf("hybrid hash kept %d bytes resident against a %d budget", hybridLive, hybrid.budget)
	}
	if gw, hw := grace.spillRung.SpillWrittenBytes, hybrid.spillRung.SpillWrittenBytes; gw <= hw {
		t.Errorf("grace wrote %d <= hybrid hash %d; expected more disk traffic", gw, hw)
	}
}
