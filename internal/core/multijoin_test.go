package core

import (
	"testing"

	"ehjoin/internal/datagen"
	"ehjoin/internal/spill"
)

func multiConfig(alg Algorithm, k int) MultiConfig {
	mc := MultiConfig{
		Algorithm:    alg,
		InitialNodes: 2,
		MaxNodes:     10,
		Sources:      2,
		MemoryBudget: 300 << 10,
		ChunkTuples:  500,
	}
	for s := 0; s < k; s++ {
		mc.Relations = append(mc.Relations, StageRelation{
			Spec:          datagen.Spec{Dist: datagen.Uniform, Tuples: 20_000, Seed: uint64(7000 + s)},
			MatchFraction: 0.8,
		})
	}
	return mc
}

// referenceMultiJoin enumerates every join path of the chain exactly,
// reproducing the pipeline's fingerprint semantics: the path id entering
// stage s+1 is MixPair(matched build index, incoming path id), and the
// final checksum XORs MixPair over the last stage's matches.
func referenceMultiJoin(t *testing.T, mc MultiConfig) (uint64, uint64) {
	t.Helper()
	cfgs, err := mc.stageConfigs()
	if err != nil {
		t.Fatal(err)
	}
	// Index every build relation by its primary join attribute.
	tables := make([]map[uint64][]uint64, len(cfgs))
	for s := range cfgs {
		rel := mc.Relations[s+1]
		linked, err := datagen.NewLinked(rel.Spec, mc.Relations[s].Spec, rel.MatchFraction, s > 0)
		if err != nil {
			t.Fatal(err)
		}
		tables[s] = make(map[uint64][]uint64)
		for i := int64(0); i < rel.Spec.Tuples; i++ {
			k := linked.KeyAt(i)
			tables[s][k] = append(tables[s][k], uint64(i))
		}
	}
	r1, err := datagen.New(mc.Relations[0].Spec)
	if err != nil {
		t.Fatal(err)
	}

	var matches, checksum uint64
	// Walk paths depth-first; the fan-out per level is tiny for uniform
	// keys, so this stays linear in practice.
	var descend func(s int, key uint64, pathID uint64)
	descend = func(s int, key uint64, pathID uint64) {
		for _, bIdx := range tables[s][key] {
			id := spill.MixPair(bIdx, pathID)
			if s == len(tables)-1 {
				matches++
				checksum ^= id
				continue
			}
			descend(s+1, datagen.ChainKeyAt(mc.Relations[s+1].Spec.Seed, int64(bIdx)), id)
		}
	}
	for i := int64(0); i < mc.Relations[0].Spec.Tuples; i++ {
		descend(0, r1.KeyAt(i), uint64(i))
	}
	return matches, checksum
}

func TestThreeWayJoinMatchesReference(t *testing.T) {
	for _, alg := range []Algorithm{Split, Replication, Hybrid} {
		t.Run(alg.String(), func(t *testing.T) {
			mc := multiConfig(alg, 3)
			wantM, wantCk := referenceMultiJoin(t, mc)
			if wantM == 0 {
				t.Fatal("reference produced no matches; workload is broken")
			}
			r, err := RunMulti(mc)
			if err != nil {
				t.Fatal(err)
			}
			if r.Matches != wantM || r.Checksum != wantCk {
				t.Errorf("pipeline result %d/%#x, want %d/%#x", r.Matches, r.Checksum, wantM, wantCk)
			}
			if len(r.Stages) != 2 {
				t.Fatalf("stage count %d", len(r.Stages))
			}
			if r.Stages[0].Forwarded == 0 {
				t.Error("stage 0 forwarded nothing")
			}
			if r.Stages[1].Forwarded != 0 {
				t.Error("final stage should not forward")
			}
			// Memory pressure must have expanded at least the early stages.
			if r.Stages[0].FinalNodes <= mc.InitialNodes {
				t.Error("stage 0 did not expand under memory pressure")
			}
		})
	}
}

func TestFourWayJoinMatchesReference(t *testing.T) {
	mc := multiConfig(Hybrid, 4)
	wantM, wantCk := referenceMultiJoin(t, mc)
	r, err := RunMulti(mc)
	if err != nil {
		t.Fatal(err)
	}
	if r.Matches != wantM || r.Checksum != wantCk {
		t.Errorf("pipeline result %d/%#x, want %d/%#x", r.Matches, r.Checksum, wantM, wantCk)
	}
	if len(r.Stages) != 3 {
		t.Fatalf("stage count %d", len(r.Stages))
	}
}

func TestTwoWayPipelineEqualsSingleJoin(t *testing.T) {
	// A 2-relation pipeline is an ordinary join; its match count must
	// equal a single-join run over the equivalent workload.
	mc := multiConfig(Hybrid, 2)
	wantM, wantCk := referenceMultiJoin(t, mc)
	r, err := RunMulti(mc)
	if err != nil {
		t.Fatal(err)
	}
	if r.Matches != wantM || r.Checksum != wantCk {
		t.Errorf("pipeline result %d/%#x, want %d/%#x", r.Matches, r.Checksum, wantM, wantCk)
	}
}

func TestMultiJoinValidation(t *testing.T) {
	mc := multiConfig(Hybrid, 3)
	mc.Relations = mc.Relations[:1]
	if _, err := RunMulti(mc); err == nil {
		t.Error("single-relation pipeline accepted")
	}
	mc = multiConfig(OutOfCore, 3)
	if _, err := RunMulti(mc); err == nil {
		t.Error("out-of-core pipeline accepted")
	}
}

func TestMultiJoinSkewedFirstRelation(t *testing.T) {
	mc := multiConfig(Hybrid, 3)
	mc.Relations[0].Spec = datagen.Spec{
		Dist: datagen.Gaussian, Mean: 0.5, Sigma: 0.0001, Tuples: 20_000, Seed: 7000,
	}
	wantM, wantCk := referenceMultiJoin(t, mc)
	r, err := RunMulti(mc)
	if err != nil {
		t.Fatal(err)
	}
	if r.Matches != wantM || r.Checksum != wantCk {
		t.Errorf("skewed pipeline result %d/%#x, want %d/%#x", r.Matches, r.Checksum, wantM, wantCk)
	}
}
