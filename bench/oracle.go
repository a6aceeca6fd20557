package main

import (
	"fmt"
	"time"

	"ehjoin/internal/datagen"
	"ehjoin/internal/spill"
)

// oracleResult is the join result every run of a workload must reproduce.
type oracleResult struct {
	Matches  uint64
	Checksum uint64
	Tuples   int64   // |R| + |S|
	Seconds  float64 // time the map join took, itself a baseline figure
}

// computeOracle joins the two relations with a plain single-threaded map
// join that shares no code with the engine: only the relation generators
// (the definition of the input) and spill.MixPair (the definition of the
// checksum) come from the repository. Build tuples with equal keys are
// chained through next, newest first.
func computeOracle(build, probe datagen.Spec, matchFraction float64) (oracleResult, error) {
	start := time.Now()
	bg, err := datagen.New(build)
	if err != nil {
		return oracleResult{}, fmt.Errorf("oracle: %w", err)
	}
	pg, err := datagen.NewProbe(probe, bg, matchFraction)
	if err != nil {
		return oracleResult{}, fmt.Errorf("oracle: %w", err)
	}
	head := make(map[uint64]int32, build.Tuples) // key -> 1 + position of its newest build tuple
	next := make([]int32, build.Tuples)
	index := make([]uint64, build.Tuples)
	for i := int64(0); i < build.Tuples; i++ {
		t := bg.At(i)
		index[i] = t.Index
		next[i] = head[t.Key]
		head[t.Key] = int32(i + 1)
	}
	res := oracleResult{Tuples: build.Tuples + probe.Tuples}
	for j := int64(0); j < probe.Tuples; j++ {
		s := pg.At(j)
		for i := head[s.Key]; i != 0; i = next[i-1] {
			res.Matches++
			res.Checksum ^= spill.MixPair(index[i-1], s.Index)
		}
	}
	res.Seconds = time.Since(start).Seconds()
	return res, nil
}
