package hashtable

import (
	"fmt"
	"runtime"
	"testing"

	"ehjoin/internal/hashfn"
	"ehjoin/internal/tuple"
)

// BenchmarkShardedTable measures the morsel-parallel build+probe path at
// several shard counts. Each op streams benchChunk-tuple batches through
// InsertAll and then ProbeAll, the same batch shape the join actor uses.
//
// Two numbers matter per size:
//
//   - ns/op: real wall time. On a host with GOMAXPROCS ≥ shards this
//     shows the actual speedup; on a 1-core host all shards multiplex
//     onto one CPU and wall time stays flat (plus small morsel overhead).
//   - crit_ns/op (reported metric): the critical path — Σ over batches of
//     the slowest shard's morsel time. This is the wall time a host with
//     enough cores would see, measured rather than modeled, and is
//     meaningful on any host.
const (
	benchTuples = 200_000
	benchChunk  = 1_000
)

// sinkXor keeps the serial baseline's checksum accumulation observable.
var sinkXor uint64

func benchData() ([][]tuple.Tuple, [][]tuple.Tuple) {
	build := make([][]tuple.Tuple, 0, benchTuples/benchChunk)
	probe := make([][]tuple.Tuple, 0, benchTuples/benchChunk)
	var next uint64
	rnd := uint64(0x9E3779B97F4A7C15)
	for len(build) < cap(build) {
		b := make([]tuple.Tuple, benchChunk)
		p := make([]tuple.Tuple, benchChunk)
		for i := range b {
			next++
			rnd ^= rnd << 13
			rnd ^= rnd >> 7
			rnd ^= rnd << 17
			// Fibonacci-mix the small key id across the full 64-bit key
			// space (the Scaled position hash reads the high bits), while
			// keeping ~2 duplicates per key for probe matches.
			key := (rnd % (benchTuples / 2)) * 0x9E3779B97F4A7C15
			b[i] = tuple.Tuple{Index: next, Key: key}
			p[i] = tuple.Tuple{Index: next + benchTuples, Key: key}
		}
		build = append(build, b)
		probe = append(probe, p)
	}
	return build, probe
}

func BenchmarkShardedTable(b *testing.B) {
	space := hashfn.DefaultSpace()
	layout := tuple.DefaultLayout()
	build, probe := benchData()

	// shards = 0 is the serial Table baseline (the engine's cores=1 path);
	// shards = 1 runs the sharded morsel path inline with no pool,
	// isolating partition+dispatch overhead from actual parallelism.
	for _, shards := range []int{0, 1, 2, 4, 8} {
		name := fmt.Sprintf("cores=%d", shards)
		if shards == 0 {
			name = "serial"
		}
		b.Run(name, func(b *testing.B) {
			var pool *Pool
			if shards > 1 {
				pool = NewPool(shards)
				defer pool.Close()
			}
			if shards == 0 {
				// Serial baseline: the plain Table the join actor uses at
				// cores=1, through the same batch entry points.
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					runtime.GC()
					b.StartTimer()
					tab := New(space, layout)
					for _, ts := range build {
						tab.InsertAll(ts)
					}
					var xor uint64
					for _, ts := range probe {
						_, x := tab.ProbeAll(ts)
						xor ^= x
					}
					sinkXor = xor
				}
				b.ReportMetric(float64(benchTuples*2*b.N)/b.Elapsed().Seconds(), "tuples/sec")
				return
			}
			var critNs, busyNs int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// The previous iteration's 200k-tuple table is garbage; a
				// GC pause landing inside one morsel would inflate that
				// batch's critical path, so collect it off the clock.
				b.StopTimer()
				runtime.GC()
				b.StartTimer()
				tab := NewSharded(space, layout, shards, pool)
				for _, ts := range build {
					tab.InsertAll(ts)
				}
				for _, ts := range probe {
					tab.ProbeAll(ts)
				}
				bn, cn, _, _, _ := tab.ExecStats()
				busyNs += bn
				critNs += cn
			}
			b.StopTimer()
			n := float64(b.N)
			b.ReportMetric(float64(critNs)/n, "crit_ns/op")
			b.ReportMetric(float64(busyNs)/n, "busy_ns/op")
			// Throughput a host with ≥ shards cores would sustain: total
			// tuples over the measured critical path.
			b.ReportMetric(float64(benchTuples*2)/(float64(critNs)/n/1e9), "crit_tuples/sec")
			b.ReportMetric(float64(benchTuples*2*b.N)/b.Elapsed().Seconds(), "tuples/sec")
		})
	}
}

// BenchmarkProbeAllRuns measures the match kernel where a join's cost is
// its output: 20 000 build tuples over 50 keys (runs of 400), probed in
// 1000-tuple chunks, so every probe tuple folds 400 matches. ns/match is
// the number DESIGN.md "Batch entry points" quotes.
func BenchmarkProbeAllRuns(b *testing.B) {
	const tuples, keys, chunk = 20_000, 50, 1_000
	tab := New(hashfn.DefaultSpace(), tuple.DefaultLayout())
	probe := make([]tuple.Tuple, chunk)
	for i := 0; i < tuples; i++ {
		tab.Insert(tuple.Tuple{Index: uint64(i), Key: uint64(i%keys) * fibMul})
	}
	for i := range probe {
		probe[i] = tuple.Tuple{Index: uint64(tuples + i), Key: uint64(i%keys) * fibMul}
	}
	tab.ProbeAll(probe[:1]) // seal off the clock
	var matches int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, x := tab.ProbeAll(probe)
		matches += m
		sinkXor ^= x
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(matches), "ns/match")
}
