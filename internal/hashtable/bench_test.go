package hashtable

import (
	"math/rand"
	"runtime"
	"testing"

	"ehjoin/internal/hashfn"
	"ehjoin/internal/tuple"
)

const (
	benchTuples = 200_000
	benchChunk  = 1_000
)

// sinkXor keeps the benchmarks' checksum accumulation observable.
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

// BenchmarkTable streams benchChunk-tuple batches through InsertAll and
// then ProbeAll, the batch shape the join actor uses: one op is a whole
// 200 000-tuple build (staging, then the seal at the first probe) and probe.
func BenchmarkTable(b *testing.B) {
	space := hashfn.DefaultSpace()
	layout := tuple.DefaultLayout()
	build, probe := benchData()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// The previous iteration's table is garbage; collect it off the clock.
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
}

// BenchmarkProbeAllRuns measures the match kernel where a join's cost is
// its output: 20 000 build tuples over 50 keys (runs of 400), probed in
// 1000-tuple chunks, so every probe tuple folds 400 matches. ns/match is
// the number DESIGN.md "Batch entry points" quotes. kernel=avx512 is
// ProbeAll as the engine runs it; kernel=go is the same table loop with
// every run's words folded by tuple.MixRunGeneric, the pure-Go loop and
// the path on CPUs without AVX-512.
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
	for _, k := range []struct {
		name   string
		mixRun func([]uint64, uint64) uint64
	}{{"avx512", tuple.MixRun}, {"go", tuple.MixRunGeneric}} {
		b.Run("kernel="+k.name, func(b *testing.B) {
			if k.name == "avx512" && tuple.MixRunKernel() != "avx512" {
				b.Skip("no AVX-512 kernel: not amd64, the CPU lacks AVX512F or AVX512DQ, or the OS does not save ZMM state")
			}
			var matches int64
			for i := 0; i < b.N; i++ {
				m, x := tab.probeAll(probe, k.mixRun)
				matches += m
				sinkXor ^= x
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(matches), "ns/match")
		})
	}
}

// BenchmarkProbeUnique measures the unique-key probe, the hot loop of
// every workload without duplicate keys: 750 000 random keys (one
// worker's share of the benchmark's build relation), sealed off the
// clock, probed in 1000-tuple ProbeAll chunks of random keys. hit=all
// probes stored keys only; in hit=half every other probe key is absent,
// and those usually end on the tag array without reading a slot.
func BenchmarkProbeUnique(b *testing.B) {
	const keys, chunk, chunks = 750_000, 1_000, 256
	rng := rand.New(rand.NewSource(1))
	tab := New(hashfn.DefaultSpace(), tuple.DefaultLayout())
	stored := make([]uint64, keys)
	for i := range stored {
		stored[i] = rng.Uint64()
		tab.Insert(tuple.Tuple{Index: uint64(i), Key: stored[i]})
	}
	tab.Probe(0, nil) // seal off the clock
	for _, arm := range []struct {
		name string
		miss func(int) bool
	}{{"all", func(int) bool { return false }}, {"half", func(i int) bool { return i%2 == 1 }}} {
		probes := make([][]tuple.Tuple, chunks)
		for c := range probes {
			probes[c] = make([]tuple.Tuple, chunk)
			for i := range probes[c] {
				key := stored[rng.Intn(keys)]
				if arm.miss(i) {
					key = rng.Uint64() // absent with overwhelming probability
				}
				probes[c][i] = tuple.Tuple{Index: uint64(keys + i), Key: key}
			}
		}
		b.Run("hit="+arm.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, x := tab.ProbeAll(probes[i%chunks])
				sinkXor ^= x
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*chunk), "ns/probe")
		})
	}
}

// BenchmarkStage times the staged build alone, in ns and allocations per
// staged tuple: 750 000 random keys (BenchmarkSeal's table) streamed
// through InsertAll in 1000-tuple chunks, the batch shape the join actor
// uses, into a fresh table whose predecessor is collected off the clock.
func BenchmarkStage(b *testing.B) {
	const keys, chunk = 750_000, 1_000
	rng := rand.New(rand.NewSource(1))
	ts := make([]tuple.Tuple, keys)
	for i := range ts {
		ts[i] = tuple.Tuple{Index: uint64(i), Key: rng.Uint64()}
	}
	b.ResetTimer()
	var allocs int
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		b.StartTimer()
		tab := New(hashfn.DefaultSpace(), tuple.DefaultLayout())
		for c := 0; c < keys; c += chunk {
			tab.InsertAll(ts[c : c+chunk])
		}
		b.StopTimer()
		runtime.ReadMemStats(&after)
		allocs += int(after.Mallocs - before.Mallocs)
		b.StartTimer()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*keys), "ns/tuple")
	b.ReportMetric(float64(allocs)/float64(b.N*keys), "allocs/tuple")
}

// BenchmarkSeal times the one-shot seal of a staged table, in ns per
// staged tuple, and reports the bytes it allocates per staged tuple
// (TestSealReusesStagingBlocks bounds them): 750 000 random keys
// (BenchmarkProbeUnique's table) staged off the clock, then indexed by the
// first lookup. The seal runs one segment at a time, so a segment being
// filled is cache-resident.
func BenchmarkSeal(b *testing.B) {
	const keys = 750_000
	rng := rand.New(rand.NewSource(1))
	ts := make([]tuple.Tuple, keys)
	for i := range ts {
		ts[i] = tuple.Tuple{Index: uint64(i), Key: rng.Uint64()}
	}
	var alloc uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tab := New(hashfn.DefaultSpace(), tuple.DefaultLayout())
		tab.InsertAll(ts)
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		b.StartTimer()
		tab.seal()
		b.StopTimer()
		runtime.ReadMemStats(&after)
		alloc += after.TotalAlloc - before.TotalAlloc
		b.StartTimer()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*keys), "ns/tuple")
	b.ReportMetric(float64(alloc)/float64(b.N*keys), "B/tuple")
}

// BenchmarkExtractRanges is one member's side of a hybrid reshuffle: a
// staged 400 000-tuple table holding a replicated quarter of the space,
// re-cut among a 4-member group; the member keeps one piece and hands the
// other three over. "one-pass" is ExtractRanges, "per-range" the three
// ExtractRange passes it replaced.
func BenchmarkExtractRanges(b *testing.B) {
	const tuples = 400_000
	space := hashfn.DefaultSpace()
	quarter := space.Positions() / 4
	var pieces []hashfn.Range
	for k := 1; k < 4; k++ {
		pieces = append(pieces, hashfn.Range{Lo: k * quarter / 4, Hi: (k + 1) * quarter / 4})
	}
	fill := func() *Table {
		tab := New(space, tuple.DefaultLayout())
		rnd := uint64(0x9E3779B97F4A7C15)
		for i := 0; i < tuples; i++ {
			rnd ^= rnd << 13
			rnd ^= rnd >> 7
			rnd ^= rnd << 17
			tab.Insert(tuple.Tuple{Index: uint64(i), Key: rnd >> 2}) // positions in the first quarter
		}
		return tab
	}
	for _, bc := range []struct {
		name    string
		extract func(*Table) int
	}{
		{"one-pass", func(tab *Table) int {
			n := 0
			for _, ts := range tab.ExtractRanges(pieces) {
				n += len(ts)
			}
			return n
		}},
		{"per-range", func(tab *Table) int {
			n := 0
			for _, r := range pieces {
				n += len(tab.ExtractRange(r))
			}
			return n
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			moved := 0
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				tab := fill()
				runtime.GC()
				b.StartTimer()
				moved += bc.extract(tab)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(moved), "ns/moved")
		})
	}
}
