package hashtable

import (
	"math/rand"
	"sort"
	"testing"

	"ehjoin/internal/hashfn"
	"ehjoin/internal/tuple"
)

// The table-level differential oracle: a Sharded table driven through
// randomized batched workloads must be observationally identical to a
// serial Table fed the same tuples — result multisets, aggregate counts
// and bytes, per-position histograms, and the sequence of
// budget-overflow events.

func sortTuples(ts []tuple.Tuple) {
	sort.Slice(ts, func(i, j int) bool {
		if ts[i].Key != ts[j].Key {
			return ts[i].Key < ts[j].Key
		}
		return ts[i].Index < ts[j].Index
	})
}

func sameMultiset(t *testing.T, what string, got, want []tuple.Tuple) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d tuples, want %d", what, len(got), len(want))
	}
	g := append([]tuple.Tuple(nil), got...)
	w := append([]tuple.Tuple(nil), want...)
	sortTuples(g)
	sortTuples(w)
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("%s: multiset mismatch at %d: %v vs %v", what, i, g[i], w[i])
		}
	}
}

// TestShardedMatchesSerialTable drives random batch workloads — build
// batches, probe batches, range extractions, histogram reads, overflow
// checks — through a serial Table and Sharded tables at several shard
// counts, demanding identical observable behaviour at every step.
func TestShardedMatchesSerialTable(t *testing.T) {
	for _, shards := range []int{2, 3, 8} {
		shards := shards
		t.Run(map[int]string{2: "shards=2", 3: "shards=3", 8: "shards=8"}[shards], func(t *testing.T) {
			pool := NewPool(shards)
			defer pool.Close()
			for seed := int64(1); seed <= 5; seed++ {
				runShardedOracle(t, shards, pool, seed)
			}
		})
	}
}

func runShardedOracle(t *testing.T, shards int, pool *Pool, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	space := hashfn.Space{Bits: uint(6 + rng.Intn(6)), Mode: hashfn.Scaled}
	if rng.Intn(2) == 0 {
		space.Mode = hashfn.Multiplicative
	}
	layout := tuple.LayoutForTupleSize(16 + rng.Intn(200))
	serial := New(space, layout)
	sharded := NewSharded(space, layout, shards, pool)

	budget := int64(200<<10 + rng.Intn(400<<10))
	var serialOverflows, shardedOverflows []int
	keyPool := make([]uint64, 200)
	for i := range keyPool {
		keyPool[i] = rng.Uint64()
	}
	next := uint64(0)
	batch := func(n int) []tuple.Tuple {
		ts := make([]tuple.Tuple, n)
		for i := range ts {
			next++
			ts[i] = tuple.Tuple{Index: next, Key: keyPool[rng.Intn(len(keyPool))]}
		}
		return ts
	}

	for step := 0; step < 40; step++ {
		switch rng.Intn(10) {
		case 0, 1, 2, 3: // build batch
			ts := batch(1 + rng.Intn(3000))
			for _, tp := range ts {
				serial.Insert(tp)
			}
			st := sharded.InsertAll(ts)
			if st.Total() != int64(len(ts)) {
				t.Fatalf("step %d: InsertAll accounted %d of %d tuples", step, st.Total(), len(ts))
			}
		case 4, 5, 6: // probe batch
			ts := batch(1 + rng.Intn(2000))
			var wantMatches int64
			var wantXor uint64
			for _, p := range ts {
				wantMatches += int64(serial.Probe(p.Key, func(b tuple.Tuple) {
					wantXor ^= tuple.MixPair(b.Index, p.Index)
				}))
			}
			gotMatches, gotXor, st := sharded.ProbeAll(ts)
			if gotMatches != wantMatches || gotXor != wantXor {
				t.Fatalf("step %d: probe %d/%#x, want %d/%#x",
					step, gotMatches, gotXor, wantMatches, wantXor)
			}
			if st.TotalMatches() != wantMatches {
				t.Fatalf("step %d: per-shard matches sum %d, want %d",
					step, st.TotalMatches(), wantMatches)
			}
		case 7: // extract a routing range (split / purge / reshuffle)
			lo := rng.Intn(space.Positions())
			r := hashfn.Range{Lo: lo, Hi: lo + 1 + rng.Intn(space.Positions()-lo)}
			sameMultiset(t, "ExtractRange", sharded.ExtractRange(r), serial.ExtractRange(r))
		case 8: // per-position histogram (reshuffle count phase)
			lo := rng.Intn(space.Positions())
			r := hashfn.Range{Lo: lo, Hi: lo + 1 + rng.Intn(space.Positions()-lo)}
			got, want := sharded.CountsInRange(r), serial.CountsInRange(r)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("step %d: CountsInRange[%d] = %d, want %d", step, i, got[i], want[i])
				}
			}
		case 9: // full-table scan (clone path)
			var got, want []tuple.Tuple
			sharded.ForEach(func(tp tuple.Tuple) { got = append(got, tp) })
			serial.ForEach(func(tp tuple.Tuple) { want = append(want, tp) })
			sameMultiset(t, "ForEach", got, want)
		}
		if serial.Count() != sharded.Count() || serial.Bytes() != sharded.Bytes() {
			t.Fatalf("step %d: count/bytes %d/%d, want %d/%d",
				step, sharded.Count(), sharded.Bytes(), serial.Count(), serial.Bytes())
		}
		// The memory-overflow predicate must fire on identical steps.
		if serial.Bytes() > budget {
			serialOverflows = append(serialOverflows, step)
		}
		if sharded.Bytes() > budget {
			shardedOverflows = append(shardedOverflows, step)
		}
	}
	if len(serialOverflows) != len(shardedOverflows) {
		t.Fatalf("overflow sequences diverge: %v vs %v", serialOverflows, shardedOverflows)
	}
	for i := range serialOverflows {
		if serialOverflows[i] != shardedOverflows[i] {
			t.Fatalf("overflow sequences diverge at %d: %v vs %v",
				i, serialOverflows, shardedOverflows)
		}
	}
}

// TestShardedSerialFallbacks covers the serial Table-compatible entry
// points a sharded node uses off the hot path.
func TestShardedSerialFallbacks(t *testing.T) {
	space := hashfn.Space{Bits: 8, Mode: hashfn.Scaled}
	s := NewSharded(space, tuple.DefaultLayout(), 4, nil)
	serial := New(space, tuple.DefaultLayout())
	rng := rand.New(rand.NewSource(7))
	var ts []tuple.Tuple
	for i := 0; i < 5000; i++ {
		tp := tuple.Tuple{Index: uint64(i), Key: rng.Uint64() % 512}
		ts = append(ts, tp)
		s.Insert(tp)
		serial.Insert(tp)
	}
	c := &tuple.Chunk{Rel: tuple.RelR, Layout: tuple.DefaultLayout(), Tuples: ts[:100]}
	s.InsertChunk(c)
	serial.InsertChunk(c)
	for key := uint64(0); key < 512; key++ {
		if got, want := s.Probe(key, nil), serial.Probe(key, nil); got != want {
			t.Fatalf("Probe(%d) = %d, want %d", key, got, want)
		}
	}
	sameMultiset(t, "ExtractMatching",
		s.ExtractMatching(func(tp tuple.Tuple) bool { return tp.Key%3 == 0 }),
		serial.ExtractMatching(func(tp tuple.Tuple) bool { return tp.Key%3 == 0 }))
	if s.Count() != serial.Count() {
		t.Fatalf("Count = %d, want %d", s.Count(), serial.Count())
	}
	loads := s.ShardLoads()
	var sum int64
	for _, l := range loads {
		sum += l
	}
	if int64(len(loads)) != 4 || sum != s.Count() {
		t.Fatalf("ShardLoads %v does not partition Count %d", loads, s.Count())
	}
	s.Reset()
	if s.Count() != 0 || s.Bytes() != 0 {
		t.Fatalf("Reset left count=%d bytes=%d", s.Count(), s.Bytes())
	}
	if s.Layout() != tuple.DefaultLayout() {
		t.Fatal("Layout mismatch")
	}
}

// probeTable is the method set Table and Sharded share that the
// match-kernel differential needs; their ProbeAll signatures differ.
type probeTable interface {
	Insert(tuple.Tuple)
	Probe(key uint64, fn func(tuple.Tuple)) int
	ExtractMatching(func(tuple.Tuple) bool) []tuple.Tuple
	ExtractRange(hashfn.Range) []tuple.Tuple
}

// probeKernel is one table under the differential: the per-match entry
// point Probe is the reference, probeAll the kernel under test.
type probeKernel struct {
	name string
	probeTable
	probeAll func([]tuple.Tuple) (int64, uint64)
}

// TestProbeAllMatchesPerMatchFold: the kernel folds tuple.MixPair inside
// the table, so nothing outside sees the pairs it visited. On every table
// shape a run can be in — staged then sealed, sealed then inserted, run
// members promoted into the slot, runs freed and reused, keys gone — and
// run lengths 0, 1, 2, odd and ≥ 1000, its matches and XOR must equal the
// fold over the tuples Probe(key, fn) hands out one by one. (spill.MixPair,
// the name the benchmark's oracle uses, cannot be imported here — spill
// imports this package; spill's own test pins it to tuple.MixPair.)
func TestProbeAllMatchesPerMatchFold(t *testing.T) {
	space := hashfn.Space{Bits: 8, Mode: hashfn.Scaled}
	runLens := []int{1, 2, 3, 7, 1000, 1501}
	const absentKeys = 3
	key := func(k int) uint64 { return uint64(k+1) * fibMul }

	pool := NewPool(3)
	defer pool.Close()
	kernels := func() []probeKernel {
		tbl := New(space, tuple.DefaultLayout())
		sh := NewSharded(space, tuple.DefaultLayout(), 3, pool)
		return []probeKernel{
			{"Table", tbl, tbl.ProbeAll},
			{"Sharded", sh, func(ts []tuple.Tuple) (int64, uint64) {
				m, x, st := sh.ProbeAll(ts)
				if st.TotalMatches() != m {
					t.Errorf("Sharded: per-shard matches sum %d, total %d", st.TotalMatches(), m)
				}
				return m, x
			}},
		}
	}
	// Build tuple j of key k has index k<<32 | j, so predicates can pick
	// a run's first arrival (the slot's own tuple), its tail, or a key.
	insertHalf := func(k probeKernel, half int) {
		for ki, n := range runLens {
			for j := 0; j < n; j++ {
				if j%2 == half {
					k.Insert(tuple.Tuple{Index: uint64(ki)<<32 | uint64(j), Key: key(ki)})
				}
			}
		}
	}
	var probes []tuple.Tuple
	for i := 0; i < 3*(len(runLens)+absentKeys); i++ {
		probes = append(probes, tuple.Tuple{Index: 1<<48 + uint64(i), Key: key(i % (len(runLens) + absentKeys))})
	}
	check := func(k probeKernel, state string, wantMatches int64) {
		t.Helper()
		for _, ts := range [][]tuple.Tuple{nil, probes[:1], probes} {
			var matches int64
			var xor uint64
			for _, p := range ts {
				matches += int64(k.Probe(p.Key, func(b tuple.Tuple) { xor ^= tuple.MixPair(b.Index, p.Index) }))
			}
			if m, x := k.probeAll(ts); m != matches || x != xor {
				t.Fatalf("%s %s, %d probes: ProbeAll = %d/%#x, per-match fold %d/%#x", k.name, state, len(ts), m, x, matches, xor)
			}
			if len(ts) == len(probes) && matches != wantMatches {
				t.Fatalf("%s %s: %d matches, want %d", k.name, state, matches, wantMatches)
			}
		}
	}
	var total, evens int64 // evens: the tuples insertHalf(k, 0) inserts
	for _, n := range runLens {
		total += int64(n)
		evens += int64(n+1) / 2
	}

	for _, k := range kernels() { // staged, sealed by the first ProbeAll
		insertHalf(k, 0)
		insertHalf(k, 1)
		check(k, "staged then sealed", 3*total)
	}
	for _, k := range kernels() { // sealed empty: every tuple takes the growing path
		check(k, "empty", 0)
		insertHalf(k, 0)
		insertHalf(k, 1)
		check(k, "sealed then inserted", 3*total)
	}
	for _, k := range kernels() { // runs that straddle the seal, then shrink and regrow
		insertHalf(k, 0)
		check(k, "half staged", 3*evens)
		insertHalf(k, 1)
		check(k, "across the seal", 3*total)

		first := func(tp tuple.Tuple) bool { return tp.Index&(1<<32-1) == 0 }
		if moved := k.ExtractMatching(first); len(moved) != len(runLens) {
			t.Fatalf("%s: extracted %d first arrivals, want %d", k.name, len(moved), len(runLens))
		}
		check(k, "run members promoted", 3*(total-int64(len(runLens)))) // key 0 is gone, key 1 lost its run

		tail := func(tp tuple.Tuple) bool { return tp.Index&(1<<32-1) > 1 }
		k.ExtractMatching(tail)
		check(k, "runs freed", 3*int64(len(runLens)-1)) // one tuple left of every key but key 0

		gone := space.PositionOf(key(4))
		k.ExtractRange(hashfn.Range{Lo: gone, Hi: gone + 1})
		if k.Probe(key(4), nil) != 0 {
			t.Fatalf("%s: key 4 survived ExtractRange of its position", k.name)
		}
		insertHalf(k, 0) // freed run indexes are handed out again
		check(k, "runs reused", 3*(evens+int64(len(runLens)-2)))
	}
}

// The kernel allocates nothing: no closure, no per-chunk scratch.
func TestProbeAllDoesNotAllocate(t *testing.T) {
	tbl := New(testSpace, tuple.DefaultLayout())
	var probes []tuple.Tuple
	for i := 0; i < 4000; i++ {
		tbl.Insert(tuple.Tuple{Index: uint64(i), Key: uint64(i%40) * fibMul})
		probes = append(probes, tuple.Tuple{Index: uint64(i), Key: uint64(i%80) * fibMul})
	}
	tbl.ProbeAll(probes) // seals
	if allocs := testing.AllocsPerRun(10, func() { tbl.ProbeAll(probes) }); allocs != 0 {
		t.Errorf("ProbeAll allocates %v times per call on a sealed table", allocs)
	}
}
