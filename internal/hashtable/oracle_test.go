package hashtable

import (
	"sort"
	"testing"

	"ehjoin/internal/hashfn"
	"ehjoin/internal/tuple"
)

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

// TestProbeAllMatchesPerMatchFold: the kernel folds tuple.MixPair inside
// the table, so nothing outside sees the pairs it visited. On every table
// shape a run can be in — staged then sealed, sealed then inserted, run
// members promoted into the slot, runs freed and reused, keys gone — and
// run lengths 0, 1, 2, odd and ≥ 1000, its matches and XOR must equal the
// fold over the tuples Probe(key, fn) hands out one by one. (spill.MixPair,
// the name the benchmark's oracle uses, cannot be imported here — spill
// imports this package; spill's own test pins it to tuple.MixPair.)
func TestProbeAllMatchesPerMatchFold(t *testing.T) {
	space := hashfn.Space{Bits: 8}
	runLens := []int{1, 2, 3, 7, 1000, 1501}
	const absentKeys = 3
	key := func(k int) uint64 { return uint64(k+1) * fibMul }

	newTable := func() *Table { return New(space, tuple.DefaultLayout()) }
	// Build tuple j of key k has index k<<32 | j, so predicates can pick
	// a run's first arrival (the slot's own tuple), its tail, or a key.
	insertHalf := func(k *Table, half int) {
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
	check := func(k *Table, state string, wantMatches int64) {
		t.Helper()
		for _, ts := range [][]tuple.Tuple{nil, probes[:1], probes} {
			var matches int64
			var xor uint64
			for _, p := range ts {
				matches += int64(k.Probe(p.Key, func(b tuple.Tuple) { xor ^= tuple.MixPair(b.Index, p.Index) }))
			}
			if m, x := k.ProbeAll(ts); m != matches || x != xor {
				t.Fatalf("%s, %d probes: ProbeAll = %d/%#x, per-match fold %d/%#x", state, len(ts), m, x, matches, xor)
			}
			if len(ts) == len(probes) && matches != wantMatches {
				t.Fatalf("%s: %d matches, want %d", state, matches, wantMatches)
			}
		}
	}
	var total, evens int64 // evens: the tuples insertHalf(k, 0) inserts
	for _, n := range runLens {
		total += int64(n)
		evens += int64(n+1) / 2
	}

	k := newTable() // staged, sealed by the first ProbeAll
	insertHalf(k, 0)
	insertHalf(k, 1)
	check(k, "staged then sealed", 3*total)

	k = newTable() // sealed empty: every tuple takes the growing path
	check(k, "empty", 0)
	insertHalf(k, 0)
	insertHalf(k, 1)
	check(k, "sealed then inserted", 3*total)

	k = newTable() // runs that straddle the seal, then shrink and regrow
	insertHalf(k, 0)
	check(k, "half staged", 3*evens)
	insertHalf(k, 1)
	check(k, "across the seal", 3*total)

	first := func(tp tuple.Tuple) bool { return tp.Index&(1<<32-1) == 0 }
	if moved := k.ExtractMatching(first); len(moved) != len(runLens) {
		t.Fatalf("extracted %d first arrivals, want %d", len(moved), len(runLens))
	}
	check(k, "run members promoted", 3*(total-int64(len(runLens)))) // key 0 is gone, key 1 lost its run

	tail := func(tp tuple.Tuple) bool { return tp.Index&(1<<32-1) > 1 }
	k.ExtractMatching(tail)
	check(k, "runs freed", 3*int64(len(runLens)-1)) // one tuple left of every key but key 0

	gone := space.PositionOf(key(4))
	k.ExtractRange(hashfn.Range{Lo: gone, Hi: gone + 1})
	if k.Probe(key(4), nil) != 0 {
		t.Fatal("key 4 survived ExtractRange of its position")
	}
	insertHalf(k, 0) // freed run indexes are handed out again
	check(k, "runs reused", 3*(evens+int64(len(runLens)-2)))
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
