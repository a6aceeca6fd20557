package hashtable

import (
	"math/rand"
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
// shape a run can be in — staged then sealed, sealed then inserted and
// resealed, a run's first arrival extracted, runs emptied and refilled,
// keys gone — and run lengths 0, 1, 2, odd and ≥ 1000, its matches and
// XOR must equal the fold over the tuples Probe(key, fn) hands out one by
// one. (spill.MixPair, the name the benchmark's oracle uses, cannot be
// imported here — spill imports this package; spill's own test pins it to
// tuple.MixPair.)
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

	k = newTable() // sealed empty, unsealed by the first insert
	check(k, "empty", 0)
	insertHalf(k, 0)
	insertHalf(k, 1)
	check(k, "sealed then inserted", 3*total)

	k = newTable() // runs that straddle a reseal, then shrink and regrow
	insertHalf(k, 0)
	check(k, "half staged", 3*evens)
	insertHalf(k, 1)
	check(k, "across the seal", 3*total)

	first := func(tp tuple.Tuple) bool { return tp.Index&(1<<32-1) == 0 }
	if moved := k.ExtractMatching(first); len(moved) != len(runLens) {
		t.Fatalf("extracted %d first arrivals, want %d", len(moved), len(runLens))
	}
	check(k, "first arrivals extracted", 3*(total-int64(len(runLens)))) // key 0 is gone, key 1 lost its run

	tail := func(tp tuple.Tuple) bool { return tp.Index&(1<<32-1) > 1 }
	k.ExtractMatching(tail)
	check(k, "runs emptied", 3*int64(len(runLens)-1)) // one tuple left of every key but key 0

	gone := space.PositionOf(key(4))
	k.ExtractRange(hashfn.Range{Lo: gone, Hi: gone + 1})
	if k.Probe(key(4), nil) != 0 {
		t.Fatal("key 4 survived ExtractRange of its position")
	}
	insertHalf(k, 0)
	check(k, "runs refilled", 3*(evens+int64(len(runLens)-2)))
}

// TestProbeAllGroupBoundaries: ProbeAll hashes and prefetches a group of
// probeGroup tuples before it resolves any of them. Batches that end on,
// just before and just past a group boundary must meet the per-key Probe
// fold, on a staged table (the seal runs inside the call) and a sealed
// one, a sparse table whose segments are mostly empty (never allocated)
// and a dense one with duplicate runs, and with a third of the probe keys
// absent.
func TestProbeAllGroupBoundaries(t *testing.T) {
	shapes := []struct {
		name       string
		keys, dups int // dups: tuples per key for every fourth key
	}{{"sparse", 8, 3}, {"dense", 3000, 5}} // 8 keys leave at least 56 of 64 segments empty
	for _, sh := range shapes {
		for _, n := range []int{0, 1, 15, 16, 17, 33, 1000} {
			for _, staged := range []bool{true, false} {
				rng := rand.New(rand.NewSource(int64(41*n + sh.keys)))
				tbl := New(testSpace, tuple.DefaultLayout())
				stored := make([]uint64, sh.keys)
				for k := range stored {
					stored[k] = rng.Uint64()
					copies := 1
					if k%4 == 0 {
						copies = sh.dups
					}
					for c := 0; c < copies; c++ {
						tbl.Insert(tuple.Tuple{Index: uint64(k)<<8 | uint64(c), Key: stored[k]})
					}
				}
				if !staged {
					tbl.Probe(0, nil)
				}
				probes := make([]tuple.Tuple, n)
				for i := range probes {
					key := stored[rng.Intn(sh.keys)]
					if i%3 == 2 {
						key = rng.Uint64() // absent with overwhelming probability
					}
					probes[i] = tuple.Tuple{Index: 1<<40 + uint64(i), Key: key}
				}
				m, x := tbl.ProbeAll(probes) // a staged table seals here
				var matches int64
				var xor uint64
				for _, p := range probes {
					matches += int64(tbl.Probe(p.Key, func(b tuple.Tuple) { xor ^= tuple.MixPair(b.Index, p.Index) }))
				}
				if m != matches || x != xor {
					t.Errorf("%s, staged %v, %d probes: ProbeAll = %d/%#x, per-key fold %d/%#x",
						sh.name, staged, n, m, x, matches, xor)
				}
			}
		}
	}
}

// The kernel allocates nothing: no closure, no per-chunk scratch, and the
// group's hashes, homes and prefetch pointers stay on the stack. One arm
// probes duplicate runs, the other unique keys across 250 groups; both
// probe absent keys too.
func TestProbeAllDoesNotAllocate(t *testing.T) {
	for _, keys := range []int{40, 4000} {
		tbl := New(testSpace, tuple.DefaultLayout())
		var probes []tuple.Tuple
		for i := 0; i < 4000; i++ {
			tbl.Insert(tuple.Tuple{Index: uint64(i), Key: uint64(i%keys) * fibMul})
			probes = append(probes, tuple.Tuple{Index: uint64(i), Key: uint64(7*i%(2*keys)) * fibMul})
		}
		tbl.ProbeAll(probes) // seals
		if allocs := testing.AllocsPerRun(10, func() { tbl.ProbeAll(probes) }); allocs != 0 {
			t.Errorf("%d keys: ProbeAll allocates %v times per call on a sealed table", keys, allocs)
		}
	}
}
