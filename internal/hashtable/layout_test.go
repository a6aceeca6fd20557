package hashtable_test

import (
	"math/rand"
	"runtime"
	"testing"

	"ehjoin/internal/hashfn"
	"ehjoin/internal/hashtable"
	"ehjoin/internal/spill"
	"ehjoin/internal/tuple"
)

// One test per way the flat layout can go quadratic or fat (DESIGN.md
// "Join-node table layout"). The probe-step bound is loose — a healthy
// table filling to load ¾ and growing ×1.5 steps over four to five
// occupied slots per insert, growth included; the failures it guards
// against are hundreds.
//
// Each order is inserted into both kinds of receiver: a staged table,
// which indexes the tuples in one go at its first lookup, and a table
// sealed by a lookup before the first insert, which probes and grows per
// tuple as a probe-phase insert does.

const maxStepsPerInsert = 8

var smallSpace = hashfn.Space{Bits: 8}

// insertAll inserts ts into a fresh staged table and into a fresh sealed
// one, and fails the test if indexing them did more than maxStepsPerInsert
// linear-probing steps per tuple in either. It returns the first table,
// sealed by now.
func insertAll(t *testing.T, what string, space hashfn.Space, ts []tuple.Tuple) *hashtable.Table {
	t.Helper()
	var staged *hashtable.Table
	for _, receiver := range []string{"staged", "sealed"} {
		tbl := hashtable.New(space, tuple.DefaultLayout())
		if receiver == "sealed" {
			tbl.Probe(0, nil)
		} else {
			staged = tbl
		}
		tbl.InsertAll(ts)
		tbl.Probe(0, nil) // the staged receiver indexes here
		if steps := tbl.Steps(); steps > maxStepsPerInsert*int64(len(ts)) {
			t.Fatalf("%s into a %s table: %d probe steps for %d inserts (%.1f per insert)",
				what, receiver, steps, len(ts), float64(steps)/float64(len(ts)))
		}
	}
	return staged
}

// keysWhere draws n distinct-with-overwhelming-probability random keys
// satisfying ok.
func keysWhere(n int, ok func(uint64) bool) []tuple.Tuple {
	rng := rand.New(rand.NewSource(11))
	ts := make([]tuple.Tuple, 0, n)
	for len(ts) < n {
		if k := rng.Uint64(); ok(k) {
			ts = append(ts, tuple.Tuple{Index: uint64(len(ts)), Key: k})
		}
	}
	return ts
}

// The Grace finish builds one table from the keys of one spill partition:
// they agree on the top bits of key*fibMul.
func TestOneSpillPartitionDoesNotCluster(t *testing.T) {
	insertAll(t, "keys of spill partition 5 of 32", smallSpace, keysWhere(100_000, func(k uint64) bool {
		return spill.PartitionOf(k, 32) == 5
	}))
}

// A join node holds the keys of one routing range: they agree on the top
// bits of the key itself.
func TestOneRoutingRangeDoesNotCluster(t *testing.T) {
	space := hashfn.Space{Bits: 16}
	r := hashfn.Range{Lo: 3 << 10, Hi: 4 << 10} // 1/64 of the positions
	insertAll(t, "routing range", space, keysWhere(100_000, func(k uint64) bool {
		return r.Contains(space.PositionOf(k))
	}))
}

// A split or reshuffle ships ExtractRange's result in returned (slot)
// order and the receiver inserts it in that order into a smaller, growing
// table: the order must not be the receiver's own slot order.
func TestReinsertInExtractedOrderDoesNotCluster(t *testing.T) {
	src := insertAll(t, "source", smallSpace, keysWhere(300_000, func(uint64) bool { return true }))
	moved := src.ExtractRange(hashfn.Range{Lo: 0, Hi: smallSpace.Positions() / 2})
	if len(moved) < 100_000 {
		t.Fatalf("extracted only %d tuples", len(moved))
	}
	insertAll(t, "re-insert in extracted order", smallSpace, moved)
}

// The tag's 6 hash bits must spread the keys of one segment over all 64
// values whatever set the keys come from: a probe reads a slot only where
// the tag matches. Tags taken from the bits that choose the segment are
// one value per segment, every probe step reads its slot again, and a
// unique-key probe at 750 k keys costs 117 ns instead of 92
// (BenchmarkProbeUnique, hit=all, medians of six runs on a 2-vCPU Xeon).
func TestTagsSpreadWithinSegment(t *testing.T) {
	const n, seg = 100_000, 17
	space := hashfn.Space{Bits: 16}
	r := hashfn.Range{Lo: 3 << 10, Hi: 4 << 10} // 1/64 of the positions
	const fibInverse = 0xF1DE83E19937733D       // spill's multiplier inverted mod 2^64
	for _, set := range []struct {
		name string
		draw func(*rand.Rand) uint64
		ok   func(uint64) bool
	}{
		{"uniform", (*rand.Rand).Uint64, func(uint64) bool { return true }},
		{"one routing range",
			func(rng *rand.Rand) uint64 { return 3<<58 | rng.Uint64()>>6 },
			func(k uint64) bool { return r.Contains(space.PositionOf(k)) }},
		{"spill partition 5 of 32",
			func(rng *rand.Rand) uint64 { return (5<<59 | rng.Uint64()>>5) * fibInverse },
			func(k uint64) bool { return spill.PartitionOf(k, 32) == 5 }},
	} {
		rng := rand.New(rand.NewSource(13))
		tbl := hashtable.New(space, tuple.DefaultLayout())
		for i := 0; i < n; {
			k := set.draw(rng)
			if !set.ok(k) {
				t.Fatalf("%s: drew key %#x outside the set", set.name, k)
			}
			if hashtable.SegmentOf(k) == seg {
				tbl.Insert(tuple.Tuple{Index: uint64(i), Key: k})
				i++
			}
		}
		tbl.Probe(0, nil) // seals
		counts := tbl.TagHashCounts(seg)
		share := n / len(counts)
		for v, c := range counts {
			if c < share/2 || c > 2*share {
				t.Errorf("%s: tag hash %#x on %d of %d keys, want %d to %d", set.name, v, c, n, share/2, 2*share)
				break
			}
		}
	}
}

// Staging a tuple allocates 1/1024 of a block and holds the tuple's 16
// bytes; the seal adds 17-byte slots (16 for the tuple, 1 for its tag) at
// load ¾ and drops the blocks, so a table stays within 25 bytes per tuple
// (4-byte tags read about 27). The allocation bound is checked at
// 200 k tuples, where the seven small blocks of each segment's ladder
// (16 to 1024 tuples) weigh more; the footprints at one worker's share of
// the benchmark's build relation, where the half-empty open blocks are
// under a byte per tuple.
func TestUniqueKeyInsertFootprint(t *testing.T) {
	ts := keysWhere(750_000, func(uint64) bool { return true })
	const nAllocs = 200_000
	allocs := testing.AllocsPerRun(3, func() {
		hashtable.New(smallSpace, tuple.DefaultLayout()).InsertAll(ts[:nAllocs])
	})
	if perTuple := allocs / nAllocs; perTuple > 0.01 {
		t.Errorf("%.4f allocations per staged tuple (%.0f per table), want <= 0.01", perTuple, allocs)
	}

	heapPerTuple := func(before *runtime.MemStats) float64 {
		var after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&after)
		return (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(len(ts))
	}
	var before runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	tbl := hashtable.New(smallSpace, tuple.DefaultLayout())
	tbl.InsertAll(ts)
	if perTuple := heapPerTuple(&before); perTuple > 18 {
		t.Errorf("%.1f heap bytes per staged tuple, want <= 18", perTuple)
	}
	tbl.Probe(0, nil)
	perTuple := heapPerTuple(&before)
	t.Logf("%.1f heap bytes per tuple after the seal", perTuple)
	if perTuple > 25 {
		t.Errorf("%.1f heap bytes per tuple after the seal, want <= 25", perTuple)
	}
	runtime.KeepAlive(ts) // allocated before the baseline: it must not leave the heap
	runtime.KeepAlive(tbl)
}

// A duplicate-run member is one 8-byte word (tuple.RunWord of its index;
// the slot holds the key), so a sealed table of 200 keys with a thousand
// tuples each stays within 12 heap bytes per duplicate, append's slack
// included; a whole 16-byte tuple per duplicate reads about 20.
func TestDuplicateRunFootprint(t *testing.T) {
	const n, keys = 200_000, 200
	ts := make([]tuple.Tuple, n)
	for i := range ts {
		ts[i] = tuple.Tuple{Index: uint64(i), Key: uint64(i%keys) * 0x9E3779B97F4A7C15}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	tbl := hashtable.New(smallSpace, tuple.DefaultLayout())
	tbl.InsertAll(ts)
	tbl.Probe(0, nil) // seals: the staging blocks become garbage
	runtime.GC()
	runtime.ReadMemStats(&after)
	perDup := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / (n - keys)
	t.Logf("%.1f heap bytes per duplicate", perDup)
	if perDup > 12 {
		t.Errorf("%.1f heap bytes per duplicate, want <= 12", perDup)
	}
	runtime.KeepAlive(ts)
	runtime.KeepAlive(tbl)
}
