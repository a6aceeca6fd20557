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

const maxStepsPerInsert = 8

var smallSpace = hashfn.Space{Bits: 8, Mode: hashfn.Multiplicative}

// insertAll inserts ts into a fresh table and fails the test if linear
// probing did more than maxStepsPerInsert steps per tuple.
func insertAll(t *testing.T, what string, space hashfn.Space, ts []tuple.Tuple) *hashtable.Table {
	t.Helper()
	tbl := hashtable.New(space, tuple.DefaultLayout())
	tbl.InsertAll(ts)
	if steps := tbl.Steps(); steps > maxStepsPerInsert*int64(len(ts)) {
		t.Fatalf("%s: %d probe steps for %d inserts (%.1f per insert)",
			what, steps, len(ts), float64(steps)/float64(len(ts)))
	}
	return tbl
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

// A join node holds the keys of one routing range: under Multiplicative
// routing they agree on the top bits of key*fibMul, under Scaled routing
// on the top bits of the key itself.
func TestOneRoutingRangeDoesNotCluster(t *testing.T) {
	for _, mode := range []hashfn.Mode{hashfn.Multiplicative, hashfn.Scaled} {
		space := hashfn.Space{Bits: 16, Mode: mode}
		r := hashfn.Range{Lo: 3 << 10, Hi: 4 << 10} // 1/64 of the positions
		insertAll(t, mode.String()+" range", space, keysWhere(100_000, func(k uint64) bool {
			return r.Contains(space.PositionOf(k))
		}))
	}
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

// Inserting a tuple of a new key allocates nothing; only segment growth
// allocates, and a table's footprint stays within 40 bytes per tuple.
func TestUniqueKeyInsertFootprint(t *testing.T) {
	const n = 200_000
	ts := keysWhere(n, func(uint64) bool { return true })
	allocs := testing.AllocsPerRun(3, func() {
		hashtable.New(smallSpace, tuple.DefaultLayout()).InsertAll(ts)
	})
	if perTuple := allocs / n; perTuple > 0.01 {
		t.Errorf("%.4f allocations per inserted tuple (%.0f per table), want <= 0.01", perTuple, allocs)
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	tbl := hashtable.New(smallSpace, tuple.DefaultLayout())
	tbl.InsertAll(ts)
	runtime.GC()
	runtime.ReadMemStats(&after)
	if perTuple := float64(after.HeapAlloc-before.HeapAlloc) / n; perTuple > 40 {
		t.Errorf("%.1f heap bytes per stored tuple, want <= 40", perTuple)
	}
	runtime.KeepAlive(tbl)
}
