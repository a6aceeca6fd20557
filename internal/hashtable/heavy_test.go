package hashtable

import (
	"math/rand"
	"reflect"
	"testing"

	"ehjoin/internal/hashfn"
	"ehjoin/internal/tuple"
)

// TestHeavyPositions pins the stage-1 histogram reduction.
func TestHeavyPositions(t *testing.T) {
	counts := []int64{0, 10, 3, 10, 9}
	got := HeavyPositions(counts, 100, 10)
	want := []int32{101, 103}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("HeavyPositions = %v, want %v", got, want)
	}
	if HeavyPositions(nil, 0, 1) != nil {
		t.Error("empty histogram should yield no positions")
	}
}

// TestKeyCountsAtFindsHeavyKey inserts a skewed workload and asserts that
// KeyCountsAt, at the candidate positions the table's own histogram flags,
// reports the heavy key with its mass, and pins the empty-input contracts.
// (The map-model differential in model_test.go checks the counts key by key.)
func TestKeyCountsAtFindsHeavyKey(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	pool := make([]uint64, 40)
	for i := range pool {
		pool[i] = rng.Uint64()
	}
	var ts []tuple.Tuple
	for i := 0; i < 5000; i++ {
		k := pool[rng.Intn(len(pool))]
		if i%3 == 0 {
			k = pool[0] // deliberate heavy hitter
		}
		ts = append(ts, tuple.Tuple{Index: uint64(i), Key: k})
	}

	tbl := New(testSpace, tuple.DefaultLayout())
	tbl.InsertAll(ts)
	full := hashfn.Range{Lo: 0, Hi: testSpace.Positions()}
	hist := tbl.CountsInRange(full)
	positions := HeavyPositions(hist, full.Lo, int64(len(ts))/10)
	if len(positions) == 0 {
		t.Fatal("workload produced no candidate positions; heavy hitter missing")
	}
	wantKeys, wantCounts := tbl.KeyCountsAt(positions)
	if len(wantKeys) == 0 {
		t.Fatal("KeyCountsAt returned nothing at candidate positions")
	}
	foundHeavy := false
	for i, k := range wantKeys {
		if k == pool[0] && wantCounts[i] >= int64(len(ts))/3 {
			foundHeavy = true
		}
	}
	if !foundHeavy {
		t.Fatalf("heavy key %#x not among key counts %v / %v", pool[0], wantKeys, wantCounts)
	}

	// Empty-input contracts.
	if k, c := tbl.KeyCountsAt(nil); k != nil || c != nil {
		t.Error("KeyCountsAt(nil) should return nil, nil")
	}
	if k, c := New(testSpace, tuple.DefaultLayout()).KeyCountsAt(positions); k != nil || c != nil {
		t.Error("empty table KeyCountsAt should return nil, nil")
	}
}

// TestTuplesWithKeyNonDestructive checks the replication snapshot helper
// returns every tuple of the key, in arrival order, and leaves the table
// untouched: a staged table stays staged (heavy replication runs before
// the first probe), and a sealed one answers in the same order.
func TestTuplesWithKeyNonDestructive(t *testing.T) {
	for _, sealed := range []bool{false, true} {
		tbl := New(testSpace, tuple.DefaultLayout())
		var want []tuple.Tuple
		for i := uint64(0); i < 100; i++ {
			tp := tuple.Tuple{Index: wideIndex(i), Key: 77 + i%2} // half on key 77
			tbl.Insert(tp)
			if tp.Key == 77 {
				want = append(want, tp)
			}
		}
		if sealed {
			tbl.Probe(0, nil)
		}
		got := tbl.TuplesWithKey(77)
		if len(got) != len(want) {
			t.Fatalf("sealed %v: TuplesWithKey(77) = %d tuples, want %d", sealed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("sealed %v: tuple %d is %+v, want %+v (arrival order)", sealed, i, got[i], want[i])
			}
		}
		if tbl.sealed != sealed {
			t.Errorf("sealed %v: TuplesWithKey left the table sealed = %v", sealed, tbl.sealed)
		}
		if tbl.Count() != 100 {
			t.Error("TuplesWithKey must not remove tuples")
		}
		checkStaged(t, tbl)
	}
}
