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
// returns every tuple of the key and leaves the table untouched.
func TestTuplesWithKeyNonDestructive(t *testing.T) {
	tbl := New(testSpace, tuple.DefaultLayout())
	for i := uint64(0); i < 100; i++ {
		tbl.Insert(tuple.Tuple{Index: i, Key: 77 + i%2}) // half on key 77
	}
	got := tbl.TuplesWithKey(77)
	if len(got) != 50 {
		t.Errorf("TuplesWithKey(77) = %d tuples, want 50", len(got))
	}
	for _, tp := range got {
		if tp.Key != 77 {
			t.Errorf("returned foreign tuple %+v", tp)
		}
	}
	if tbl.Count() != 100 {
		t.Error("TuplesWithKey must not remove tuples")
	}
}
