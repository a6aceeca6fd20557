package hashtable

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ehjoin/internal/hashfn"
	"ehjoin/internal/tuple"
)

var testSpace = hashfn.Space{Bits: 8}

func TestInsertProbeAgainstMapModel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tbl := New(testSpace, tuple.DefaultLayout())
		model := make(map[uint64]int)
		// Insert with deliberate duplicates from a small key pool.
		pool := make([]uint64, 50)
		for i := range pool {
			pool[i] = rng.Uint64()
		}
		for i := 0; i < 3000; i++ {
			k := pool[rng.Intn(len(pool))]
			tbl.Insert(tuple.Tuple{Index: uint64(i), Key: k})
			model[k]++
		}
		for _, k := range pool {
			if tbl.Probe(k, nil) != model[k] {
				return false
			}
		}
		// A key not in the pool should (almost surely) miss.
		return tbl.Probe(rng.Uint64()|1<<63, nil) == model[rng.Uint64()]*0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestProbeCallbackReceivesBuildTuples(t *testing.T) {
	tbl := New(testSpace, tuple.DefaultLayout())
	tbl.Insert(tuple.Tuple{Index: 1, Key: 99})
	tbl.Insert(tuple.Tuple{Index: 2, Key: 99})
	tbl.Insert(tuple.Tuple{Index: 3, Key: 100})
	var got []uint64
	n := tbl.Probe(99, func(b tuple.Tuple) { got = append(got, b.Index) })
	if n != 2 || len(got) != 2 {
		t.Fatalf("probe(99) = %d matches, callbacks %v", n, got)
	}
	seen := map[uint64]bool{got[0]: true, got[1]: true}
	if !seen[1] || !seen[2] {
		t.Errorf("callback indices %v, want {1,2}", got)
	}
}

func TestBytesAccounting(t *testing.T) {
	layout := tuple.LayoutForTupleSize(200)
	tbl := New(testSpace, layout)
	for i := 0; i < 1000; i++ {
		tbl.Insert(tuple.Tuple{Index: uint64(i), Key: uint64(i) << 40})
	}
	if tbl.Bytes() != 200*1000 {
		t.Errorf("bytes = %d, want 200000", tbl.Bytes())
	}
	if tbl.Count() != 1000 {
		t.Errorf("count = %d", tbl.Count())
	}
	if tbl.Layout() != layout {
		t.Error("layout not retained")
	}
}

func TestGrowPreservesContents(t *testing.T) {
	tbl := New(testSpace, tuple.DefaultLayout())
	// Far beyond minBuckets*bucketLoad to force several rehashes.
	n := 50000
	for i := 0; i < n; i++ {
		tbl.Insert(tuple.Tuple{Index: uint64(i), Key: uint64(i) * 0x9E3779B97F4A7C15})
	}
	for i := 0; i < n; i += 997 {
		if tbl.Probe(uint64(i)*0x9E3779B97F4A7C15, nil) != 1 {
			t.Fatalf("key for index %d lost after growth", i)
		}
	}
}

func TestCountsInRange(t *testing.T) {
	tbl := New(testSpace, tuple.DefaultLayout())
	// Position of key k<<56 in an 8-bit scaled space is k.
	for pos := 0; pos < 10; pos++ {
		for j := 0; j <= pos; j++ {
			tbl.Insert(tuple.Tuple{Index: uint64(j), Key: uint64(pos) << 56})
		}
	}
	counts := tbl.CountsInRange(hashfn.Range{Lo: 2, Hi: 6})
	want := []int64{3, 4, 5, 6}
	for i, w := range want {
		if counts[i] != w {
			t.Errorf("counts[%d] = %d, want %d", i, counts[i], w)
		}
	}
}

func TestExtractRange(t *testing.T) {
	tbl := New(testSpace, tuple.DefaultLayout())
	total := 0
	for pos := 0; pos < 16; pos++ {
		for j := 0; j < 5; j++ {
			tbl.Insert(tuple.Tuple{Index: uint64(pos*5 + j), Key: uint64(pos)<<56 + uint64(j)})
			total++
		}
	}
	r := hashfn.Range{Lo: 8, Hi: 16}
	moved := tbl.ExtractRange(r)
	if len(moved) != 40 {
		t.Fatalf("extracted %d tuples, want 40", len(moved))
	}
	for _, tp := range moved {
		if p := testSpace.PositionOf(tp.Key); !r.Contains(p) {
			t.Errorf("extracted tuple at position %d outside %v", p, r)
		}
	}
	if tbl.Count() != int64(total-40) {
		t.Errorf("count after extract = %d", tbl.Count())
	}
	if tbl.Bytes() != tbl.Count()*int64(tbl.Layout().LogicalSize()) {
		t.Errorf("bytes/count accounting diverged")
	}
	// Extracted keys must no longer probe; retained keys must.
	if tbl.Probe(uint64(9)<<56, nil) != 0 {
		t.Error("extracted key still probes")
	}
	if tbl.Probe(uint64(3)<<56, nil) != 1 {
		t.Error("retained key lost")
	}
	// Position counts in the extracted range must be zero.
	for _, c := range tbl.CountsInRange(r) {
		if c != 0 {
			t.Error("position counts not cleared after extract")
		}
	}
}

func TestExtractThenReinsert(t *testing.T) {
	tbl := New(testSpace, tuple.DefaultLayout())
	for i := 0; i < 2000; i++ {
		tbl.Insert(tuple.Tuple{Index: uint64(i), Key: rand.New(rand.NewSource(int64(i))).Uint64()})
	}
	r := hashfn.Range{Lo: 0, Hi: 128}
	moved := tbl.ExtractRange(r)
	for _, tp := range moved {
		tbl.Insert(tp)
	}
	if tbl.Count() != 2000 {
		t.Errorf("count after round trip = %d", tbl.Count())
	}
}

func TestReset(t *testing.T) {
	tbl := New(testSpace, tuple.DefaultLayout())
	for i := 0; i < 100; i++ {
		tbl.Insert(tuple.Tuple{Index: uint64(i), Key: uint64(i) << 50})
	}
	tbl.Reset()
	if tbl.Count() != 0 || tbl.Bytes() != 0 {
		t.Errorf("reset left count=%d bytes=%d", tbl.Count(), tbl.Bytes())
	}
	if tbl.Probe(uint64(5)<<50, nil) != 0 {
		t.Error("reset left probeable tuples")
	}
	for _, c := range tbl.CountsInRange(hashfn.Range{Lo: 0, Hi: testSpace.Positions()}) {
		if c != 0 {
			t.Fatal("reset left position counts")
		}
	}
}

func TestInsertChunk(t *testing.T) {
	tbl := New(testSpace, tuple.DefaultLayout())
	c := &tuple.Chunk{Rel: tuple.RelR, Layout: tuple.DefaultLayout()}
	for i := 0; i < 25; i++ {
		c.Tuples = append(c.Tuples, tuple.Tuple{Index: uint64(i), Key: uint64(i)})
	}
	tbl.InsertChunk(c)
	if tbl.Count() != 25 {
		t.Errorf("count = %d", tbl.Count())
	}
}
