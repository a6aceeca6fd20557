package hashtable

import (
	"math/rand"
	"testing"

	"ehjoin/internal/tuple"
)

// One test per trap of the staged build (DESIGN.md "Staged build, one-shot
// seal"); the footprint bounds are in layout_test.go.

// keysInSegment draws n distinct keys whose mixed key selects segment s.
func keysInSegment(s uint64, n int) []uint64 {
	rng := rand.New(rand.NewSource(5))
	var keys []uint64
	for len(keys) < n {
		if k := rng.Uint64(); mixKey(k)>>(64-segBits) == s {
			keys = append(keys, k)
		}
	}
	return keys
}

// A sealed segment must keep an empty slot: sized n + n/3 + 2, a one-tuple
// segment has capacity 3, fills before it grows, and the lookup of an
// absent key never terminates.
func TestSealedSegmentKeepsAnEmptySlot(t *testing.T) {
	for _, staged := range []int{1, 2} {
		keys := keysInSegment(9, 40)
		tbl := New(testSpace, tuple.DefaultLayout())
		for i, k := range keys[:staged] {
			tbl.Insert(tuple.Tuple{Index: uint64(i), Key: k})
		}
		// Every further key lands in the same, sealed segment: it must grow
		// before it fills, whatever capacity the seal gave it.
		for i, k := range keys[staged:] {
			for _, absent := range keys[staged+i:] {
				if n := tbl.Probe(absent, nil); n != 0 {
					t.Fatalf("%d staged: absent key probes %d tuples", staged, n)
				}
			}
			tbl.Insert(tuple.Tuple{Index: uint64(staged + i), Key: k})
			sg := &tbl.segs[9]
			if sg.used >= len(sg.meta) {
				t.Fatalf("%d staged: segment full at %d of %d slots", staged, sg.used, len(sg.meta))
			}
		}
		for _, k := range keys {
			if n := tbl.Probe(k, nil); n != 1 {
				t.Fatalf("%d staged: stored key probes %d tuples", staged, n)
			}
		}
	}
}

// The seal sizes a segment's slots by its keys, not its tuples: duplicates
// live in runs, and 20 bytes of slot per duplicate would be 4 MB here.
func TestSealSizesSlotsByKeys(t *testing.T) {
	const tuples, keys = 200_000, 200
	rng := rand.New(rand.NewSource(2))
	pool := make([]uint64, keys)
	for i := range pool {
		pool[i] = rng.Uint64()
	}
	tbl := New(testSpace, tuple.DefaultLayout())
	for i := 0; i < tuples; i++ {
		tbl.Insert(tuple.Tuple{Index: uint64(i), Key: pool[rng.Intn(keys)]})
	}
	for s := range tbl.segs {
		if tbl.segs[s].slots != nil {
			t.Fatalf("segment %d is indexed before the first lookup", s)
		}
	}
	var total int64
	for _, k := range pool {
		total += int64(tbl.Probe(k, nil))
	}
	if total != tuples {
		t.Fatalf("probes found %d of %d tuples", total, tuples)
	}
	slotBytes := 0
	for s := range tbl.segs {
		sg := &tbl.segs[s]
		if sg.blocks != nil {
			t.Fatalf("segment %d kept its staging blocks across the seal", s)
		}
		slotBytes += len(sg.slots)*16 + len(sg.meta)*4
	}
	if slotBytes > 64<<10 {
		t.Errorf("slot arrays take %d bytes for %d keys, want <= 64 KB", slotBytes, keys)
	}
}

// A staging block is 1024 tuples, but a segment's first block starts at 16
// and doubles, so a table of a few hundred tuples stays at a few KB.
func TestSmallStagedTableStaysSmall(t *testing.T) {
	tbl := New(testSpace, tuple.DefaultLayout())
	rng := rand.New(rand.NewSource(4))
	const n = 640 // ten per segment
	for i := 0; i < n; i++ {
		tbl.Insert(tuple.Tuple{Index: uint64(i), Key: rng.Uint64()})
	}
	held := 0
	for s := range tbl.segs {
		for _, b := range tbl.segs[s].blocks {
			held += cap(b)
		}
	}
	if held > 4*n {
		t.Errorf("%d staged tuples hold room for %d", n, held)
	}
}
