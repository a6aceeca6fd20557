package hashtable

import (
	"math/rand"
	"testing"

	"ehjoin/internal/tuple"
)

// One test per trap of the staged build (DESIGN.md "Staged build, one-shot
// seal"); the footprint bounds are in layout_test.go.

// checkStaged fails the test unless every segment's staging blocks keep
// the shape the seal and extractStaged rely on: every block in blocks is
// full, the open block is the only one that may be partial, block i has
// capacity min(stageFirst<<i, stageBlock), the open block is nil exactly
// when the segment stages nothing, and the staged tuples are the table's.
func checkStaged(t *testing.T, tbl *Table) {
	t.Helper()
	var total int64
	for s := range tbl.segs {
		sg := &tbl.segs[s]
		n := 0
		for i, b := range sg.staged() {
			if want := min(stageFirst<<i, stageBlock); cap(b) != want {
				t.Fatalf("segment %d: staging block %d has capacity %d, want %d", s, i, cap(b), want)
			}
			if i < len(sg.blocks) && len(b) != cap(b) {
				t.Fatalf("segment %d: block %d of %d holds %d of %d before the open block",
					s, i, len(sg.blocks), len(b), cap(b))
			}
			n += len(b)
		}
		if (sg.open == nil) != (n == 0) {
			t.Fatalf("segment %d stages %d tuples with open block %v", s, n, sg.open != nil)
		}
		total += int64(n)
	}
	if !tbl.sealed && total != tbl.Count() {
		t.Fatalf("staging blocks hold %d tuples, the table counts %d", total, tbl.Count())
	}
	if tbl.sealed && total != 0 {
		t.Fatalf("a sealed table still stages %d tuples", total)
	}
}

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
			if sg.used >= len(sg.tags) {
				t.Fatalf("%d staged: segment full at %d of %d slots", staged, sg.used, len(sg.tags))
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
// live in runs, and a 16-byte slot plus its tag byte per duplicate would
// be 3.4 MB here. The runs array counts 4 bytes per slot.
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
		if sg.staged() != nil {
			t.Fatalf("segment %d kept its staging blocks across the seal", s)
		}
		slotBytes += len(sg.slots)*16 + len(sg.tags) + 4*len(sg.runs)
	}
	if slotBytes > 64<<10 {
		t.Errorf("slot arrays take %d bytes for %d keys, want <= 64 KB", slotBytes, keys)
	}
}

// A segment's runs array is allocated at its first duplicate: a sealed
// table of unique keys has none, and one duplicate — staged before the
// seal or inserted after it — allocates runs in its own segment only.
func TestUniqueKeysAllocateNoRuns(t *testing.T) {
	for _, dupAfterSeal := range []bool{false, true} {
		rng := rand.New(rand.NewSource(6))
		tbl := New(testSpace, tuple.DefaultLayout())
		keys := make([]uint64, 20_000)
		for i := range keys {
			keys[i] = rng.Uint64()
			tbl.Insert(tuple.Tuple{Index: uint64(i), Key: keys[i]})
		}
		tbl.Probe(0, nil) // seals
		for s := range tbl.segs {
			if tbl.segs[s].runs != nil {
				t.Fatalf("unique keys: segment %d has runs", s)
			}
		}
		if !dupAfterSeal {
			tbl.Reset()
			for i, k := range keys {
				tbl.Insert(tuple.Tuple{Index: uint64(i), Key: k})
			}
		}
		dup := keys[len(keys)/2]
		tbl.Insert(tuple.Tuple{Index: uint64(len(keys)), Key: dup})
		if n := tbl.Probe(dup, nil); n != 2 {
			t.Fatalf("duplicated key probes %d tuples, want 2", n)
		}
		own := int(mixKey(dup) >> (64 - segBits))
		for s := range tbl.segs {
			if has := tbl.segs[s].runs != nil; has != (s == own) {
				t.Errorf("duplicate after seal %v: segment %d has runs %v, the duplicate's segment is %d",
					dupAfterSeal, s, has, own)
			}
		}
	}
}

// A staging block is up to 1024 tuples, but a segment's first block holds
// 16 and each next one twice as many, so a table of a few hundred tuples
// stays at a few KB.
func TestSmallStagedTableStaysSmall(t *testing.T) {
	tbl := New(testSpace, tuple.DefaultLayout())
	rng := rand.New(rand.NewSource(4))
	const n = 640 // ten per segment
	for i := 0; i < n; i++ {
		tbl.Insert(tuple.Tuple{Index: uint64(i), Key: rng.Uint64()})
	}
	held := 0
	for s := range tbl.segs {
		for _, b := range tbl.segs[s].staged() {
			held += cap(b)
		}
	}
	if held > 4*n {
		t.Errorf("%d staged tuples hold room for %d", n, held)
	}
}

// Insert is InsertAll on a batch of one, and the batch stays on the stack:
// staging into an open block with room allocates nothing.
func TestInsertAllocatesNothingIntoAnOpenBlock(t *testing.T) {
	tbl := New(testSpace, tuple.DefaultLayout())
	key := keysInSegment(9, 1)[0]
	tbl.Insert(tuple.Tuple{Key: key}) // opens the segment's first block
	if allocs := testing.AllocsPerRun(10, func() { tbl.Insert(tuple.Tuple{Key: key}) }); allocs != 0 {
		t.Errorf("Insert into an open block with room allocates %.1f times", allocs)
	}
	checkStaged(t, tbl)
}

// ladderBatches are InsertAll lengths one short of, at and one past the
// ends of the ladder's rungs in one segment: the first block (16), the
// blocks up to 512 (1008 in all) and the first 1024-tuple block.
var ladderBatches = []int{15, 16, 17, 1007, 1008, 1009, 1023, 1024, 1025}

// Batches of ladderBatches' lengths into one segment, an extraction
// mid-ladder and more batches after it: the blocks keep their shape, and a
// staged table hands its tuples back in arrival order — through ForEach,
// through extraction, and into the seal.
func TestStagingLadderSteps(t *testing.T) {
	keys := keysInSegment(9, 64)
	for _, n := range ladderBatches {
		tbl := New(testSpace, tuple.DefaultLayout())
		var want []tuple.Tuple // the staged tuples in arrival order
		next := 0
		insert := func() {
			ts := make([]tuple.Tuple, n)
			for i := range ts {
				ts[i] = tuple.Tuple{Index: uint64(next), Key: keys[next*7%len(keys)]}
				next++
			}
			tbl.InsertAll(ts)
			want = append(want, ts...)
			checkStaged(t, tbl)
		}
		inOrder := func(what string, got, want []tuple.Tuple) {
			t.Helper()
			if len(got) != len(want) {
				t.Fatalf("batches of %d: %s: %d tuples, want %d", n, what, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("batches of %d: %s: tuple %d is %v, want %v", n, what, i, got[i], want[i])
				}
			}
		}
		insert()
		insert()
		leaves := func(tp tuple.Tuple) bool { return tp.Index%3 == 1 }
		var gone, kept []tuple.Tuple
		for _, tp := range want {
			if leaves(tp) {
				gone = append(gone, tp)
			} else {
				kept = append(kept, tp)
			}
		}
		inOrder("extracted", tbl.ExtractMatching(leaves), gone)
		want = kept
		checkStaged(t, tbl)
		insert()
		insert()
		var got []tuple.Tuple
		tbl.ForEach(func(tp tuple.Tuple) { got = append(got, tp) })
		inOrder("ForEach", got, want)
		counts := map[uint64]int{}
		for _, tp := range want {
			counts[tp.Key]++
		}
		for k, c := range counts {
			if got := tbl.Probe(k, nil); got != c {
				t.Fatalf("batches of %d: Probe(%#x) = %d after the seal, want %d", n, k, got, c)
			}
		}
		checkStaged(t, tbl)
	}
}
