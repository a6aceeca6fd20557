package hashtable

import (
	"math/rand"
	"runtime"
	"testing"

	"ehjoin/internal/tuple"
)

// One test per trap of the staged build (DESIGN.md "Staged build, one-shot
// seal"); the footprint bounds are in layout_test.go.

// checkStaged fails the test unless every segment's staging blocks keep
// the shape the seal and extraction rely on: every block in blocks is
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

// checkSealed fails the test unless every segment of a sealed table keeps
// the page shape slot relies on — every page but the segment's last holds
// stageBlock slots, the last holds 1 to stageBlock, and the pages cover
// exactly len(tags) slots — and the seal has dropped its spare list. A
// staged table has no pages and no tags.
func checkSealed(t *testing.T, tbl *Table) {
	t.Helper()
	if tbl.spare != nil {
		t.Fatalf("the table keeps %d spare blocks after the seal", len(tbl.spare))
	}
	for s := range tbl.segs {
		sg := &tbl.segs[s]
		if !tbl.sealed {
			if sg.pages != nil || sg.tags != nil {
				t.Fatalf("segment %d of a staged table has %d pages and %d tags", s, len(sg.pages), len(sg.tags))
			}
			continue
		}
		n := 0
		for k, p := range sg.pages {
			last := k == len(sg.pages)-1
			if !last && len(p) != stageBlock || len(p) == 0 || len(p) > stageBlock {
				t.Fatalf("segment %d: page %d of %d holds %d slots, stageBlock is %d",
					s, k, len(sg.pages), len(p), stageBlock)
			}
			n += len(p)
		}
		if n != len(sg.tags) {
			t.Fatalf("segment %d: %d pages cover %d slots, the segment has %d", s, len(sg.pages), n, len(sg.tags))
		}
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
// segment has capacity 3 and fills, and the lookup of an absent key never
// terminates. Each insert below unseals the table and the next lookup
// reseals it, so the segment is sized afresh for 1, 2, … 40 keys.
func TestSealedSegmentKeepsAnEmptySlot(t *testing.T) {
	keys := keysInSegment(9, 40)
	tbl := New(testSpace, tuple.DefaultLayout())
	for i, k := range keys {
		tbl.Insert(tuple.Tuple{Index: uint64(i), Key: k})
		for _, absent := range keys[i+1:] {
			if n := tbl.Probe(absent, nil); n != 0 {
				t.Fatalf("%d keys: absent key probes %d tuples", i+1, n)
			}
		}
		tbl.Probe(0, nil) // seals after the last insert too
		if sg := &tbl.segs[9]; sg.used >= len(sg.tags) {
			t.Fatalf("%d keys: segment full at %d of %d slots", i+1, sg.used, len(sg.tags))
		}
	}
	for _, k := range keys {
		if n := tbl.Probe(k, nil); n != 1 {
			t.Fatalf("stored key probes %d tuples", n)
		}
	}
}

// The seal sizes a segment's slots by its keys, not its tuples: duplicates
// live in runs, and a 16-byte slot plus its tag byte per duplicate would
// be 3.4 MB here. A page counts its capacity, so a spare block kept as a
// short segment's page would count in full; the runs array counts 4 bytes
// per slot.
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
		if tbl.segs[s].pages != nil {
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
		for _, p := range sg.pages {
			slotBytes += cap(p) * 16
		}
		slotBytes += len(sg.tags) + 4*len(sg.runs)
	}
	if slotBytes > 64<<10 {
		t.Errorf("slot arrays take %d bytes for %d keys, want <= 64 KB", slotBytes, keys)
	}
}

// A segment's runs array is allocated at its first duplicate: a sealed
// table of unique keys has none, and one duplicate — staged before the
// seal, or inserted after it and resealed — allocates runs in its own
// segment only.
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

// The seal takes a segment's full pages from the staging blocks of the
// segments it indexed before, so it allocates each segment's tags, its
// short last page and the full pages it needs beyond the blocks the
// previous segment freed: 8.2 bytes per staged tuple here, against 24.7
// when every page is new (DESIGN.md §14 item 2). The bound does not depend
// on the host: it reads the bytes allocated, not the heap's size.
func TestSealReusesStagingBlocks(t *testing.T) {
	const keys, chunk = 200_000, 1_000
	rng := rand.New(rand.NewSource(1))
	ts := make([]tuple.Tuple, keys)
	for i := range ts {
		ts[i] = tuple.Tuple{Index: uint64(i), Key: rng.Uint64()}
	}
	tbl := New(testSpace, tuple.DefaultLayout())
	for c := 0; c < keys; c += chunk {
		tbl.InsertAll(ts[c : c+chunk])
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tbl.seal()
	runtime.ReadMemStats(&after)
	perTuple := float64(after.TotalAlloc-before.TotalAlloc) / keys
	t.Logf("the seal allocated %.1f bytes per staged tuple", perTuple)
	if perTuple > 10 {
		t.Errorf("the seal allocated %.1f bytes per staged tuple, want <= 10", perTuple)
	}
	checkSealed(t, tbl)
	if m, _ := tbl.ProbeAll(ts); m != keys {
		t.Fatalf("the sealed table matches %d of %d stored keys", m, keys)
	}
}

// A probe cluster that runs from the end of one page into the next, and one
// that wraps from the segment's last page to slot 0, hand back the same
// tuples through every reader, also after an unseal and a reseal. The
// segment holds 1000 tuples, so it has 1337 slots on two pages; two keys
// share home slot stageBlock-1, two the last slot, and one of each pair
// has a duplicate, so a run hangs off a slot on each side of a boundary.
func TestProbeClusterCrossesPage(t *testing.T) {
	const seg, n = 9, 1000
	cands := keysInSegment(seg, 40_000)
	// The slot count and salt follow from the tuple count alone: a table
	// of n tuples in the segment shows them.
	shape := New(testSpace, tuple.DefaultLayout())
	for i, k := range cands[:n] {
		shape.Insert(tuple.Tuple{Index: uint64(i), Key: k})
	}
	shape.Probe(0, nil)
	ref := &shape.segs[seg]
	slots := len(ref.tags)
	if slots <= stageBlock {
		t.Fatalf("%d tuples get %d slots, not more than one page", n, slots)
	}
	var cross, wrap, rest []uint64
	for _, k := range cands {
		switch h := ref.home(mixKey(k)); {
		case h == stageBlock-1 && len(cross) < 2:
			cross = append(cross, k)
		case h == slots-1 && len(wrap) < 2:
			wrap = append(wrap, k)
		default:
			rest = append(rest, k)
		}
	}
	if len(cross) < 2 || len(wrap) < 2 {
		t.Fatalf("found %d keys homed at slot %d and %d at slot %d", len(cross), stageBlock-1, len(wrap), slots-1)
	}
	keys := append(append(append([]uint64{}, cross...), cross[1]), wrap...)
	keys = append(keys, wrap[1])
	keys = append(keys, rest[:n-len(keys)]...)
	rand.New(rand.NewSource(7)).Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })

	tbl := New(testSpace, tuple.DefaultLayout())
	model := tableModel{}
	for i, k := range keys {
		tp := tuple.Tuple{Index: wideIndex(uint64(i)), Key: k}
		tbl.Insert(tp)
		model[k] = append(model[k], tp)
	}
	check := func(when string) {
		t.Helper()
		tbl.Probe(0, nil) // seals
		checkSealed(t, tbl)
		sg := &tbl.segs[seg]
		if len(sg.tags) != slots {
			t.Fatalf("%s: the segment has %d slots, want %d", when, len(sg.tags), slots)
		}
		slotOf := func(k uint64) int {
			_, i := tbl.find(k)
			return i
		}
		if max(slotOf(cross[0]), slotOf(cross[1])) < stageBlock {
			t.Fatalf("%s: the cluster at slot %d stays on page 0", when, stageBlock-1)
		}
		if min(slotOf(wrap[0]), slotOf(wrap[1])) >= slots-1 {
			t.Fatalf("%s: the cluster at slot %d does not wrap", when, slots-1)
		}
		for _, k := range append(cross, wrap...) {
			var got []tuple.Tuple
			if c := tbl.Probe(k, func(b tuple.Tuple) { got = append(got, b) }); c != len(model[k]) {
				t.Fatalf("%s: Probe(%#x) = %d, model %d", when, k, c, len(model[k]))
			}
			sameMultiset(t, when+": Probe", got, model[k])
			sameMultiset(t, when+": TuplesWithKey", tbl.TuplesWithKey(k), model[k])
		}
		probes := make([]tuple.Tuple, 0, 2*n)
		var wantMatches int64
		var wantXor uint64
		for i, k := range append(keys, keysInSegment(seg+1, n)...) { // stored keys, then misses
			probes = append(probes, tuple.Tuple{Index: uint64(i), Key: k})
			for _, b := range model[k] {
				wantMatches++
				wantXor ^= tuple.MixPair(b.Index, uint64(i))
			}
		}
		if m, x := tbl.ProbeAll(probes); m != wantMatches || x != wantXor {
			t.Fatalf("%s: ProbeAll = %d/%#x, model %d/%#x", when, m, x, wantMatches, wantXor)
		}
		var all []tuple.Tuple
		tbl.ForEach(func(tp tuple.Tuple) { all = append(all, tp) })
		sameMultiset(t, when+": ForEach", all, model.all())
	}
	check("first seal")
	if got := tbl.ExtractMatching(func(tuple.Tuple) bool { return false }); len(got) != 0 || tbl.sealed {
		t.Fatalf("an extraction of nothing returned %d tuples and left the table sealed = %v", len(got), tbl.sealed)
	}
	check("resealed")
}
