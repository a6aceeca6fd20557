package hashfn

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"ehjoin/internal/tuple"
)

func mustTable(t *testing.T, space Space, owners []int32) *Table {
	t.Helper()
	tbl, err := NewTable(space, owners)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestNewTableTilesSpace(t *testing.T) {
	space := Space{Bits: 10}
	for _, n := range []int{1, 2, 3, 4, 7, 16, 24} {
		owners := make([]int32, n)
		for i := range owners {
			owners[i] = int32(i)
		}
		tbl := mustTable(t, space, owners)
		if err := tbl.Validate(space); err != nil {
			t.Errorf("n=%d: %v", n, err)
		}
		if len(tbl.Entries) != n {
			t.Errorf("n=%d: %d entries", n, len(tbl.Entries))
		}
	}
}

func TestNewTableErrors(t *testing.T) {
	if _, err := NewTable(Space{Bits: 10}, nil); err == nil {
		t.Error("no owners should fail")
	}
	if _, err := NewTable(Space{Bits: 1}, []int32{0, 1, 2}); err == nil {
		t.Error("more owners than positions should fail")
	}
	if _, err := NewTable(Space{Bits: 0}, []int32{0}); err == nil {
		t.Error("invalid space should fail")
	}
}

func TestOwnerLookup(t *testing.T) {
	space := Space{Bits: 8}
	tbl := mustTable(t, space, []int32{10, 11, 12, 13})
	for p := 0; p < space.Positions(); p++ {
		want := int32(10 + p/(space.Positions()/4))
		if got := tbl.BuildOwnerOf(p); got != want {
			t.Fatalf("owner of %d = %d, want %d", p, got, want)
		}
	}
}

func TestSplitEntryKeepsInvariants(t *testing.T) {
	space := Space{Bits: 8}
	tbl := mustTable(t, space, []int32{0, 1})
	lower, upper, err := tbl.SplitEntry(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if lower.Lo != 128 || upper.Hi != 256 || lower.Hi != upper.Lo {
		t.Errorf("split ranges %v %v", lower, upper)
	}
	if err := tbl.Validate(space); err != nil {
		t.Error(err)
	}
	if got := tbl.BuildOwnerOf(200); got != 2 {
		t.Errorf("upper half owner = %d, want 2", got)
	}
	if got := tbl.BuildOwnerOf(130); got != 1 {
		t.Errorf("lower half owner = %d, want 1", got)
	}
	if tbl.Version != 2 {
		t.Errorf("version = %d, want 2", tbl.Version)
	}
}

func TestSplitEntryTooNarrow(t *testing.T) {
	space := Space{Bits: 1}
	tbl := mustTable(t, space, []int32{0, 1})
	if _, _, err := tbl.SplitEntry(0, 2); err == nil {
		t.Error("splitting a width-1 entry should fail")
	}
}

func TestAddReplicaChangesBuildOwnerOnly(t *testing.T) {
	space := Space{Bits: 8}
	tbl := mustTable(t, space, []int32{0, 1, 2})
	tbl.AddReplica(1, 7)
	e := tbl.Entries[1]
	if e.BuildOwner() != 7 {
		t.Errorf("build owner = %d, want 7", e.BuildOwner())
	}
	if len(tbl.ProbeOwnersOf(e.Range.Lo)) != 2 {
		t.Errorf("probe owners = %v, want 2 nodes", tbl.ProbeOwnersOf(e.Range.Lo))
	}
	if len(tbl.Entries) != 3 {
		t.Errorf("replica changed entry count to %d", len(tbl.Entries))
	}
}

func TestReplaceEntries(t *testing.T) {
	space := Space{Bits: 8}
	tbl := mustTable(t, space, []int32{0, 1})
	tbl.AddReplica(1, 2)
	repl := []Entry{
		{Range: Range{128, 170}, Owners: []int32{1}},
		{Range: Range{170, 256}, Owners: []int32{2}},
	}
	if err := tbl.ReplaceEntries(1, repl); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Validate(space); err != nil {
		t.Error(err)
	}
	if got := tbl.BuildOwnerOf(180); got != 2 {
		t.Errorf("owner of 180 = %d", got)
	}
	// Bad tilings must be rejected.
	bad := [][]Entry{
		nil,
		{{Range: Range{128, 200}, Owners: []int32{1}}},
		{{Range: Range{0, 256}, Owners: []int32{1}}},
		{{Range: Range{128, 170}, Owners: []int32{1}}, {Range: Range{171, 256}, Owners: []int32{2}}},
	}
	for i, r := range bad {
		t2 := mustTable(t, space, []int32{0, 1})
		if err := t2.ReplaceEntries(1, r); err == nil {
			t.Errorf("bad replacement %d accepted", i)
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	space := Space{Bits: 8}
	tbl := mustTable(t, space, []int32{0, 1})
	c := tbl.Clone()
	tbl.AddReplica(0, 9)
	if c.Entries[0].BuildOwner() == 9 {
		t.Error("clone shares owner slice with original")
	}
	if c.Version == tbl.Version {
		t.Error("clone version tracked original")
	}
}

func TestOwnersDeduplicated(t *testing.T) {
	space := Space{Bits: 8}
	tbl := mustTable(t, space, []int32{3, 4})
	tbl.AddReplica(0, 4)
	got := tbl.Owners()
	if len(got) != 2 || got[0] != 3 || got[1] != 4 {
		t.Errorf("owners = %v", got)
	}
}

// TestRandomMutationSequenceKeepsInvariants drives an arbitrary sequence of
// splits and replications and checks that the routing table invariants and
// lookup consistency always hold.
func TestRandomMutationSequenceKeepsInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		space := Space{Bits: 10}
		tbl, err := NewTable(space, []int32{0, 1, 2, 3})
		if err != nil {
			return false
		}
		next := int32(4)
		for op := 0; op < 40; op++ {
			idx := rng.Intn(len(tbl.Entries))
			if rng.Intn(2) == 0 {
				if tbl.Entries[idx].Range.Width() >= 2 {
					if _, _, err := tbl.SplitEntry(idx, next); err != nil {
						return false
					}
					next++
				}
			} else {
				tbl.AddReplica(idx, next)
				next++
			}
			if tbl.Validate(space) != nil {
				return false
			}
			// Every position must resolve through EntryIndexOf to an
			// entry containing it.
			for trial := 0; trial < 8; trial++ {
				p := rng.Intn(space.Positions())
				e := tbl.Entries[tbl.EntryIndexOf(p)]
				if !e.Range.Contains(p) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestEntryIndexOwnedBy(t *testing.T) {
	space := Space{Bits: 8}
	tbl := mustTable(t, space, []int32{5, 6})
	if got := tbl.EntryIndexOwnedBy(6); got != 1 {
		t.Errorf("index owned by 6 = %d", got)
	}
	if got := tbl.EntryIndexOwnedBy(99); got != -1 {
		t.Errorf("index owned by 99 = %d, want -1", got)
	}
}

// EntryIndexOf must agree with the definition at every position,
// boundaries included, from one entry to one entry per position, in spaces
// smaller than the index (a slot per position) and larger (16 positions a
// slot).
func TestEntryIndexOfEveryPosition(t *testing.T) {
	for _, bits := range []uint{8, 16} {
		space := Space{Bits: bits}
		for _, n := range []int{1, 2, 7, 16, 17, 40, 256} {
			owners := make([]int32, n)
			for i := range owners {
				owners[i] = int32(i)
			}
			tbl := mustTable(t, space, owners)
			for p := 0; p < space.Positions(); p++ {
				if i := tbl.EntryIndexOf(p); !tbl.Entries[i].Range.Contains(p) {
					t.Fatalf("bits %d, %d entries: position %d resolved to entry %d %v", bits, n, p, i, tbl.Entries[i].Range)
				}
			}
		}
	}
}

// scanEntryIndex is the definition EntryIndexOf is checked against.
func scanEntryIndex(tbl *Table, p int) int {
	for i, e := range tbl.Entries {
		if e.Range.Contains(p) {
			return i
		}
	}
	return -1
}

// checkAgainstScan compares EntryIndexesOf and EntryIndexOf with a scan at
// every entry boundary ± 1 and at a few random positions. Each call meets
// the index as tbl holds it, stale or not: the batch call runs on a twin
// with its own copy of the index, the scalar call on tbl.
func checkAgainstScan(t *testing.T, tbl *Table, space Space, rng *rand.Rand, what string) {
	t.Helper()
	ps := []int{rng.Intn(space.Positions()), rng.Intn(space.Positions())}
	for _, e := range tbl.Entries {
		for _, b := range []int{e.Range.Lo, e.Range.Hi} {
			ps = append(ps, b-1, b, b+1)
		}
	}
	twin := *tbl
	twin.index = append([]int32(nil), tbl.index...)
	batch := make([]tuple.Tuple, 0, len(ps))
	for _, p := range ps {
		if p >= 0 && p < space.Positions() {
			batch = append(batch, tuple.Tuple{Index: uint64(p), Key: keyAt(space, p)})
		}
	}
	idx := make([]int32, len(batch))
	twin.EntryIndexesOf(space, batch, idx)
	for k, tp := range batch {
		p := int(tp.Index)
		if got, want := int(idx[k]), scanEntryIndex(tbl, p); got != want {
			t.Fatalf("bits %d, after %s: EntryIndexesOf at %d = %d, scan says %d (%d entries)",
				space.Bits, what, p, got, want, len(tbl.Entries))
		}
	}
	for _, p := range ps {
		if p < 0 || p >= space.Positions() {
			continue
		}
		if got, want := tbl.EntryIndexOf(p), scanEntryIndex(tbl, p); got != want {
			t.Fatalf("bits %d, after %s: EntryIndexOf(%d) = %d, scan says %d (%d entries)",
				space.Bits, what, p, got, want, len(tbl.Entries))
		}
	}
}

// keyAt returns a join attribute whose position in space is p, with random
// low bits below it.
func keyAt(space Space, p int) uint64 {
	return uint64(p)<<(64-space.Bits) | rand.Uint64()>>space.Bits
}

// TestEntryIndexOfAfterEveryMutator drives randomized tables through every
// mutator and checks the lazily rebuilt index, through both the batch and
// the scalar lookup, against a scan after each one, and after Clone — for
// every space from 2 to 65 536 positions, so both a slot per position and
// several positions per slot are covered.
func TestEntryIndexOfAfterEveryMutator(t *testing.T) {
	for bits := uint(1); bits <= 16; bits++ {
		space := Space{Bits: bits}
		rng := rand.New(rand.NewSource(int64(bits)))
		for trial := 0; trial < 8; trial++ {
			n := 1 + rng.Intn(min(8, space.Positions()))
			owners := make([]int32, n)
			for i := range owners {
				owners[i] = int32(i)
			}
			tbl := mustTable(t, space, owners)
			next := int32(n)
			checkAgainstScan(t, tbl, space, rng, "NewTable")
			for op := 0; op < 30; op++ {
				idx := rng.Intn(len(tbl.Entries))
				e := tbl.Entries[idx]
				var what string
				switch rng.Intn(8) {
				case 0:
					what = "SplitEntry"
					if e.Range.Width() >= 2 {
						if _, _, err := tbl.SplitEntry(idx, next); err != nil {
							t.Fatal(err)
						}
						next++
					}
				case 1:
					what = "AddReplica"
					tbl.AddReplica(idx, next)
					next++
				case 2:
					what = "ReplaceEntries"
					if e.Range.Width() >= 2 {
						cut := e.Range.Lo + 1 + rng.Intn(e.Range.Width()-1)
						repl := []Entry{
							{Range: Range{e.Range.Lo, cut}, Owners: []int32{next}},
							{Range: Range{cut, e.Range.Hi}, Owners: []int32{next + 1}},
						}
						if err := tbl.ReplaceEntries(idx, repl); err != nil {
							t.Fatal(err)
						}
						next += 2
					}
				case 3:
					what = "RemoveOwner"
					tbl.RemoveOwner(e.Owners[0])
				case 4:
					what = "MarkDead"
					tbl.MarkDead(e.Owners[0])
				case 5:
					what = "ReplaceOwner"
					tbl.ReplaceOwner(idx, rng.Intn(len(e.Owners)), next)
					next++
				case 6:
					what = "SetSoleOwner"
					tbl.SetSoleOwner(idx, next)
					next++
				case 7:
					what = "MergeEntry"
					if len(tbl.Entries) > 1 {
						into := idx - 1
						if idx == 0 {
							into = 1
						}
						if err := tbl.MergeEntry(idx, into); err != nil {
							t.Fatal(err)
						}
					}
				}
				if err := tbl.Validate(space); err != nil {
					t.Fatalf("after %s: %v", what, err)
				}
				checkAgainstScan(t, tbl, space, rng, what)
				if rng.Intn(4) == 0 {
					c := tbl.Clone()
					checkAgainstScan(t, c, space, rng, what+" + Clone")
					if tbl.Entries[0].Range.Width() >= 2 {
						// Mutating the original must not move the clone.
						if _, _, err := tbl.SplitEntry(0, next); err != nil {
							t.Fatal(err)
						}
						next++
						checkAgainstScan(t, c, space, rng, "a split of the original, on the clone")
						checkAgainstScan(t, tbl, space, rng, "SplitEntry after Clone")
					}
				}
			}
		}
	}
}

// The index is coarse — 4096 slots, 16 positions each in the default space
// — and private to its copy.
func TestCloneDropsIndex(t *testing.T) {
	tbl := mustTable(t, DefaultSpace(), []int32{0, 1, 2})
	tbl.EntryIndexOf(100)
	if len(tbl.index) != 4096 || tbl.shift != 4 {
		t.Fatalf("index of %d slots at shift %d, want 4096 at 4", len(tbl.index), tbl.shift)
	}
	if c := tbl.Clone(); c.index != nil || c.indexVer != 0 {
		t.Errorf("clone carries the index (%d slots, version %d)", len(c.index), c.indexVer)
	}
}

// A newer copy takes over the older one's index storage and rebuilds it for
// its own entries; the older copy still answers, from an index of its own.
func TestTakeIndex(t *testing.T) {
	space := DefaultSpace()
	old := mustTable(t, space, []int32{0, 1})
	old.EntryIndexOf(0)
	buf := &old.index[0]
	next := old.Clone()
	if _, _, err := next.SplitEntry(1, 2); err != nil {
		t.Fatal(err)
	}
	next.TakeIndex(old)
	rng := rand.New(rand.NewSource(1))
	checkAgainstScan(t, next, space, rng, "TakeIndex")
	if &next.index[0] != buf {
		t.Error("the newer copy allocated an index of its own")
	}
	checkAgainstScan(t, old, space, rng, "TakeIndex, on the older copy")
	// A copy that already has an index keeps it.
	mine := &next.index[0]
	next.TakeIndex(old)
	if &next.index[0] != mine {
		t.Error("TakeIndex replaced an index the copy already had")
	}
}

func TestEntryIndexOfBeyondSpacePanics(t *testing.T) {
	tbl := mustTable(t, Space{Bits: 8}, []int32{0, 1})
	for _, p := range []int{-1, 256, 1 << 20} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("EntryIndexOf(%d) on a 256-position table did not panic", p)
				}
			}()
			tbl.EntryIndexOf(p)
		}()
	}
	// A batch reaches beyond the table through a wider space than it tiles.
	for _, bits := range []uint{9, 30} {
		wide := Space{Bits: bits}
		batch := []tuple.Tuple{{Key: keyAt(wide, 3)}, {Key: keyAt(wide, 256)}}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("EntryIndexesOf at position 256 on a 256-position table did not panic")
				}
			}()
			tbl.EntryIndexesOf(wide, batch, make([]int32, len(batch)))
		}()
	}
}

func TestReplaceOwner(t *testing.T) {
	space := Space{Bits: 8}
	tbl := mustTable(t, space, []int32{0, 1})
	tbl.AddReplica(1, 5)
	v := tbl.Version
	tbl.ReplaceOwner(1, 0, 9)
	if got := tbl.Entries[1].Owners; len(got) != 2 || got[0] != 9 || got[1] != 5 {
		t.Errorf("owners %v, want [9 5]", got)
	}
	if tbl.Version != v+1 {
		t.Errorf("version %d, want %d", tbl.Version, v+1)
	}
}

func TestSetSoleOwner(t *testing.T) {
	space := Space{Bits: 8}
	tbl := mustTable(t, space, []int32{0, 1})
	tbl.AddReplica(1, 5)
	c := tbl.Clone()
	v := tbl.Version
	tbl.SetSoleOwner(1, 7)
	if got := tbl.Entries[1]; got.Range != (Range{128, 256}) || len(got.Owners) != 1 || got.Owners[0] != 7 {
		t.Errorf("entry %v %v, want [128,256) [7]", got.Range, got.Owners)
	}
	if tbl.Version != v+1 {
		t.Errorf("version %d, want %d", tbl.Version, v+1)
	}
	if got := tbl.BuildOwnerOf(200); got != 7 {
		t.Errorf("build owner of 200 = %d, want 7", got)
	}
	if got := c.Entries[1].Owners; len(got) != 2 {
		t.Errorf("clone's owners changed to %v", got)
	}
}

func TestMergeEntry(t *testing.T) {
	space := Space{Bits: 8}
	for _, tc := range []struct {
		idx, into int
		want      []Range
		owner200  int32
	}{
		{1, 0, []Range{{0, 128}, {128, 192}, {192, 256}}, 3}, // leftward
		{1, 2, []Range{{0, 64}, {64, 192}, {192, 256}}, 3},   // rightward
		{3, 2, []Range{{0, 64}, {64, 128}, {128, 256}}, 2},   // last entry
		{0, 1, []Range{{0, 128}, {128, 192}, {192, 256}}, 3}, // first entry
		{2, 1, []Range{{0, 64}, {64, 192}, {192, 256}}, 3},   // middle, leftward
	} {
		tbl := mustTable(t, space, []int32{0, 1, 2, 3})
		tbl.EntryIndexOf(0) // an index built before the merge must not survive it
		v := tbl.Version
		if err := tbl.MergeEntry(tc.idx, tc.into); err != nil {
			t.Fatalf("merge %d into %d: %v", tc.idx, tc.into, err)
		}
		if err := tbl.Validate(space); err != nil {
			t.Fatalf("merge %d into %d: %v", tc.idx, tc.into, err)
		}
		if tbl.Version != v+1 {
			t.Errorf("merge %d into %d: version %d, want %d", tc.idx, tc.into, tbl.Version, v+1)
		}
		for i, r := range tc.want {
			if tbl.Entries[i].Range != r {
				t.Errorf("merge %d into %d: entry %d = %v, want %v", tc.idx, tc.into, i, tbl.Entries[i].Range, r)
			}
		}
		if got := tbl.BuildOwnerOf(200); got != tc.owner200 {
			t.Errorf("merge %d into %d: owner of 200 = %d, want %d", tc.idx, tc.into, got, tc.owner200)
		}
	}
	tbl := mustTable(t, space, []int32{0, 1, 2, 3})
	for _, bad := range [][2]int{{1, 3}, {0, -1}, {3, 4}, {1, 1}} {
		if err := tbl.MergeEntry(bad[0], bad[1]); err == nil {
			t.Errorf("merge %d into %d accepted", bad[0], bad[1])
		}
	}
}

// BenchmarkEntryIndexOf is the sources' per-tuple routing lookup over the
// default space at the table sizes a run passes through.
func BenchmarkEntryIndexOf(b *testing.B) {
	space := DefaultSpace()
	for _, n := range []int{2, 16, 64} {
		owners := make([]int32, n)
		for i := range owners {
			owners[i] = int32(i)
		}
		tbl, err := NewTable(space, owners)
		if err != nil {
			b.Fatal(err)
		}
		ps := make([]int, 4096)
		rng := rand.New(rand.NewSource(1))
		for i := range ps {
			ps[i] = rng.Intn(space.Positions())
		}
		b.Run(fmt.Sprintf("entries=%d", n), func(b *testing.B) {
			sum := 0
			for i := 0; i < b.N; i++ {
				sum += tbl.EntryIndexOf(ps[i&(len(ps)-1)])
			}
			if sum < 0 {
				b.Fatal(sum)
			}
		})
	}
}
