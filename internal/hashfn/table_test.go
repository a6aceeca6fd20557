package hashfn

import (
	"math/rand"
	"testing"
	"testing/quick"
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
	space := Space{Bits: 10, Mode: Scaled}
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
	space := Space{Bits: 8, Mode: Scaled}
	tbl := mustTable(t, space, []int32{10, 11, 12, 13})
	for p := 0; p < space.Positions(); p++ {
		want := int32(10 + p/(space.Positions()/4))
		if got := tbl.BuildOwnerOf(p); got != want {
			t.Fatalf("owner of %d = %d, want %d", p, got, want)
		}
	}
}

func TestSplitEntryKeepsInvariants(t *testing.T) {
	space := Space{Bits: 8, Mode: Scaled}
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
	space := Space{Bits: 1, Mode: Scaled}
	tbl := mustTable(t, space, []int32{0, 1})
	if _, _, err := tbl.SplitEntry(0, 2); err == nil {
		t.Error("splitting a width-1 entry should fail")
	}
}

func TestAddReplicaChangesBuildOwnerOnly(t *testing.T) {
	space := Space{Bits: 8, Mode: Scaled}
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
	space := Space{Bits: 8, Mode: Scaled}
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
	space := Space{Bits: 8, Mode: Scaled}
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
	space := Space{Bits: 8, Mode: Scaled}
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
		space := Space{Bits: 10, Mode: Scaled}
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
	space := Space{Bits: 8, Mode: Scaled}
	tbl := mustTable(t, space, []int32{5, 6})
	if got := tbl.EntryIndexOwnedBy(6); got != 1 {
		t.Errorf("index owned by 6 = %d", got)
	}
	if got := tbl.EntryIndexOwnedBy(99); got != -1 {
		t.Errorf("index owned by 99 = %d, want -1", got)
	}
}

// EntryIndexOf scans short tables and bisects long ones; both must agree
// with the definition at every position, boundaries included.
func TestEntryIndexOfEveryPosition(t *testing.T) {
	space := Space{Bits: 8, Mode: Scaled}
	for _, n := range []int{1, 2, 7, linearEntries, linearEntries + 1, 40, space.Positions()} {
		owners := make([]int32, n)
		for i := range owners {
			owners[i] = int32(i)
		}
		tbl := mustTable(t, space, owners)
		for p := 0; p < space.Positions(); p++ {
			if i := tbl.EntryIndexOf(p); !tbl.Entries[i].Range.Contains(p) {
				t.Fatalf("%d entries: position %d resolved to entry %d %v", n, p, i, tbl.Entries[i].Range)
			}
		}
	}
}
