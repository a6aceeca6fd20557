package hashfn

import "testing"

// runSplit performs one full Next/Issued/Split/Completed cycle and returns
// the index split, or -1.
func runSplit(t *testing.T, tbl *Table, sp *Splitter, newOwner int32) int {
	t.Helper()
	idx := sp.Next(tbl)
	if idx < 0 {
		return -1
	}
	sp.Issued()
	if _, _, err := tbl.SplitEntry(idx, newOwner); err != nil {
		t.Fatalf("split entry %d: %v", idx, err)
	}
	sp.Completed()
	return idx
}

func TestSplitterWalksInOrder(t *testing.T) {
	space := Space{Bits: 8}
	tbl := mustTable(t, space, []int32{0, 1, 2, 3})
	sp := NewSplitter(len(tbl.Entries))
	// Round 0: the pointer must visit the original four buckets in order.
	// After splitting entry k the new sibling is inserted at k+1, so the
	// pointer indices observed are 0, 2, 4, 6.
	want := []int{0, 2, 4, 6}
	next := int32(4)
	for i, w := range want {
		got := runSplit(t, tbl, sp, next)
		next++
		if got != w {
			t.Fatalf("split %d hit entry %d, want %d", i, got, w)
		}
		if sp.Round != 0 {
			t.Fatalf("round advanced early at split %d", i)
		}
	}
	// Next split starts round 1 from the beginning.
	got := runSplit(t, tbl, sp, next)
	if got != 0 || sp.Round != 1 {
		t.Fatalf("round 1 first split at %d (round %d)", got, sp.Round)
	}
}

func TestSplitterBarrier(t *testing.T) {
	space := Space{Bits: 8}
	tbl := mustTable(t, space, []int32{0, 1})
	sp := NewSplitter(len(tbl.Entries))
	idx := sp.Next(tbl)
	if idx != 0 {
		t.Fatalf("first split at %d", idx)
	}
	sp.Issued()
	if sp.CanIssue() {
		t.Error("barrier should block a second split")
	}
	if got := sp.Next(tbl); got != -1 {
		t.Errorf("Next during in-flight split = %d, want -1", got)
	}
	sp.Completed()
	if !sp.CanIssue() {
		t.Error("barrier should release after completion")
	}
}

func TestSplitterSkipsUnsplittable(t *testing.T) {
	space := Space{Bits: 2} // 4 positions
	tbl := mustTable(t, space, []int32{0, 1, 2, 3})
	sp := NewSplitter(len(tbl.Entries))
	// Every entry has width 1; nothing can split.
	if got := sp.Next(tbl); got != -1 {
		t.Errorf("Next on unsplittable table = %d, want -1", got)
	}
}

func TestSplitterExhaustsToPositionGranularity(t *testing.T) {
	space := Space{Bits: 4} // 16 positions
	tbl := mustTable(t, space, []int32{0})
	sp := NewSplitter(1)
	next := int32(1)
	splits := 0
	for {
		idx := sp.Next(tbl)
		if idx < 0 {
			break
		}
		sp.Issued()
		if _, _, err := tbl.SplitEntry(idx, next); err != nil {
			t.Fatal(err)
		}
		sp.Completed()
		next++
		splits++
		if splits > 64 {
			t.Fatal("splitter did not terminate")
		}
	}
	if splits != 15 {
		t.Errorf("splits = %d, want 15 (down to single positions)", splits)
	}
	if err := tbl.Validate(space); err != nil {
		t.Error(err)
	}
	for _, e := range tbl.Entries {
		if e.Range.Width() != 1 {
			t.Errorf("entry %v not fully split", e.Range)
		}
	}
}
