package hashfn

import (
	"fmt"

	"ehjoin/internal/tuple"
)

// Entry assigns one contiguous position range to one or more join nodes.
//
// With a single owner the entry behaves like an ordinary bucket. With
// multiple owners the range has been *replicated* (replication-based and
// hybrid algorithms): build tuples stream to the newest owner (the tail of
// Owners), while probe tuples must be broadcast to every owner.
type Entry struct {
	Range  Range
	Owners []int32
}

// BuildOwner returns the node currently receiving build tuples for the
// range: the most recently added owner.
func (e Entry) BuildOwner() int32 { return e.Owners[len(e.Owners)-1] }

// Barrier invalidates build tuples that were routed into a range under a
// routing table older than MinVersion. It is appended when a range is
// rebuilt after a node failure: the authoritative copy of every tuple in
// the range is re-streamed from the data sources under the new table, so
// any copy still in flight under an older version must be discarded to
// keep the stored-exactly-once invariant.
type Barrier struct {
	Range      Range
	MinVersion uint64
}

// Table is the routing table shared (by value, via broadcast) between the
// scheduler, the data sources, and the join processes. Entries are kept
// sorted by Range.Lo and always tile the full position space exactly.
//
// Table is a value type from the perspective of the protocol: the scheduler
// mutates its master copy and broadcasts clones; receivers replace their
// copy when the version increases.
//
// Each copy has one reader: a lookup may (re)build the copy's position
// index, so two goroutines must never share one *Table, not even to read
// it. Hand every receiver its own Clone. Entries is written only by the
// methods of this package, each of which bumps Version — the index is
// rebuilt exactly when Version moves.
type Table struct {
	// Version increases with every mutation so that stale broadcast copies
	// can be recognised and discarded.
	Version uint64
	Entries []Entry
	// Dead lists nodes declared failed. Sources drop queued traffic for
	// them; the scheduler never recruits them.
	Dead []int32
	// Barriers records every range rebuilt after a failure, with the table
	// version from which re-streamed tuples are authoritative.
	Barriers []Barrier

	// index is the coarse position index behind EntryIndexOf: slot s holds
	// the first entry whose Range.Hi exceeds s<<shift. It describes the
	// table at Version indexVer-1 (0: never built) and is private to this
	// copy — Clone and the wire codec never carry it.
	index    []int32
	indexVer uint64
	shift    uint
}

// indexBits is the log2 of the routing index's slot count. 4096 int32 slots
// are 16 KB per copy; a slot covers 16 positions of the default space, and
// an entry boundary inside a slot costs a lookup one forward step. A full
// per-position index is no faster and, with every source, join node and
// scheduler holding copies, costs megabytes.
const indexBits = 12

// NewTable partitions the space evenly across the given owners, one entry
// per owner, mirroring the initial bucket assignment of all four
// algorithms.
func NewTable(space Space, owners []int32) (*Table, error) {
	if err := space.Validate(); err != nil {
		return nil, err
	}
	n := len(owners)
	if n == 0 {
		return nil, fmt.Errorf("hashfn: table needs at least one owner")
	}
	h := space.Positions()
	if n > h {
		return nil, fmt.Errorf("hashfn: %d owners exceed %d positions", n, h)
	}
	t := &Table{Version: 1, Entries: make([]Entry, 0, n)}
	for i := 0; i < n; i++ {
		lo := i * h / n
		hi := (i + 1) * h / n
		t.Entries = append(t.Entries, Entry{Range: Range{lo, hi}, Owners: []int32{owners[i]}})
	}
	return t, nil
}

// Clone returns a deep copy, used when broadcasting the table so receivers
// never alias the scheduler's master copy.
func (t *Table) Clone() *Table {
	c := &Table{Version: t.Version, Entries: make([]Entry, len(t.Entries))}
	for i, e := range t.Entries {
		owners := make([]int32, len(e.Owners))
		copy(owners, e.Owners)
		c.Entries[i] = Entry{Range: e.Range, Owners: owners}
	}
	if len(t.Dead) > 0 {
		c.Dead = append([]int32(nil), t.Dead...)
	}
	if len(t.Barriers) > 0 {
		c.Barriers = append([]Barrier(nil), t.Barriers...)
	}
	return c
}

// MarkDead records a failed node and bumps the version so receivers learn
// about the death with the next broadcast.
func (t *Table) MarkDead(node int32) {
	for _, d := range t.Dead {
		if d == node {
			return
		}
	}
	t.Dead = append(t.Dead, node)
	t.Version++
}

// IsDead reports whether node has been declared failed.
func (t *Table) IsDead(node int32) bool {
	for _, d := range t.Dead {
		if d == node {
			return true
		}
	}
	return false
}

// AddBarrier appends a re-stream barrier (see Barrier).
func (t *Table) AddBarrier(b Barrier) { t.Barriers = append(t.Barriers, b) }

// StaleInBarrier reports whether a build tuple at position p, routed under
// table version v, has been invalidated by a re-stream barrier.
func (t *Table) StaleInBarrier(p int, v uint64) bool {
	for _, b := range t.Barriers {
		if v < b.MinVersion && b.Range.Contains(p) {
			return true
		}
	}
	return false
}

// RemoveOwner removes node from every entry that has other owners left (a
// sole owner is kept so the table keeps tiling; traffic to it is dropped by
// the engine). It reports whether the table changed.
func (t *Table) RemoveOwner(node int32) bool {
	changed := false
	for i := range t.Entries {
		e := &t.Entries[i]
		if len(e.Owners) < 2 {
			continue
		}
		kept := e.Owners[:0]
		for _, o := range e.Owners {
			if o != node {
				kept = append(kept, o)
			}
		}
		if len(kept) != len(e.Owners) && len(kept) > 0 {
			e.Owners = kept
			changed = true
		}
	}
	if changed {
		t.Version++
	}
	return changed
}

// EntryIndexOf returns the index of the entry containing position p: the
// first entry with Range.Hi > p, since entries tile the space. It costs one
// index load, then a forward step only when an entry boundary falls inside
// p's slot.
func (t *Table) EntryIndexOf(p int) int {
	if t.indexVer != t.Version+1 {
		t.buildIndex()
	}
	return lookup(t.index, t.Entries, t.shift, p)
}

// EntryIndexesOf stores in idx[k] the index of the entry containing the
// position in space of batch[k]'s key: EntryIndexOf over a batch, with the
// index version checked once. The data sources route every tuple through
// it. idx must be at least as long as batch.
func (t *Table) EntryIndexesOf(space Space, batch []tuple.Tuple, idx []int32) {
	if t.indexVer != t.Version+1 {
		t.buildIndex()
	}
	index, entries, shift := t.index, t.Entries, t.shift
	idx = idx[:len(batch)]
	for k := range batch {
		idx[k] = int32(lookup(index, entries, shift, space.PositionOf(batch[k].Key)))
	}
}

// lookup returns the index of the entry containing position p through a
// current index over entries: one slot load, then a forward step only when
// an entry boundary falls inside p's slot.
func lookup(index []int32, entries []Entry, shift uint, p int) int {
	s := p >> shift
	if uint(s) >= uint(len(index)) {
		panic(beyondError{p, entries[len(entries)-1].Range})
	}
	i := int(index[s])
	for entries[i].Range.Hi <= p {
		i++
	}
	return i
}

// buildIndex fills the position index for the current Version. The slots
// cover [0, Hi) of the last entry — the space, since entries tile it — at
// the finest granularity 1<<indexBits slots allow.
func (t *Table) buildIndex() {
	hi := t.Entries[len(t.Entries)-1].Range.Hi
	t.shift = 0
	for (hi-1)>>t.shift >= 1<<indexBits {
		t.shift++
	}
	n := (hi-1)>>t.shift + 1
	if cap(t.index) < n {
		t.index = make([]int32, n)
	}
	t.index = t.index[:n]
	e := 0
	for s := range t.index {
		for t.Entries[e].Range.Hi <= s<<t.shift {
			e++
		}
		t.index[s] = int32(e)
	}
	t.indexVer = t.Version + 1
}

// TakeIndex hands old's index storage to t, the copy replacing it at its
// one reader: a reader that adopts every broadcast version then rebuilds
// one index in place instead of allocating one per version. old stays
// usable; a lookup on it allocates afresh.
func (t *Table) TakeIndex(old *Table) {
	if old != nil && old != t && t.index == nil {
		t.index, old.index, old.indexVer = old.index, nil, 0
	}
}

// beyondError is the panic of a lookup past the last position the table
// covers; it formats only when printed, which keeps lookup inlinable.
type beyondError struct {
	p     int
	cover Range
}

func (e beyondError) Error() string {
	return fmt.Sprintf("hashfn: position %d beyond table covering %v", e.p, e.cover)
}

// BuildOwnerOf returns the node that should receive a build tuple hashed to
// position p.
func (t *Table) BuildOwnerOf(p int) int32 {
	return t.Entries[t.EntryIndexOf(p)].BuildOwner()
}

// ProbeOwnersOf returns every node that must receive a probe tuple hashed
// to position p. For unreplicated ranges this is a single node.
func (t *Table) ProbeOwnersOf(p int) []int32 {
	return t.Entries[t.EntryIndexOf(p)].Owners
}

// EntryIndexOwnedBy returns the index of the first entry whose build owner
// is node, or -1.
func (t *Table) EntryIndexOwnedBy(node int32) int {
	for i, e := range t.Entries {
		if e.BuildOwner() == node {
			return i
		}
	}
	return -1
}

// SplitEntry halves the range of entry idx: the existing owners keep the
// lower half and newOwner receives the upper half as a fresh single-owner
// entry. It returns the two resulting ranges and an error if the entry is
// too narrow to split.
func (t *Table) SplitEntry(idx int, newOwner int32) (lower, upper Range, err error) {
	e := t.Entries[idx]
	if e.Range.Width() < 2 {
		return Range{}, Range{}, fmt.Errorf("hashfn: entry %d range %v too narrow to split", idx, e.Range)
	}
	lower, upper = e.Range.Halves()
	t.Entries[idx].Range = lower
	newEntry := Entry{Range: upper, Owners: []int32{newOwner}}
	t.Entries = append(t.Entries, Entry{})
	copy(t.Entries[idx+2:], t.Entries[idx+1:])
	t.Entries[idx+1] = newEntry
	t.Version++
	return lower, upper, nil
}

// AddReplica appends newOwner to entry idx's owner list; newOwner becomes
// the build owner of the range.
func (t *Table) AddReplica(idx int, newOwner int32) {
	t.Entries[idx].Owners = append(t.Entries[idx].Owners, newOwner)
	t.Version++
}

// ReplaceOwner makes owner the slot-th owner of entry idx, in place of the
// node there: a probe-phase recruit taking over a full node's place.
func (t *Table) ReplaceOwner(idx, slot int, owner int32) {
	t.Entries[idx].Owners[slot] = owner
	t.Version++
}

// SetSoleOwner makes owner the only owner of entry idx, whose range is
// about to be rebuilt there after a failure.
func (t *Table) SetSoleOwner(idx int, owner int32) {
	t.Entries[idx] = Entry{Range: t.Entries[idx].Range, Owners: []int32{owner}}
	t.Version++
}

// MergeEntry folds entry idx into its neighbour into (idx-1 or idx+1),
// whose range widens to cover both; entry idx is deleted, so a right
// neighbour's index drops by one.
func (t *Table) MergeEntry(idx, into int) error {
	if into != idx-1 && into != idx+1 || into < 0 || into >= len(t.Entries) {
		return fmt.Errorf("hashfn: entry %d cannot merge into entry %d of %d", idx, into, len(t.Entries))
	}
	rng := t.Entries[idx].Range
	if into < idx {
		t.Entries[into].Range.Hi = rng.Hi
	} else {
		t.Entries[into].Range.Lo = rng.Lo
	}
	t.Entries = append(t.Entries[:idx], t.Entries[idx+1:]...)
	t.Version++
	return nil
}

// ReplaceEntries substitutes the entry at idx with the given replacement
// entries, which must tile exactly the same range in ascending order. It is
// used by the hybrid algorithm's reshuffling step, which turns one
// replicated entry into several disjoint single-owner entries.
func (t *Table) ReplaceEntries(idx int, repl []Entry) error {
	orig := t.Entries[idx].Range
	if len(repl) == 0 {
		return fmt.Errorf("hashfn: empty replacement for entry %d", idx)
	}
	lo := orig.Lo
	for _, e := range repl {
		if e.Range.Lo != lo {
			return fmt.Errorf("hashfn: replacement ranges do not tile %v (gap at %d)", orig, lo)
		}
		lo = e.Range.Hi
	}
	if lo != orig.Hi {
		return fmt.Errorf("hashfn: replacement ranges stop at %d, want %d", lo, orig.Hi)
	}
	out := make([]Entry, 0, len(t.Entries)+len(repl)-1)
	out = append(out, t.Entries[:idx]...)
	out = append(out, repl...)
	out = append(out, t.Entries[idx+1:]...)
	t.Entries = out
	t.Version++
	return nil
}

// Owners returns the deduplicated set of all nodes appearing in the table,
// in first-appearance order.
func (t *Table) Owners() []int32 {
	seen := make(map[int32]bool)
	var out []int32
	for _, e := range t.Entries {
		for _, o := range e.Owners {
			if !seen[o] {
				seen[o] = true
				out = append(out, o)
			}
		}
	}
	return out
}

// Validate checks the table invariants: entries sorted, tiling the space
// exactly, each with at least one owner.
func (t *Table) Validate(space Space) error {
	if len(t.Entries) == 0 {
		return fmt.Errorf("hashfn: empty table")
	}
	lo := 0
	for i, e := range t.Entries {
		if e.Range.Lo != lo {
			return fmt.Errorf("hashfn: entry %d starts at %d, want %d", i, e.Range.Lo, lo)
		}
		if e.Range.Width() <= 0 {
			return fmt.Errorf("hashfn: entry %d has non-positive range %v", i, e.Range)
		}
		if len(e.Owners) == 0 {
			return fmt.Errorf("hashfn: entry %d has no owners", i)
		}
		lo = e.Range.Hi
	}
	if lo != space.Positions() {
		return fmt.Errorf("hashfn: table covers [0,%d), want [0,%d)", lo, space.Positions())
	}
	return nil
}
