package hashtable

import (
	"sort"

	"ehjoin/internal/tuple"
)

// Heavy-hitter extraction (DESIGN.md §11). Detection is two-stage to keep
// the common case cheap: the scheduler first reduces the per-position
// histograms every table already maintains (posCount, exchanged as
// CountsInRange) to the candidate positions whose total mass could hide a
// heavy key, then asks only for per-key counts at those positions. The
// stage-1 pruning is sound because every tuple of one key shares one
// routing position, so a key's mass never exceeds its position's mass.

// HeavyPositions scans a per-position histogram — counts[i] is the tuple
// mass of position lo+i — and returns the positions whose mass is at
// least min, ascending. A key with mass ≥ min can only live at one of
// them.
func HeavyPositions(counts []int64, lo int, min int64) []int32 {
	var out []int32
	for i, c := range counts {
		if c >= min {
			out = append(out, int32(lo+i))
		}
	}
	return out
}

// KeyCountsAt returns, sorted by key, the per-key tuple counts over the
// stored tuples whose routing position is in positions. The walk touches
// every slot (every tuple, on a staged table) once; callers keep positions
// small via HeavyPositions.
func (t *Table) KeyCountsAt(positions []int32) ([]uint64, []int64) {
	if len(positions) == 0 || t.count == 0 {
		return nil, nil
	}
	want := make(map[int]struct{}, len(positions))
	for _, p := range positions {
		want[int(p)] = struct{}{}
	}
	acc := make(map[uint64]int64)
	t.forEachKey(func(key uint64, n int64) {
		if _, ok := want[t.space.PositionOf(key)]; ok {
			acc[key] += n
		}
	})
	return sortedKeyCounts(acc)
}

// forEachKey invokes fn with a key and a number of its stored tuples,
// possibly several times per key; the numbers of one key sum to its tuple
// count. A sealed table reports each key once, a staged one tuple by tuple.
func (t *Table) forEachKey(fn func(key uint64, n int64)) {
	for s := range t.segs {
		sg := &t.segs[s]
		for _, b := range sg.staged() {
			for _, tp := range b {
				fn(tp.Key, 1)
			}
		}
		for i, g := range sg.tags {
			if g == tagEmpty {
				continue
			}
			n := int64(1)
			if g&tagRun != 0 {
				n += int64(len(t.dups[sg.runs[i]]))
			}
			fn(sg.slots[i].Key, n)
		}
	}
}

// sortedKeyCounts flattens a key→count map into parallel slices sorted by
// key, the package's deterministic-order idiom for map-shaped results.
func sortedKeyCounts(acc map[uint64]int64) ([]uint64, []int64) {
	keys := make([]uint64, 0, len(acc))
	for k := range acc {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	counts := make([]int64, len(keys))
	for i, k := range keys {
		counts[i] = acc[k]
	}
	return keys, counts
}

// TuplesWithKey returns (without removing) every stored tuple whose join
// attribute equals key: the slot's tuple, then the key's duplicate run.
// The heavy path uses it to replicate a heavy key's build
// tuples to the other owners of its range.
func (t *Table) TuplesWithKey(key uint64) []tuple.Tuple {
	var out []tuple.Tuple
	t.Probe(key, func(b tuple.Tuple) { out = append(out, b) })
	return out
}
