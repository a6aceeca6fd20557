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
// every stored tuple once; callers keep positions small via
// HeavyPositions.
func (t *Table) KeyCountsAt(positions []int32) ([]uint64, []int64) {
	if len(positions) == 0 || t.count == 0 {
		return nil, nil
	}
	want := make(map[int]struct{}, len(positions))
	for _, p := range positions {
		want[int(p)] = struct{}{}
	}
	acc := make(map[uint64]int64)
	t.ForEach(func(tp tuple.Tuple) {
		if _, ok := want[t.space.PositionOf(tp.Key)]; ok {
			acc[tp.Key]++
		}
	})
	return sortedKeyCounts(acc)
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
// attribute equals key, in arrival order. The heavy path uses it to
// replicate a heavy key's build tuples to the other owners of its range,
// before the first probe: a staged table stays staged, and the scan reads
// the blocks of the key's segment only. A sealed table answers from its
// index.
func (t *Table) TuplesWithKey(key uint64) []tuple.Tuple {
	var out []tuple.Tuple
	if t.sealed {
		t.Probe(key, func(b tuple.Tuple) { out = append(out, b) })
		return out
	}
	for _, b := range t.segs[mixKey(key)>>(64-segBits)].staged() {
		for _, tp := range b {
			if tp.Key == key {
				out = append(out, tp)
			}
		}
	}
	return out
}
