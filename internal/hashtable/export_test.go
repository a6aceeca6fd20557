package hashtable

// Steps exposes the linear-probing step counter to the external tests.
func (t *Table) Steps() int64 { return t.steps }

// SegmentOf exposes the segment that holds a key's tuples.
func SegmentOf(key uint64) int { return int(mixKey(key) >> (64 - segBits)) }

// TagHashCounts exposes, per value of the tag's hash bits, how many
// occupied slots of segment s carry it.
func (t *Table) TagHashCounts(s int) []int {
	n := make([]int, tagHash+1)
	for _, g := range t.segs[s].tags {
		if g != tagEmpty {
			n[g&tagHash]++
		}
	}
	return n
}
