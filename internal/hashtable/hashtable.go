// Package hashtable implements the per-join-node in-memory hash table.
//
// Two levels of hashing are involved, matching the paper's architecture:
// the *routing* position (hashfn.Space) decides which join node owns a
// tuple and is the granularity of splitting and reshuffling, while the
// local table groups tuples by their full join attribute so probe cost is
// proportional to the number of genuine key matches, not to routing-level
// clustering.
//
// The local table is flat and open-addressed over *distinct keys*
// (DESIGN.md "Join-node table layout"): a slot holds one tuple, a
// parallel meta word says whether the slot is empty, holds its key's only
// tuple, or also owns a contiguous run with the key's other tuples.
// Inserting a tuple of a new key allocates nothing; probing a key scans
// one slot and, for a duplicated key, one slice.
//
// The index does not exist during the build phase (DESIGN.md "Staged
// build, one-shot seal"). A table starts *staged*: inserts append to small
// per-segment blocks, and everything the expanding algorithms decide from
// — Count, Bytes, the per-position counts — and everything they move —
// ExtractRange, ExtractMatching, ForEach, KeyCountsAt — works on the
// blocks. The first lookup seals the table: each segment's slot arrays
// are allocated once, sized from the tuples actually staged there, and
// filled in arrival order. From then on inserts probe and segments grow;
// only Reset returns a table to the staged state.
//
// The table accounts *logical* bytes (tuple physical fields plus the
// declared payload size), because memory overflow — the event that drives
// all three expanding algorithms — is a property of the full tuple size.
package hashtable

import (
	"fmt"
	"math/bits"

	"ehjoin/internal/hashfn"
	"ehjoin/internal/tuple"
)

const (
	// segBits selects one of 64 independently growing segments from the
	// top bits of the mixed key, so a growth step copies 1/64 of the
	// table and the capacity slack of the segments averages out.
	segBits = 6
	numSegs = 1 << segBits
	fibMul  = 0x9E3779B97F4A7C15

	// stageBlock is the capacity in tuples of a staging block. A segment's
	// first block starts at stageFirst and doubles up to it, so a small
	// table (a spill partition, a node holding a few heavy keys) stays at
	// a few KB; beyond it a staged tuple costs 1/stageBlock allocations.
	stageBlock = 1024
	stageFirst = 16
)

// segStartCaps are the segments' first capacities: four points evenly
// log-spaced across one ×1.5 growth step, so the growth ladders interleave
// instead of every segment of a uniformly filled table growing at once.
var segStartCaps = [4]int{64, 71, 78, 87}

// Meta words: metaEmpty, metaOne, or metaRun+r for a slot whose key also
// owns the duplicate run Table.dups[r].
const (
	metaEmpty int32 = 0
	metaOne   int32 = 1
	metaRun   int32 = 2
)

// segment is one linear-probed array of distinct keys at load ≤ ¾. Its
// capacity is arbitrary (not a power of two): a hash is reduced to a slot
// by multiply-high.
type segment struct {
	// blocks holds the tuples staged before the first lookup, in arrival
	// order: every block but the last is full. Nil once the table is
	// sealed.
	blocks [][]tuple.Tuple
	slots  []tuple.Tuple
	meta   []int32
	used   int // occupied slots
	// salt, derived from the capacity, re-orders the segment's slots at
	// every growth step: tuples extracted in slot order arrive at their
	// next table in an order unrelated to that table's own slot order.
	salt uint64
}

// Table is a join node's local hash table.
type Table struct {
	space  hashfn.Space
	layout tuple.Layout
	segs   [numSegs]segment
	// sealed says the segments are indexed. It is set by the first lookup
	// (find) and cleared only by Reset; while it is false slots and meta
	// are nil and the tuples live in the segments' staging blocks.
	sealed bool
	// dups holds, per duplicated key, the key's tuples beyond the one in
	// its slot; freeDups lists the entries extraction has emptied.
	dups     [][]tuple.Tuple
	freeDups []int32
	count    int64
	bytes    int64
	// posCount tracks tuples per routing position, needed by the hybrid
	// algorithm's reshuffling step and by the load-balance metrics.
	posCount []int64
	// steps counts the occupied slots inserts and growth stepped over;
	// the tests that pin the hash-independence rules bound it.
	steps int64
}

// New returns an empty table for tuples of the given layout.
func New(space hashfn.Space, layout tuple.Layout) *Table {
	return &Table{
		space:    space,
		layout:   layout,
		posCount: make([]int64, space.Positions()),
	}
}

// mixKey is the table's own hash. It must share no structure with the
// routing hashes (hashfn.Space.PositionOf, spill's partition function):
// the keys of one routing range or one spill partition agree on the top
// bits of key or key*fibMul, and a table hashing the same way would put
// all of them in one probe cluster.
func mixKey(key uint64) uint64 {
	key ^= key >> 33
	key *= 0xFF51AFD7ED558CCD
	key ^= key >> 33
	key *= 0xC4CEB9FE1A85EC53
	key ^= key >> 33
	return key
}

// home maps a mixed key to its preferred slot.
func (sg *segment) home(h uint64) int {
	hi, _ := bits.Mul64((h^sg.salt)*fibMul, uint64(len(sg.meta)))
	return int(hi)
}

// find returns the segment of key and the slot holding it, or -1. Every
// lookup goes through it, so it is where a staged table is sealed.
func (t *Table) find(key uint64) (*segment, int) {
	if !t.sealed {
		t.seal()
	}
	h := mixKey(key)
	sg := &t.segs[h>>(64-segBits)]
	if sg.used == 0 {
		return sg, -1
	}
	for i := sg.home(h); ; {
		if sg.meta[i] == metaEmpty {
			return sg, -1
		}
		if sg.slots[i].Key == key {
			return sg, i
		}
		if i++; i == len(sg.meta) {
			i = 0
		}
	}
}

// Insert adds one tuple: to its segment's staging blocks until the first
// lookup, into the index afterwards.
func (t *Table) Insert(tp tuple.Tuple) {
	h := mixKey(tp.Key)
	s := h >> (64 - segBits)
	sg := &t.segs[s]
	if !t.sealed {
		sg.stage(tp)
	} else {
		if sg.used >= len(sg.meta)-len(sg.meta)/4 {
			t.grow(int(s))
		}
		t.index(sg, h, tp)
	}
	t.count++
	t.bytes += int64(t.layout.LogicalSize())
	t.posCount[t.space.PositionOf(tp.Key)]++
}

// stage appends tp to the segment's last staging block, starting a block
// when that one is full.
func (sg *segment) stage(tp tuple.Tuple) {
	n := len(sg.blocks)
	if n == 0 || len(sg.blocks[n-1]) == cap(sg.blocks[n-1]) {
		sg.addBlock()
		n = len(sg.blocks)
	}
	sg.blocks[n-1] = append(sg.blocks[n-1], tp)
}

// addBlock makes room for one more staged tuple: a segment's only block
// doubles until it reaches stageBlock, then blocks are added.
func (sg *segment) addBlock() {
	switch n := len(sg.blocks); {
	case n == 0:
		sg.blocks = append(sg.blocks, make([]tuple.Tuple, 0, stageFirst))
	case n == 1 && cap(sg.blocks[0]) < stageBlock:
		sg.blocks[0] = append(make([]tuple.Tuple, 0, 2*cap(sg.blocks[0])), sg.blocks[0]...)
	default:
		sg.blocks = append(sg.blocks, make([]tuple.Tuple, 0, stageBlock))
	}
}

// seal indexes the staged tuples, one segment at a time so the arrays
// being filled stay cache-resident and a segment's blocks are garbage
// before the next segment's arrays are allocated. A segment gets slots for
// the tuples it staged at load ¾; the +4 keeps the empty slot find stops
// at (capacity 3 for one tuple could fill). A segment whose tuples share
// few keys is then re-placed at the size its keys need — duplicates live
// in runs, not slots.
func (t *Table) seal() {
	t.sealed = true
	for s := range t.segs {
		sg := &t.segs[s]
		blocks := sg.blocks
		sg.blocks = nil
		n := 0
		for _, b := range blocks {
			n += len(b)
		}
		if n == 0 {
			continue
		}
		sg.alloc(n + n/3 + 4)
		for _, b := range blocks {
			for _, tp := range b {
				t.index(sg, mixKey(tp.Key), tp)
			}
		}
		if sg.used < len(sg.meta)/2 {
			t.rehash(sg, sg.used+sg.used/3+4)
		}
	}
}

// alloc gives the segment empty arrays of capacity n; used is the caller's.
func (sg *segment) alloc(n int) {
	sg.slots = make([]tuple.Tuple, n)
	sg.meta = make([]int32, n)
	sg.salt = uint64(n) * 0xD6E8FEB86659FD93
}

// index places tp, whose mixed key is h, in a segment that has a free
// slot to spare.
func (t *Table) index(sg *segment, h uint64, tp tuple.Tuple) {
	for i := sg.home(h); ; {
		m := sg.meta[i]
		if m == metaEmpty {
			sg.slots[i] = tp
			sg.meta[i] = metaOne
			sg.used++
			return
		}
		if sg.slots[i].Key == tp.Key {
			if m == metaOne {
				sg.meta[i] = metaRun + t.newRun(tp)
			} else {
				t.dups[m-metaRun] = append(t.dups[m-metaRun], tp)
			}
			return
		}
		t.steps++
		if i++; i == len(sg.meta) {
			i = 0
		}
	}
}

// newRun starts a duplicate run holding tp and returns its index.
func (t *Table) newRun(tp tuple.Tuple) int32 {
	if n := len(t.freeDups); n > 0 {
		r := t.freeDups[n-1]
		t.freeDups = t.freeDups[:n-1]
		t.dups[r] = append(t.dups[r], tp)
		return r
	}
	t.dups = append(t.dups, []tuple.Tuple{tp})
	return int32(len(t.dups) - 1)
}

// freeRun releases an emptied duplicate run; its index is reused by the
// next key that needs one.
func (t *Table) freeRun(r int32) {
	t.dups[r] = nil
	t.freeDups = append(t.freeDups, r)
}

// InsertAll adds every tuple of a batch.
func (t *Table) InsertAll(ts []tuple.Tuple) {
	for _, tp := range ts {
		t.Insert(tp)
	}
}

// InsertChunk adds every tuple of a chunk.
func (t *Table) InsertChunk(c *tuple.Chunk) { t.InsertAll(c.Tuples) }

// grow moves segment s of a sealed table to 1.5× its capacity.
func (t *Table) grow(s int) {
	sg := &t.segs[s]
	n := len(sg.meta) + len(sg.meta)/2
	if n == 0 {
		n = segStartCaps[s%len(segStartCaps)]
	}
	t.rehash(sg, n)
}

// rehash moves the segment's occupied slots to fresh arrays of capacity n.
func (t *Table) rehash(sg *segment, n int) {
	oldSlots, oldMeta := sg.slots, sg.meta
	sg.alloc(n)
	for j, m := range oldMeta {
		if m == metaEmpty {
			continue
		}
		i := sg.home(mixKey(oldSlots[j].Key))
		for sg.meta[i] != metaEmpty {
			t.steps++
			if i++; i == n {
				i = 0
			}
		}
		sg.slots[i] = oldSlots[j]
		sg.meta[i] = m
	}
}

// Probe invokes fn for every stored tuple whose join attribute equals key
// and returns the number of matches.
func (t *Table) Probe(key uint64, fn func(build tuple.Tuple)) int {
	sg, i := t.find(key)
	if i < 0 {
		return 0
	}
	var run []tuple.Tuple
	if m := sg.meta[i]; m >= metaRun {
		run = t.dups[m-metaRun]
	}
	if fn != nil {
		fn(sg.slots[i])
		for _, tp := range run {
			fn(tp)
		}
	}
	return 1 + len(run)
}

// ProbeAll probes a batch of tuples and returns the total match count and
// the XOR of tuple.MixPair over every matched (build, probe) pair — the
// join's result fingerprint. The slot's own tuple folds inline; a
// duplicate-key run folds through tuple.MixRun, one call per run, which is
// where a skewed join spends its time: under skew a join's cost is its
// output.
func (t *Table) ProbeAll(ts []tuple.Tuple) (matches int64, xor uint64) {
	return t.probeAll(ts, tuple.MixRun)
}

// probeAll is ProbeAll with the run fold as a parameter, so a benchmark
// can time the table's loop over the pure-Go fold on any CPU.
func (t *Table) probeAll(ts []tuple.Tuple, mixRun func([]tuple.Tuple, uint64) uint64) (matches int64, xor uint64) {
	for _, probe := range ts {
		sg, i := t.find(probe.Key)
		if i < 0 {
			continue
		}
		matches++
		xor ^= tuple.MixPair(sg.slots[i].Index, probe.Index)
		if m := sg.meta[i]; m >= metaRun {
			run := t.dups[m-metaRun]
			matches += int64(len(run))
			xor ^= mixRun(run, probe.Index)
		}
	}
	return matches, xor
}

// Count returns the number of stored tuples.
func (t *Table) Count() int64 { return t.count }

// Bytes returns the accounted logical size of the stored tuples.
func (t *Table) Bytes() int64 { return t.bytes }

// Layout returns the tuple layout the table accounts with.
func (t *Table) Layout() tuple.Layout { return t.layout }

// CountsInRange returns the per-position tuple counts for the routing
// positions in r, as exchanged during the hybrid algorithm's reshuffle.
func (t *Table) CountsInRange(r hashfn.Range) []int64 {
	out := make([]int64, r.Width())
	copy(out, t.posCount[r.Lo:r.Hi])
	return out
}

// ExtractRange removes and returns every stored tuple whose routing
// position falls in r: ExtractRanges for one range. It is used when a
// split migrates the upper half of a bucket to a new node and when a
// failure-recovery purge drops a range.
func (t *Table) ExtractRange(r hashfn.Range) []tuple.Tuple {
	return t.ExtractRanges([]hashfn.Range{r})[0]
}

// ExtractRanges removes the stored tuples of disjoint routing ranges in one
// pass and returns them per range, in the order of rs; an empty range's
// result is nil. The hybrid algorithm's reshuffle sends a member's tuples
// to every other member of its group this way. Each result is allocated
// once, at the size the per-position counts give, and a range's counts are
// cleared, not decremented per tuple: an extraction that disagrees with
// them panics.
func (t *Table) ExtractRanges(rs []hashfn.Range) [][]tuple.Tuple {
	if len(rs) > maxSlotRanges {
		return append(t.ExtractRanges(rs[:maxSlotRanges]), t.ExtractRanges(rs[maxSlotRanges:])...)
	}
	out := make([][]tuple.Tuple, len(rs))
	want := make([]int64, len(rs))
	lo, hi := len(t.posCount), 0
	for i, r := range rs {
		for _, c := range t.posCount[r.Lo:r.Hi] {
			want[i] += c
		}
		if want[i] > 0 {
			out[i] = make([]tuple.Tuple, 0, want[i])
			lo, hi = min(lo, r.Lo), max(hi, r.Hi)
		}
	}
	if lo >= hi {
		return out // nothing stored in any of them
	}
	s := &sorter{space: t.space, lo: lo, slot: make([]uint8, hi-lo)}
	for i, r := range rs {
		if want[i] == 0 {
			continue // no tuple to claim, and no position to share
		}
		for p := r.Lo; p < r.Hi; p++ {
			if k := s.slot[p-lo]; k != 0 {
				panic(fmt.Sprintf("hashtable: extracted ranges %v and %v overlap", rs[k-1], r))
			}
			s.slot[p-lo] = uint8(i + 1)
		}
	}
	t.extract(out, s)
	for i, r := range rs {
		if int64(len(out[i])) != want[i] {
			panic(fmt.Sprintf("hashtable: extracted %d tuples of range %v, its position counts say %d",
				len(out[i]), r, want[i]))
		}
		clear(t.posCount[r.Lo:r.Hi])
		t.drop(want[i])
	}
	return out
}

// maxSlotRanges is how many ranges one ExtractRanges pass sorts by: a slot
// is a byte, 0 for "stays". A reshuffle group has one range per member.
const maxSlotRanges = 255

// ExtractMatching removes and returns every stored tuple satisfying pred.
// It is used by the out-of-core machinery to evict a spill partition.
func (t *Table) ExtractMatching(pred func(tuple.Tuple) bool) []tuple.Tuple {
	return t.extractPred(nil, pred)
}

// ExtractCounted is ExtractMatching for a caller that knows how many stored
// tuples satisfy pred: the result is allocated once, at that size. A join
// node's spill rung counts its partitions as tuples arrive and extracts all
// the partitions it has decided to evict in one such pass.
func (t *Table) ExtractCounted(n int64, pred func(tuple.Tuple) bool) []tuple.Tuple {
	return t.extractPred(make([]tuple.Tuple, 0, n), pred)
}

// extractPred removes every stored tuple satisfying pred and returns them
// appended to moved (empty, with the capacity the caller could predict).
func (t *Table) extractPred(moved []tuple.Tuple, pred func(tuple.Tuple) bool) []tuple.Tuple {
	out := [][]tuple.Tuple{moved}
	t.extract(out, &sorter{pred: pred})
	t.drop(int64(len(out[0])))
	for _, tp := range out[0] {
		t.posCount[t.space.PositionOf(tp.Key)]--
	}
	return out[0]
}

// sorter tells extract where a stored tuple goes: the index of its result
// in out, or -1 if it stays. Either pred decides (result 0 takes what it
// accepts) or the tuple's routing position does, through slot.
type sorter struct {
	pred  func(tuple.Tuple) bool
	space hashfn.Space
	lo    int     // the routing position slot[0] stands for
	slot  []uint8 // per position from lo: 1 + a result index, or 0
}

func (s *sorter) of(tp tuple.Tuple) int {
	if s.pred != nil {
		if s.pred(tp) {
			return 0
		}
		return -1
	}
	if p := uint(s.space.PositionOf(tp.Key) - s.lo); p < uint(len(s.slot)) {
		return int(s.slot[p]) - 1
	}
	return -1
}

// extract removes, in place and in one pass over the table, every stored
// tuple s sends somewhere and appends each to its result in out. The caller
// settles the position counts and calls drop.
func (t *Table) extract(out [][]tuple.Tuple, s *sorter) {
	for i := range t.segs {
		sg := &t.segs[i]
		if t.sealed {
			t.extractIndexed(sg, out, s)
		} else {
			sg.extractStaged(out, s)
		}
	}
}

// drop accounts n extracted tuples.
func (t *Table) drop(n int64) {
	t.count -= n
	t.bytes -= n * int64(t.layout.LogicalSize())
}

// extractStaged is extract on a staged segment: one sequential pass that
// compacts the tuples that stay towards the first block, keeping arrival
// order and the every-block-but-the-last-is-full rule, and releases the
// blocks that emptied.
func (sg *segment) extractStaged(out [][]tuple.Tuple, s *sorter) {
	wb, wi := 0, 0 // the next tuple that stays goes to blocks[wb][wi]
	for _, b := range sg.blocks {
		for _, tp := range b {
			if d := s.of(tp); d >= 0 {
				out[d] = append(out[d], tp)
				continue
			}
			sg.blocks[wb][wi] = tp
			if wi++; wi == cap(sg.blocks[wb]) {
				wb, wi = wb+1, 0
			}
		}
	}
	if wi > 0 {
		sg.blocks[wb] = sg.blocks[wb][:wi]
		wb++
	}
	for i := wb; i < len(sg.blocks); i++ {
		sg.blocks[i] = nil
	}
	sg.blocks = sg.blocks[:wb]
}

// extractIndexed is extract on a sealed segment. A slot whose tuple leaves
// takes over a member of its key's run if one stays; otherwise it is
// deleted by backward shift, which may pull a not yet examined slot into
// position i — so i is examined again.
func (t *Table) extractIndexed(sg *segment, out [][]tuple.Tuple, s *sorter) {
	for i := 0; i < len(sg.meta); {
		m := sg.meta[i]
		if m == metaEmpty {
			i++
			continue
		}
		var run []tuple.Tuple
		if m >= metaRun {
			run = t.dups[m-metaRun]
			kept := run[:0]
			for _, tp := range run {
				if d := s.of(tp); d >= 0 {
					out[d] = append(out[d], tp)
				} else {
					kept = append(kept, tp)
				}
			}
			run = kept
		}
		if d := s.of(sg.slots[i]); d >= 0 {
			out[d] = append(out[d], sg.slots[i])
			if len(run) == 0 {
				if m >= metaRun {
					t.freeRun(m - metaRun)
				}
				sg.remove(i)
				continue
			}
			sg.slots[i] = run[len(run)-1]
			run = run[:len(run)-1]
		}
		if m >= metaRun {
			if len(run) == 0 {
				t.freeRun(m - metaRun)
				sg.meta[i] = metaOne
			} else {
				t.dups[m-metaRun] = run
			}
		}
		i++
	}
}

// remove deletes slot i by backward shift: every later member of the
// probe cluster that may legally sit closer to its home moves up, so no
// tombstone is left and lookups keep stopping at the first empty slot.
func (sg *segment) remove(i int) {
	for j := i; ; {
		if j++; j == len(sg.meta) {
			j = 0
		}
		if sg.meta[j] == metaEmpty {
			break
		}
		// The tuple at j must stay if its home lies cyclically in (i, j].
		k := sg.home(mixKey(sg.slots[j].Key))
		if i <= j {
			if i < k && k <= j {
				continue
			}
		} else if i < k || k <= j {
			continue
		}
		sg.slots[i], sg.meta[i] = sg.slots[j], sg.meta[j]
		i = j
	}
	sg.meta[i] = metaEmpty
	sg.used--
}

// ForEach invokes fn for every stored tuple, in no particular order.
func (t *Table) ForEach(fn func(tuple.Tuple)) {
	for s := range t.segs {
		sg := &t.segs[s]
		for _, b := range sg.blocks {
			for _, tp := range b {
				fn(tp)
			}
		}
		for i, m := range sg.meta {
			if m == metaEmpty {
				continue
			}
			fn(sg.slots[i])
			if m >= metaRun {
				for _, tp := range t.dups[m-metaRun] {
					fn(tp)
				}
			}
		}
	}
}

// Reset empties the table and returns it to the staged state.
func (t *Table) Reset() {
	t.segs = [numSegs]segment{}
	t.sealed = false
	t.dups, t.freeDups = nil, nil
	t.count = 0
	t.bytes = 0
	for i := range t.posCount {
		t.posCount[i] = 0
	}
}
