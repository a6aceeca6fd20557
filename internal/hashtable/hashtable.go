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
// (DESIGN.md "Join-node table layout"): a slot holds one tuple, and a
// parallel tag byte says whether the slot is empty and, if not, carries 6
// bits of the key's hash and whether the key also owns a contiguous run
// with its other tuples. A lookup reads a slot only where the tag matches,
// so a probe for an absent key usually reads tags alone. A run stores each
// tuple as one 8-byte word, tuple.RunWord of its index — the slot holds
// the key they share — and every reader that hands tuples back rebuilds
// them exactly (tuple.RunIndex). Inserting a tuple of a new key allocates
// nothing; probing a key scans one slot and, for a duplicated key, one
// slice. ProbeAll, the engine's probe, works in groups of 16 tuples: it
// hashes the group and prefetches every home slot before it resolves any,
// so the group's cache misses overlap instead of queueing.
//
// A table is built, then probed, as the paper's phase barrier separates
// the two (DESIGN.md "Staged build, one-shot seal"), and the seal is the
// only code that builds its index. A table starts *staged*: InsertAll
// appends each tuple to its segment's open block, whose capacity doubles
// from block to block up to a fixed size, so a staged tuple is never
// copied before the seal. Everything the expanding algorithms decide from
// — Count, Bytes, the per-position counts — and everything they move or
// read — the extractions, ForEach, KeyCountsAt, TuplesWithKey — works on
// the blocks. The first lookup seals the table: each segment's slots are
// sized once, from the tuples staged there, and filled in arrival order,
// on pages that are mostly staging blocks already indexed, so a sealed
// table holds its tuples once. A sealed table is read-only: an insert or an
// extraction first unseals it — its tuples go back on the staging blocks
// and the index is dropped — and the next lookup seals it again, so a
// caller that alternates inserts and lookups pays a seal per switch.
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
	// segBits selects one of 64 independently sized segments from the
	// top bits of the mixed key, so the seal fills one cache-resident
	// segment at a time and the capacity slack of the segments averages
	// out.
	segBits = 6
	numSegs = 1 << segBits
	fibMul  = 0x9E3779B97F4A7C15

	// stageBlock is the largest capacity in tuples of a staging block. A
	// segment's first block holds stageFirst and each next one twice the
	// one before, up to stageBlock, so a small table (a spill partition, a
	// node holding a few heavy keys) stays at a few KB and no block is
	// copied to grow; beyond the ladder a staged tuple costs 1/stageBlock
	// allocations.
	stageBlock = 1024
	stageFirst = 16
)

// Tags: tagEmpty, or tagUsed | the low 6 bits of the key's mixKey, plus
// tagRun when the slot's key also owns a duplicate run. The hash bits are
// independent of the segment (the top bits) and of the home slot, so
// within a segment they tell keys apart.
const (
	tagEmpty uint8 = 0
	tagUsed  uint8 = 0x80
	tagRun   uint8 = 0x40
	tagHash  uint8 = 0x3f
)

// tagOf is the tag of a slot holding a key whose mixed key is h and that
// owns no run.
func tagOf(h uint64) uint8 { return tagUsed | uint8(h)&tagHash }

// segment is one linear-probed array of distinct keys at load ≤ ¾. Its
// capacity is arbitrary (not a power of two): a hash is reduced to a slot
// by multiply-high.
type segment struct {
	// blocks and open hold the staged tuples, each key's in arrival
	// order: blocks the full staging blocks, open the block being filled.
	// Block i has capacity min(stageFirst<<i, stageBlock) and the open
	// block the next rung; open is nil only while nothing is staged. Both
	// are nil while the table is sealed.
	blocks [][]tuple.Tuple
	open   []tuple.Tuple
	// pages hold the slots: slot i is pages[i/stageBlock][i%stageBlock],
	// and every page but the last is full. An empty slot holds stale data.
	pages [][]tuple.Tuple
	tags  []uint8
	// runs holds, for a slot tagged tagRun, the index of its key's run in
	// Table.dups. It is allocated at the segment's first duplicate, so a
	// segment of unique keys has none.
	runs []int32
	used int // occupied slots
	// salt, derived from the capacity, re-orders the segment's slots
	// between capacities: tuples unsealed in slot order and then extracted
	// arrive at their next table in an order unrelated to that table's own
	// slot order.
	salt uint64
}

// Table is a join node's local hash table.
type Table struct {
	space  hashfn.Space
	layout tuple.Layout
	segs   [numSegs]segment
	// sealed says the segments are indexed. It is set by a lookup (find or
	// ProbeAll) and cleared by unseal and Reset; while it is false pages and
	// tags are nil and the tuples live in the segments' staging blocks.
	sealed bool
	spare  [][]tuple.Tuple // during a seal, blocks of stageBlock tuples it is done with
	// dups holds, per duplicated key, the RunWords of the key's tuples
	// beyond the one in its slot.
	dups  [][]uint64
	count int64
	bytes int64
	// posCount tracks tuples per routing position, needed by the hybrid
	// algorithm's reshuffling step and by the load-balance metrics.
	posCount []int64
	// steps counts the occupied slots the seal stepped over; the tests
	// that pin the hash-independence rules bound it.
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
	hi, _ := bits.Mul64((h^sg.salt)*fibMul, uint64(len(sg.tags)))
	return int(hi)
}

// slot returns the address of slot i.
func (sg *segment) slot(i int) *tuple.Tuple {
	return &sg.pages[uint(i)/stageBlock][uint(i)%stageBlock]
}

// find returns the segment of key and the slot holding it, or -1. Every
// single-key lookup goes through it, so it is where a staged table is
// sealed; ProbeAll seals once and runs the same lookup per group.
func (t *Table) find(key uint64) (*segment, int) {
	if !t.sealed {
		t.seal()
	}
	h := mixKey(key)
	sg := &t.segs[h>>(64-segBits)]
	if sg.used == 0 {
		return sg, -1
	}
	i, _ := sg.lookup(h, sg.home(h), nil, key)
	return sg, i
}

// lookup returns the slot of a non-empty segment holding key, whose mixed
// key is h, and its address, or -1 and nil. It starts at the home slot i,
// at address p if p is not nil. It is the package's one probe loop.
func (sg *segment) lookup(h uint64, i int, p *tuple.Tuple, key uint64) (int, *tuple.Tuple) {
	tag := tagOf(h)
	for {
		g := sg.tags[i]
		if g == tagEmpty {
			return -1, nil
		}
		if g&^tagRun == tag {
			if p == nil {
				p = sg.slot(i)
			}
			if p.Key == key {
				return i, p
			}
		}
		if i++; i == len(sg.tags) {
			i = 0
		}
		p = nil
	}
}

// Insert adds one tuple: InsertAll for a batch of one.
func (t *Table) Insert(tp tuple.Tuple) { t.InsertAll([]tuple.Tuple{tp}) }

// InsertAll appends every tuple of a batch to its segment's open staging
// block, unsealing a sealed table first. It is the table's one insert
// loop; the count and bytes move once per batch.
func (t *Table) InsertAll(ts []tuple.Tuple) {
	if len(ts) > 0 && t.sealed {
		t.unseal()
	}
	space, posCount := t.space, t.posCount
	for _, tp := range ts {
		t.segs[mixKey(tp.Key)>>(64-segBits)].stage(tp)
		posCount[space.PositionOf(tp.Key)]++
	}
	t.count += int64(len(ts))
	t.bytes += int64(len(ts)) * int64(t.layout.LogicalSize())
}

// stage appends tp to the segment's open block, opening the next block
// first when it is full.
func (sg *segment) stage(tp tuple.Tuple) {
	if len(sg.open) == cap(sg.open) {
		sg.addBlock()
	}
	sg.open = append(sg.open, tp)
}

// addBlock closes the full open block and opens the next, twice its
// capacity up to stageBlock; a segment's first block holds stageFirst.
func (sg *segment) addBlock() {
	n := stageFirst
	if sg.open != nil {
		sg.blocks = append(sg.blocks, sg.open)
		n = min(2*cap(sg.open), stageBlock)
	}
	sg.open = make([]tuple.Tuple, 0, n)
}

// staged returns the segment's staging blocks in arrival order, the open
// block last. The seal, extraction, TuplesWithKey and the walks read
// staged tuples through it. The append may put the open block in the
// spare room of blocks, the slot addBlock closes it into.
func (sg *segment) staged() [][]tuple.Tuple {
	if sg.open == nil {
		return sg.blocks
	}
	return append(sg.blocks, sg.open)
}

// seal indexes the staged tuples, one segment at a time so the pages
// being filled stay cache-resident. It is the only code that sizes a
// segment or places a key. A segment gets slots for the tuples it staged
// at load ¾; the +4 keeps the empty slot find stops at (capacity 3 for one
// tuple could fill). Each staging block of stageBlock tuples goes on the
// spare list once indexed: the next segments take their pages from it,
// still in cache. A segment whose tuples share few keys is then re-placed
// at the size its keys need — duplicates live in runs, not slots.
func (t *Table) seal() {
	t.sealed = true
	for s := range t.segs {
		sg := &t.segs[s]
		blocks := sg.staged()
		sg.blocks, sg.open = nil, nil
		n := 0
		for _, b := range blocks {
			n += len(b)
		}
		if n == 0 {
			continue
		}
		t.alloc(sg, n+n/3+4)
		for _, b := range blocks {
			for _, tp := range b {
				t.index(sg, mixKey(tp.Key), tp)
			}
			if cap(b) == stageBlock {
				t.spare = append(t.spare, b)
			}
		}
		if sg.used < len(sg.tags)/2 {
			t.rehash(sg, sg.used+sg.used/3+4)
		}
	}
	t.spare = nil
}

// alloc gives the segment n empty slots and no runs; used is the
// caller's. A full page is a spare block while there is one.
func (t *Table) alloc(sg *segment, n int) {
	sg.pages = make([][]tuple.Tuple, (n+stageBlock-1)/stageBlock)
	for k := range sg.pages {
		if m := len(t.spare) - 1; m >= 0 && n-k*stageBlock >= stageBlock {
			sg.pages[k], t.spare = poison(t.spare[m][:stageBlock]), t.spare[:m]
		} else {
			sg.pages[k] = make([]tuple.Tuple, min(n-k*stageBlock, stageBlock))
		}
	}
	sg.tags = make([]uint8, n)
	sg.runs = nil
	sg.salt = uint64(n) * 0xD6E8FEB86659FD93
}

// index places tp, whose mixed key is h, in a segment being sealed.
func (t *Table) index(sg *segment, h uint64, tp tuple.Tuple) {
	tag := tagOf(h)
	for i := sg.home(h); ; {
		g := sg.tags[i]
		if g == tagEmpty {
			*sg.slot(i) = tp
			sg.tags[i] = tag
			sg.used++
			return
		}
		if g&^tagRun == tag && sg.slot(i).Key == tp.Key {
			w := tuple.RunWord(tp.Index)
			if g&tagRun == 0 {
				if sg.runs == nil {
					sg.runs = make([]int32, len(sg.tags))
				}
				sg.runs[i] = t.newRun(w)
				sg.tags[i] |= tagRun
			} else {
				t.dups[sg.runs[i]] = append(t.dups[sg.runs[i]], w)
			}
			return
		}
		t.steps++
		if i++; i == len(sg.tags) {
			i = 0
		}
	}
}

// newRun starts a duplicate run holding the word w and returns its index.
func (t *Table) newRun(w uint64) int32 {
	t.dups = append(t.dups, []uint64{w})
	return int32(len(t.dups) - 1)
}

// unseal puts a sealed table's tuples back on the segments' staging
// blocks, slot by slot and each key's in arrival order (its slot's tuple,
// then its run), and drops the index. Every insert into and extraction
// from a sealed table runs it first; the next lookup seals again.
func (t *Table) unseal() {
	t.sealed = false
	for s := range t.segs {
		sg := &t.segs[s]
		t.forEachIndexed(sg, sg.stage)
		sg.pages, sg.tags, sg.runs, sg.used = nil, nil, nil, 0
	}
	t.dups = nil
}

// forEachIndexed invokes fn for every tuple a sealed segment indexes, slot
// by slot, each key's in arrival order.
func (t *Table) forEachIndexed(sg *segment, fn func(tuple.Tuple)) {
	for i, g := range sg.tags {
		if g == tagEmpty {
			continue
		}
		fn(*sg.slot(i))
		if g&tagRun != 0 {
			key := sg.slot(i).Key
			for _, w := range t.dups[sg.runs[i]] {
				fn(tuple.Tuple{Index: tuple.RunIndex(w), Key: key})
			}
		}
	}
}

// InsertChunk adds every tuple of a chunk.
func (t *Table) InsertChunk(c *tuple.Chunk) { t.InsertAll(c.Tuples) }

// rehash moves the segment's occupied slots to n new slots, and its old
// pages to the spare list; a segment that has runs keeps them.
func (t *Table) rehash(sg *segment, n int) {
	old := *sg
	t.alloc(sg, n)
	if old.runs != nil {
		sg.runs = make([]int32, n)
	}
	for j, g := range old.tags {
		if g == tagEmpty {
			continue
		}
		tp := *old.slot(j)
		i := sg.home(mixKey(tp.Key))
		for sg.tags[i] != tagEmpty {
			t.steps++
			if i++; i == n {
				i = 0
			}
		}
		*sg.slot(i) = tp
		sg.tags[i] = g
		if g&tagRun != 0 {
			sg.runs[i] = old.runs[j]
		}
	}
	t.spare = append(t.spare, old.pages[:len(old.tags)/stageBlock]...)
}

// Probe invokes fn for every stored tuple whose join attribute equals key
// and returns the number of matches.
func (t *Table) Probe(key uint64, fn func(build tuple.Tuple)) int {
	sg, i := t.find(key)
	if i < 0 {
		return 0
	}
	var run []uint64
	if sg.tags[i]&tagRun != 0 {
		run = t.dups[sg.runs[i]]
	}
	if fn != nil {
		fn(*sg.slot(i))
		for _, w := range run {
			fn(tuple.Tuple{Index: tuple.RunIndex(w), Key: key})
		}
	}
	return 1 + len(run)
}

// ProbeAll probes a batch of tuples and returns the total match count and
// the XOR of tuple.MixPair over every matched (build, probe) pair — the
// join's result fingerprint. The slot's own tuple folds inline; a
// duplicate-key run's words fold through tuple.MixRun, one call per run,
// which is where a skewed join spends its time: under skew a join's cost
// is its output.
func (t *Table) ProbeAll(ts []tuple.Tuple) (matches int64, xor uint64) {
	return t.probeAll(ts, tuple.MixRun)
}

// probeGroup is how many probes ProbeAll hashes and prefetches before it
// resolves them. Groups of 8 to 64 measured alike (DESIGN.md §14).
const probeGroup = 16

// probeAll is ProbeAll with the run fold as a parameter, so a benchmark
// can time the table's loop over the pure-Go fold on any CPU. Each group
// takes two passes: the first hashes every tuple and prefetches its home
// slot, the second resolves each with lookup from that slot's address, by
// which time the group's misses have been in flight together.
func (t *Table) probeAll(ts []tuple.Tuple, mixRun func([]uint64, uint64) uint64) (matches int64, xor uint64) {
	if len(ts) > 0 && !t.sealed {
		t.seal()
	}
	var (
		hs    [probeGroup]uint64
		homes [probeGroup]int // -1: the key's segment is empty
		at    [probeGroup]*tuple.Tuple
		ps    [probeGroup]*tuple.Tuple
	)
	for len(ts) > 0 {
		g := ts[:min(len(ts), probeGroup)]
		ts = ts[len(g):]
		n := 0
		for j := range g {
			h := mixKey(g[j].Key)
			sg := &t.segs[h>>(64-segBits)]
			hs[j], homes[j] = h, -1
			if sg.used == 0 {
				continue
			}
			homes[j] = sg.home(h)
			at[j] = sg.slot(homes[j])
			ps[n] = at[j]
			n++
		}
		prefetchSlots(ps[:n])
		for j := range g {
			if homes[j] < 0 {
				continue
			}
			sg := &t.segs[hs[j]>>(64-segBits)]
			i, p := sg.lookup(hs[j], homes[j], at[j], g[j].Key)
			if i < 0 {
				continue
			}
			matches++
			xor ^= tuple.MixPair(p.Index, g[j].Index)
			if sg.tags[i]&tagRun != 0 {
				run := t.dups[sg.runs[i]]
				matches += int64(len(run))
				xor ^= mixRun(run, g[j].Index)
			}
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

// extract removes, in one pass over the staging blocks, every stored
// tuple s sends somewhere and appends each to its result in out, unsealing
// a sealed table first. The caller settles the position counts and calls
// drop.
func (t *Table) extract(out [][]tuple.Tuple, s *sorter) {
	if t.sealed {
		t.unseal()
	}
	for i := range t.segs {
		t.segs[i].extract(out, s)
	}
}

// drop accounts n extracted tuples.
func (t *Table) drop(n int64) {
	t.count -= n
	t.bytes -= n * int64(t.layout.LogicalSize())
}

// extract is Table.extract on one segment: one sequential pass that
// compacts the tuples that stay towards the first block, keeping their
// order. The block the last of them lands in becomes the open block, the
// ones before it stay full, and the blocks that emptied are released.
func (sg *segment) extract(out [][]tuple.Tuple, s *sorter) {
	blocks := sg.staged()
	wb, wi := 0, 0 // the next tuple that stays goes to blocks[wb][wi]
	for _, b := range blocks {
		for _, tp := range b {
			if d := s.of(tp); d >= 0 {
				out[d] = append(out[d], tp)
				continue
			}
			blocks[wb][wi] = tp
			if wi++; wi == cap(blocks[wb]) {
				wb, wi = wb+1, 0
			}
		}
	}
	if wi > 0 {
		blocks[wb] = blocks[wb][:wi]
		wb++
	}
	clear(blocks[wb:])
	if wb == 0 {
		sg.blocks, sg.open = blocks[:0], nil
	} else {
		sg.blocks, sg.open = blocks[:wb-1], blocks[wb-1]
	}
}

// ForEach invokes fn for every stored tuple, in no particular order.
func (t *Table) ForEach(fn func(tuple.Tuple)) {
	for s := range t.segs {
		sg := &t.segs[s]
		for _, b := range sg.staged() {
			for _, tp := range b {
				fn(tp)
			}
		}
		t.forEachIndexed(sg, fn)
	}
}

// Reset empties the table and returns it to the staged state.
func (t *Table) Reset() {
	clear(t.posCount)
	*t = Table{space: t.space, layout: t.layout, posCount: t.posCount}
}
