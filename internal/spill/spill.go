// Package spill holds the partitions a join node has evicted to local disk.
//
// A join node keeps its build tuples in its own hash table. When the table
// outgrows the node's memory budget the node evicts whole spill partitions
// (sub-hashed by join attribute) to a Manager: it marks each victim here at
// the decision and hands the victim's tuples over before anything reads
// them. From then on tuples of evicted partitions, of both relations, stream
// straight to the Manager. A final phase joins each spilled partition pair,
// falling back to block-nested-loop passes when a build partition alone
// exceeds the budget (pathological skew).
//
// The out-of-core baseline ("Out of Core" in Figures 2-13) and the expanding
// algorithms' last degradation rung are the same machinery; they differ
// only in who decides to evict: the baseline on its own overflow, with a
// Policy, the expanding algorithms on the scheduler's spill order.
//
// Spilled tuples are retained physically in memory (16 bytes each) but all
// their logical bytes are charged to the simulated disk, so spill timing
// reflects disk traffic exactly as on the paper's testbed.
package spill

import (
	"ehjoin/internal/hashfn"
	"ehjoin/internal/hashtable"
	rt "ehjoin/internal/runtime"
	"ehjoin/internal/tuple"
)

const fibMul = 0x9E3779B97F4A7C15

// writeBatchBytes is the spill write-buffer size: disk write time is
// charged once per accumulated batch, modelling sequential buffered I/O.
const writeBatchBytes = 1 << 20

// Policy selects which partitions an out-of-core node evicts when its table
// overflows the budget.
type Policy uint8

const (
	// Grace is the paper's baseline (§2, "basic out-of-core join
	// algorithm"): the first budget overflow evicts every partition, so the
	// node is fully out of core — every subsequent tuple of both relations
	// streams to disk partitions, joined pairwise in the final phase.
	Grace Policy = iota
	// HybridHash keeps as many partitions resident as the budget allows,
	// evicting the largest partitions on overflow until the rest fits; only
	// evicted partitions pay disk traffic. A stronger baseline than the
	// paper's, provided for ablation; it is also how the expanding
	// algorithms' spill rung chooses its victims.
	HybridHash
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case Grace:
		return "grace"
	case HybridHash:
		return "hybrid-hash"
	default:
		return "Policy(?)"
	}
}

// Manager holds one join node's evicted partitions.
type Manager struct {
	space   hashfn.Space
	layoutR tuple.Layout
	layoutS tuple.Layout
	budget  int64
	cm      rt.CostModel

	parts     int
	partShift uint
	spilled   []bool

	spilledR []stream
	spilledS []stream
	rBytes   []int64
	sBytes   []int64

	pendingWrite int64 // bytes awaiting a batched disk-write charge

	// Stats
	SpillWrittenBytes int64
	SpillReadBytes    int64
	Evictions         int64
	BNLPasses         int64

	matches  uint64
	checksum uint64
}

// stream is one spilled partition's tuples of one relation, in the order
// they reached the disk. It grows the way a hashtable segment's staging area
// does: its only block doubles from streamFirst to streamBlock, after which
// blocks are added, so a tuple already spilled is never copied again and a
// partition holding a handful of tuples stays at a few hundred bytes. A
// block need not be full — adoptFront and remove leave short ones behind;
// add only ever looks at the last.
type stream struct {
	blocks [][]tuple.Tuple
	n      int // tuples in all blocks
}

const (
	streamBlock = 1024
	streamFirst = 16
)

// add appends one tuple.
func (s *stream) add(t tuple.Tuple) {
	k := len(s.blocks)
	if k == 0 || len(s.blocks[k-1]) == cap(s.blocks[k-1]) {
		switch {
		case k == 0:
			s.blocks = append(s.blocks, make([]tuple.Tuple, 0, streamFirst))
		case k == 1 && cap(s.blocks[0]) < streamBlock:
			s.blocks[0] = append(make([]tuple.Tuple, 0, 2*cap(s.blocks[0])), s.blocks[0]...)
		default:
			s.blocks = append(s.blocks, make([]tuple.Tuple, 0, streamBlock))
		}
		k = len(s.blocks)
	}
	s.blocks[k-1] = append(s.blocks[k-1], t)
	s.n++
}

// adoptFront makes ts, whose ownership passes to the stream, its first
// tuples.
func (s *stream) adoptFront(ts []tuple.Tuple) {
	if len(ts) == 0 {
		return
	}
	s.blocks = append([][]tuple.Tuple{ts}, s.blocks...)
	s.n += len(ts)
}

// each calls fn with the consecutive pieces of the stream that hold its
// tuples lo through hi-1.
func (s *stream) each(lo, hi int, fn func([]tuple.Tuple)) {
	for _, b := range s.blocks {
		if hi <= 0 {
			return
		}
		if lo < len(b) {
			fn(b[max(lo, 0):min(hi, len(b))])
		}
		lo, hi = lo-len(b), hi-len(b)
	}
}

// remove deletes the tuples take returns true for, keeping the order of the
// rest, and releases the blocks that emptied.
func (s *stream) remove(take func(tuple.Tuple) bool) {
	blocks := s.blocks[:0]
	for _, b := range s.blocks {
		kept := b[:0]
		for _, t := range b {
			if !take(t) {
				kept = append(kept, t)
			}
		}
		s.n -= len(b) - len(kept)
		if len(kept) > 0 {
			blocks = append(blocks, kept)
		}
	}
	for i := len(blocks); i < len(s.blocks); i++ {
		s.blocks[i] = nil
	}
	s.blocks = blocks
}

// NewRung returns the Manager of one join node's spill rung, with the given
// fan-out rounded up to a power of two. The node's own hash table keeps
// holding the resident partitions; the Manager owns only the evicted ones,
// fed through MarkEvicted / AdoptBuild / SpillBuild / SpillProbe, and joins
// them in Finish. The budget bounds the block size of Finish's
// block-nested-loop passes.
func NewRung(space hashfn.Space, layoutR, layoutS tuple.Layout, budget int64, parts int, cm rt.CostModel) *Manager {
	p := 1
	shift := uint(64)
	for p < parts {
		p <<= 1
		shift--
	}
	return &Manager{
		space:     space,
		layoutR:   layoutR,
		layoutS:   layoutS,
		budget:    budget,
		cm:        cm,
		parts:     p,
		partShift: shift,
		spilled:   make([]bool, p),
		spilledR:  make([]stream, p),
		spilledS:  make([]stream, p),
		rBytes:    make([]int64, p),
		sBytes:    make([]int64, p),
	}
}

func (m *Manager) partOf(key uint64) int {
	return int((key * fibMul) >> m.partShift)
}

// PartOf returns the spill partition a key sub-hashes into, so the caller
// can route tuples of evicted partitions here.
func (m *Manager) PartOf(key uint64) int { return m.partOf(key) }

// PartitionOf computes the partition a key sub-hashes into for a
// configured (pre-rounding) partition count, without a Manager: the same
// rounding and hash every Manager built with that count uses. The
// scheduler's heavy-hitter detection uses it to exempt keys living in
// partitions some node has spilled.
func PartitionOf(key uint64, parts int) int {
	p := 1
	shift := uint(64)
	for p < parts {
		p <<= 1
		shift--
	}
	return int((key * fibMul) >> shift)
}

// Parts returns the spill fan-out (rounded up to a power of two).
func (m *Manager) Parts() int { return m.parts }

// Spilled reports whether partition p has been evicted to disk.
func (m *Manager) Spilled(p int) bool { return m.spilled[p] }

// SpilledPartitions counts the partitions currently evicted to disk.
func (m *Manager) SpilledPartitions() int64 {
	var n int64
	for _, s := range m.spilled {
		if s {
			n++
		}
	}
	return n
}

func (m *Manager) chargeWrite(env rt.Env, bytes int64) {
	m.pendingWrite += bytes
	m.SpillWrittenBytes += bytes
	if m.pendingWrite >= writeBatchBytes {
		env.ChargeDisk(m.pendingWrite, false)
		m.pendingWrite = 0
	}
}

func (m *Manager) flushWrites(env rt.Env) {
	if m.pendingWrite > 0 {
		env.ChargeDisk(m.pendingWrite, false)
		m.pendingWrite = 0
	}
}

// EvictBuild marks partition p evicted and takes ownership of its build
// tuples, which the caller extracted from the table holding them: the
// decision and the hand-over at once.
func (m *Manager) EvictBuild(env rt.Env, p int, moved []tuple.Tuple) {
	m.MarkEvicted(env, p, int64(len(moved)))
	m.AdoptBuild(p, moved)
}

// MarkEvicted is the decision half of an eviction: partition p is on disk
// from here on — its later tuples must stream through SpillBuild /
// SpillProbe — and the n build tuples still in memory are
// charged now, extraction and disk write alike. The caller owes them to
// AdoptBuild before anything reads the partition's stream.
func (m *Manager) MarkEvicted(env rt.Env, p int, n int64) {
	m.spilled[p] = true
	if n == 0 {
		return
	}
	env.ChargeCPU(m.cm.MoveNs * n)
	bytes := n * int64(m.layoutR.LogicalSize())
	m.rBytes[p] += bytes
	m.chargeWrite(env, bytes)
	m.Evictions++
}

// AdoptBuild takes ownership of the build tuples MarkEvicted charged for.
// They were in memory when the partition was marked, so they go ahead of
// whatever streamed to it since: the stream reads as if they had been
// written at the decision.
func (m *Manager) AdoptBuild(p int, moved []tuple.Tuple) {
	m.spilledR[p].adoptFront(moved)
}

// SpillBuild streams one build tuple of an evicted partition to
// disk; the node's live table never sees it.
func (m *Manager) SpillBuild(env rt.Env, t tuple.Tuple) {
	p := m.partOf(t.Key)
	env.ChargeCPU(m.cm.MoveNs)
	m.spilledR[p].add(t)
	size := int64(m.layoutR.LogicalSize())
	m.rBytes[p] += size
	m.chargeWrite(env, size)
}

// SpillProbe streams one probe tuple of an evicted partition to
// disk for the final phase.
func (m *Manager) SpillProbe(env rt.Env, t tuple.Tuple) {
	p := m.partOf(t.Key)
	env.ChargeCPU(m.cm.MoveNs)
	m.spilledS[p].add(t)
	size := int64(m.layoutS.LogicalSize())
	m.sBytes[p] += size
	m.chargeWrite(env, size)
}

// ExtractRange reads back and removes every spilled build tuple whose
// routing position falls in rng. A bucket split (or reshuffle) migrating
// part of a spilled node's range must take the on-disk tuples with it, so
// the extraction pays a seek plus the read-back of the moved bytes.
func (m *Manager) ExtractRange(env rt.Env, rng hashfn.Range) []tuple.Tuple {
	var moved []tuple.Tuple
	size := int64(m.layoutR.LogicalSize())
	for p := range m.spilledR {
		before := len(moved)
		m.spilledR[p].remove(func(t tuple.Tuple) bool {
			if !rng.Contains(m.space.PositionOf(t.Key)) {
				return false
			}
			moved = append(moved, t)
			return true
		})
		m.rBytes[p] -= int64(len(moved)-before) * size
	}
	if len(moved) > 0 {
		bytes := int64(len(moved)) * size
		env.ChargeCPU(m.cm.DiskSeekNs)
		env.ChargeDisk(bytes, true)
		m.SpillReadBytes += bytes
	}
	return moved
}

// PurgeRange discards every spilled tuple whose routing position falls in
// rng without reading it back: failure recovery rebuilds the range from the
// sources, and the spilled copies would otherwise duplicate the re-streamed
// ones. Returns the number of build tuples dropped.
func (m *Manager) PurgeRange(rng hashfn.Range) int64 {
	var dropped int64
	rSize := int64(m.layoutR.LogicalSize())
	sSize := int64(m.layoutS.LogicalSize())
	inRange := func(t tuple.Tuple) bool { return rng.Contains(m.space.PositionOf(t.Key)) }
	for p := range m.spilledR {
		r, s := m.spilledR[p].n, m.spilledS[p].n
		m.spilledR[p].remove(inRange)
		m.spilledS[p].remove(inRange)
		dropped += int64(r - m.spilledR[p].n)
		m.rBytes[p] -= int64(r-m.spilledR[p].n) * rSize
		m.sBytes[p] -= int64(s-m.spilledS[p].n) * sSize
	}
	return dropped
}

// probeAll joins a batch of probe tuples against tbl through the table's
// own match kernel and charges the batch's CPU in one call.
func (m *Manager) probeAll(env rt.Env, tbl *hashtable.Table, ts []tuple.Tuple) {
	n, xor := tbl.ProbeAll(ts)
	m.matches += uint64(n)
	m.checksum ^= xor
	env.ChargeCPU(m.cm.ProbeNs*int64(len(ts)) + m.cm.MatchNs*n)
}

// Finish joins every spilled partition pair (the out-of-core final local
// phase). Build partitions larger than the memory budget are joined
// in block-nested-loop passes, re-reading the spilled probe partition once
// per pass. Every block is joined through one transient table, emptied
// between blocks.
func (m *Manager) Finish(env rt.Env) {
	m.flushWrites(env)
	rSize := int64(m.layoutR.LogicalSize())
	blockTuples := max(int(m.budget/rSize), 1)
	var tbl *hashtable.Table
	for p := range m.spilledR {
		rpart, spart := &m.spilledR[p], &m.spilledS[p]
		// A probe-only partition cannot produce matches: it costs no seek,
		// no table, and no re-read of its spilled probe stream.
		for lo := 0; lo < rpart.n; lo += blockTuples {
			hi := min(lo+blockTuples, rpart.n)
			if lo > 0 {
				m.BNLPasses++
			}
			// Read the build block, build the transient table.
			env.ChargeCPU(m.cm.DiskSeekNs)
			env.ChargeDisk(int64(hi-lo)*rSize, true)
			m.SpillReadBytes += int64(hi-lo) * rSize
			if tbl == nil {
				tbl = hashtable.New(m.space, m.layoutR)
			} else {
				tbl.Reset()
			}
			env.ChargeCPU(m.cm.BuildNs * int64(hi-lo))
			rpart.each(lo, hi, tbl.InsertAll)
			// Stream the spilled probe partition against it.
			if spart.n > 0 {
				env.ChargeCPU(m.cm.DiskSeekNs)
				env.ChargeDisk(m.sBytes[p], true)
				m.SpillReadBytes += m.sBytes[p]
				spart.each(0, spart.n, func(ts []tuple.Tuple) { m.probeAll(env, tbl, ts) })
			}
		}
	}
}

// StoredBuildTuples counts the build tuples the Manager holds on disk (used
// by the conservation invariant, next to the node's table).
func (m *Manager) StoredBuildTuples() int64 {
	var n int64
	for p := range m.spilledR {
		n += int64(m.spilledR[p].n)
	}
	return n
}

// Matches returns the number of join matches produced so far.
func (m *Manager) Matches() uint64 { return m.matches }

// Checksum returns the order-independent XOR checksum over all matches.
func (m *Manager) Checksum() uint64 { return m.checksum }

// MixPair forwards to tuple.MixPair, the definition of the match
// fingerprint; the benchmark's oracle and the reference joins name it here.
func MixPair(r, s uint64) uint64 { return tuple.MixPair(r, s) }
