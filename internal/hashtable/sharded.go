package hashtable

import (
	"time"

	"ehjoin/internal/hashfn"
	"ehjoin/internal/tuple"
)

// maxShards bounds the intra-node parallelism degree. Beyond this the
// per-shard fixed costs (posCount arrays, morsel dispatch) dominate any
// conceivable core count.
const maxShards = 256

// Sharded partitions a join node's table across P shards by routing
// position (shard = position mod P), each shard a private Table with its
// own slots, byte accounting, and posCount array. Build inserts and
// probe lookups run as per-shard morsels on a worker pool with no
// locking on the hot path: a chunk is counting-sorted into per-shard
// morsels, the morsels execute in parallel, and the caller resumes after
// the barrier.
//
// Every aggregate a caller can observe is independent of shard count and
// execution order: counts and bytes are sums, probe results combine by
// addition and XOR, and CountsInRange sums disjoint per-shard arrays. A
// Sharded table is therefore semantically interchangeable with a serial
// Table — the property the differential oracle tests pin down.
//
// A Sharded table belongs to one actor and must not be called
// concurrently; the parallelism is inside a call, never across calls.
type Sharded struct {
	space  hashfn.Space
	layout tuple.Layout
	shards []*Table
	pool   *Pool

	// Morsel-partition scratch, reused across chunks. gathered holds the
	// chunk's tuples physically regrouped by shard so each morsel scans a
	// contiguous run — index indirection here costs ~2× per tuple on the
	// insert loop.
	shardOf  []uint8
	counts   []int32
	offs     []int32
	next     []int32
	gathered []tuple.Tuple
	fns      []func()

	// Per-dispatch scratch written by at most one morsel each.
	perShardNs   []int64
	shardMatches []int64
	shardXor     []uint64

	// Execution statistics (wall-clock; diagnostic only, never fed back
	// into simulation time).
	busyNs  int64 // Σ morsel execution times
	critNs  int64 // Σ per-batch max morsel time (the parallel critical path)
	spanNs  int64 // Σ batch wall times (dispatch + barrier included)
	morsels int64
	batches int64

	// clock supplies the readings for the execution statistics above. It
	// is the table's only clock access, injectable via SetClock, so the
	// deterministic simulation paths stay wall-clock-free by construction:
	// simulated time is charged from ParallelStats, never from here.
	clock func() time.Time
}

// ParallelStats describes one parallel batch: per-shard morsel sizes
// and, for probe batches, per-shard match counts. The cost model charges
// from these (critical path across shards), keeping simulated time
// deterministic regardless of real execution order.
type ParallelStats struct {
	Tuples  []int64
	Matches []int64 // nil for build batches
}

// Total returns the batch's total tuple count.
func (st ParallelStats) Total() int64 {
	var n int64
	for _, t := range st.Tuples {
		n += t
	}
	return n
}

// TotalMatches returns the batch's total match count (0 for builds).
func (st ParallelStats) TotalMatches() int64 {
	var n int64
	for _, m := range st.Matches {
		n += m
	}
	return n
}

// NewSharded returns an empty sharded table with the given shard count,
// dispatching morsels on pool (nil pool or one shard runs inline).
func NewSharded(space hashfn.Space, layout tuple.Layout, shards int, pool *Pool) *Sharded {
	if shards < 1 {
		shards = 1
	}
	if shards > maxShards {
		shards = maxShards
	}
	s := &Sharded{
		space:        space,
		layout:       layout,
		shards:       make([]*Table, shards),
		pool:         pool,
		counts:       make([]int32, shards),
		offs:         make([]int32, shards+1),
		next:         make([]int32, shards),
		perShardNs:   make([]int64, shards),
		shardMatches: make([]int64, shards),
		shardXor:     make([]uint64, shards),
		// The single sanctioned wall-clock read in this package: ExecStats
		// is diagnostic pool-utilisation telemetry, reported alongside the
		// simulation but never fed back into simulated time or results.
		//lint:allow determinism ExecStats telemetry only; results and simulated time never depend on it
		clock: time.Now,
	}
	for i := range s.shards {
		s.shards[i] = NewShard(space, layout, i, shards)
	}
	return s
}

// SetClock replaces the wall clock behind ExecStats with fn, which must
// be safe for concurrent use (morsels read it in parallel). Tests inject
// a fake to pin utilisation arithmetic without timing races.
func (s *Sharded) SetClock(fn func() time.Time) { s.clock = fn }

// Shards returns the shard count.
func (s *Sharded) Shards() int { return len(s.shards) }

func (s *Sharded) shardIndex(pos int) int { return pos % len(s.shards) }

func (s *Sharded) shardFor(key uint64) *Table {
	return s.shards[s.shardIndex(s.space.PositionOf(key))]
}

// partition counting-sorts ts into per-shard morsels: after it returns,
// s.gathered[s.offs[i]:s.offs[i+1]] holds shard i's tuples in chunk
// order (the sort is stable, so per-shard insertion order is
// deterministic).
func (s *Sharded) partition(ts []tuple.Tuple) {
	n := len(ts)
	if cap(s.shardOf) < n {
		s.shardOf = make([]uint8, n)
		s.gathered = make([]tuple.Tuple, n)
	}
	s.shardOf = s.shardOf[:n]
	s.gathered = s.gathered[:n]
	for i := range s.counts {
		s.counts[i] = 0
	}
	for i, t := range ts {
		sh := s.shardIndex(s.space.PositionOf(t.Key))
		s.shardOf[i] = uint8(sh)
		s.counts[sh]++
	}
	s.offs[0] = 0
	for i, c := range s.counts {
		s.offs[i+1] = s.offs[i] + c
		s.next[i] = s.offs[i]
	}
	for i, t := range ts {
		sh := s.shardOf[i]
		s.gathered[s.next[sh]] = t
		s.next[sh]++
	}
}

// dispatch runs the batch's morsels to completion and folds their
// measured execution times into the pool-utilisation statistics.
func (s *Sharded) dispatch(fns []func()) {
	for i := range s.perShardNs {
		s.perShardNs[i] = 0
	}
	t0 := s.clock()
	s.pool.Run(fns)
	s.spanNs += s.clock().Sub(t0).Nanoseconds()
	var crit int64
	for _, ns := range s.perShardNs {
		s.busyNs += ns
		if ns > crit {
			crit = ns
		}
	}
	s.critNs += crit
	s.morsels += int64(len(fns))
	s.batches++
}

func (s *Sharded) stats(probe bool) ParallelStats {
	st := ParallelStats{Tuples: make([]int64, len(s.counts))}
	for i, c := range s.counts {
		st.Tuples[i] = int64(c)
	}
	if probe {
		st.Matches = make([]int64, len(s.shardMatches))
		copy(st.Matches, s.shardMatches)
	}
	return st
}

// InsertAll inserts a batch of tuples, one parallel morsel per shard.
func (s *Sharded) InsertAll(ts []tuple.Tuple) ParallelStats {
	if len(ts) == 0 {
		return ParallelStats{Tuples: make([]int64, len(s.shards))}
	}
	s.partition(ts)
	fns := s.fns[:0]
	for sh := range s.shards {
		if s.counts[sh] == 0 {
			continue
		}
		sh := sh
		morsel := s.gathered[s.offs[sh]:s.offs[sh+1]]
		fns = append(fns, func() {
			t0 := s.clock()
			s.shards[sh].InsertAll(morsel)
			s.perShardNs[sh] = s.clock().Sub(t0).Nanoseconds()
		})
	}
	s.dispatch(fns)
	s.fns = fns[:0]
	return s.stats(false)
}

// ProbeAll probes a batch of tuples, one parallel morsel per shard, and
// returns the total match count and the XOR of tuple.MixPair over every
// matched (build, probe) pair (Table.ProbeAll). Both combine commutatively,
// so the result is identical to probing serially in any order.
func (s *Sharded) ProbeAll(ts []tuple.Tuple) (matches int64, xor uint64, st ParallelStats) {
	if len(ts) == 0 {
		return 0, 0, ParallelStats{Tuples: make([]int64, len(s.shards)), Matches: make([]int64, len(s.shards))}
	}
	s.partition(ts)
	for i := range s.shardMatches {
		s.shardMatches[i] = 0
		s.shardXor[i] = 0
	}
	fns := s.fns[:0]
	for sh := range s.shards {
		if s.counts[sh] == 0 {
			continue
		}
		sh := sh
		morsel := s.gathered[s.offs[sh]:s.offs[sh+1]]
		fns = append(fns, func() {
			t0 := s.clock()
			s.shardMatches[sh], s.shardXor[sh] = s.shards[sh].ProbeAll(morsel)
			s.perShardNs[sh] = s.clock().Sub(t0).Nanoseconds()
		})
	}
	s.dispatch(fns)
	s.fns = fns[:0]
	for i := range s.shardMatches {
		matches += s.shardMatches[i]
		xor ^= s.shardXor[i]
	}
	return matches, xor, s.stats(true)
}

// The serial Table method set: a Sharded table is a drop-in replacement
// wherever a Table is read or mutated outside the chunk hot path (splits,
// reshuffles, purges, clones, pipeline-stage probes).

// Insert adds one tuple to its shard.
func (s *Sharded) Insert(tp tuple.Tuple) { s.shardFor(tp.Key).Insert(tp) }

// InsertChunk adds every tuple of a chunk serially (use InsertAll on the
// hot path).
func (s *Sharded) InsertChunk(c *tuple.Chunk) {
	for _, tp := range c.Tuples {
		s.Insert(tp)
	}
}

// Probe invokes fn for every stored tuple matching key.
func (s *Sharded) Probe(key uint64, fn func(build tuple.Tuple)) int {
	return s.shardFor(key).Probe(key, fn)
}

// Count returns the number of stored tuples across all shards.
func (s *Sharded) Count() int64 {
	var n int64
	for _, sh := range s.shards {
		n += sh.Count()
	}
	return n
}

// Bytes returns the accounted logical size across all shards; the
// memory-overflow predicate sees the same number a serial table reports.
func (s *Sharded) Bytes() int64 {
	var n int64
	for _, sh := range s.shards {
		n += sh.Bytes()
	}
	return n
}

// Layout returns the tuple layout the table accounts with.
func (s *Sharded) Layout() tuple.Layout { return s.layout }

// CountsInRange sums the per-position counts over all shards; positions
// are disjoint across shards, so the sum equals a serial table's counts.
func (s *Sharded) CountsInRange(r hashfn.Range) []int64 {
	out := s.shards[0].CountsInRange(r)
	for _, sh := range s.shards[1:] {
		for i, c := range sh.CountsInRange(r) {
			out[i] += c
		}
	}
	return out
}

// ExtractRange removes and returns every tuple whose routing position
// falls in r, walking whole shards so splits, reshuffles, and
// footprint purges always observe shard-consistent state.
func (s *Sharded) ExtractRange(r hashfn.Range) []tuple.Tuple {
	var moved []tuple.Tuple
	for _, sh := range s.shards {
		moved = append(moved, sh.ExtractRange(r)...)
	}
	return moved
}

// ExtractMatching removes and returns every tuple satisfying pred.
func (s *Sharded) ExtractMatching(pred func(tuple.Tuple) bool) []tuple.Tuple {
	var moved []tuple.Tuple
	for _, sh := range s.shards {
		moved = append(moved, sh.ExtractMatching(pred)...)
	}
	return moved
}

// ForEach invokes fn for every stored tuple, shard by shard.
func (s *Sharded) ForEach(fn func(tuple.Tuple)) {
	for _, sh := range s.shards {
		sh.ForEach(fn)
	}
}

// Reset empties every shard.
func (s *Sharded) Reset() {
	for _, sh := range s.shards {
		sh.Reset()
	}
}

// ShardLoads returns the per-shard stored tuple counts (occupancy).
func (s *Sharded) ShardLoads() []int64 {
	loads := make([]int64, len(s.shards))
	for i, sh := range s.shards {
		loads[i] = sh.Count()
	}
	return loads
}

// ExecStats reports the accumulated wall-clock execution statistics:
// total morsel busy time, the summed per-batch critical path (the time a
// fully parallel host would need), total batch span, and the morsel and
// batch counts.
func (s *Sharded) ExecStats() (busyNs, critNs, spanNs, morsels, batches int64) {
	return s.busyNs, s.critNs, s.spanNs, s.morsels, s.batches
}
