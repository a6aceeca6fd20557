package hashtable

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"ehjoin/internal/hashfn"
	"ehjoin/internal/tuple"
)

// The model-based differential: random interleavings of every Table
// operation against a map[uint64][]tuple.Tuple, on key mixes from all
// unique to a few dozen heavily duplicated keys. Tables stay small, so
// segments sit at their first few capacities and probe clusters that wrap
// a segment's end are common (asserted).
//
// The first lookup — the seal — lands at a random step of each
// interleaving: before any insert, somewhere in the middle, or never. An
// insert or extraction returns a sealed table to the staged state (it
// unseals), the next lookup seals it again, and Reset empties it. Every
// non-lookup operation must have run against a staged table, against a
// table at its first seal, against one sealed again after an unseal, and
// against one sealed while empty (asserted).

type tableModel map[uint64][]tuple.Tuple

func (m tableModel) all() []tuple.Tuple {
	var out []tuple.Tuple
	for _, ts := range m {
		out = append(out, ts...)
	}
	return out
}

// extract removes and returns the model tuples satisfying pred.
func (m tableModel) extract(pred func(tuple.Tuple) bool) []tuple.Tuple {
	var out []tuple.Tuple
	for k, ts := range m {
		kept := ts[:0]
		for _, tp := range ts {
			if pred(tp) {
				out = append(out, tp)
			} else {
				kept = append(kept, tp)
			}
		}
		if len(kept) == 0 {
			delete(m, k)
		} else {
			m[k] = kept
		}
	}
	return out
}

// wideIndex spreads a sequence number over the full 64-bit index range —
// a bijection, so indices stay distinct — so the duplicate runs' words and
// their inverse (tuple.RunWord, tuple.RunIndex) see every bit through
// Probe, TuplesWithKey, ForEach and extraction.
func wideIndex(n uint64) uint64 {
	n *= 0xD6E8FEB86659FD93
	return n ^ n>>32
}

// wrappedSlots counts occupied slots sitting before their home slot: the
// members of probe clusters that wrapped the end of a segment.
func (t *Table) wrappedSlots() int {
	n := 0
	for s := range t.segs {
		sg := &t.segs[s]
		for i, g := range sg.tags {
			if g != tagEmpty && sg.home(mixKey(sg.slot(i).Key)) > i {
				n++
			}
		}
	}
	return n
}

// The states a model run observes an operation in.
const (
	inStaged      = "staged"       // no lookup since New, Reset or the last insert or extraction
	acrossSeal    = "across-seal"  // sealed with tuples, for the first time since New or Reset
	resealed      = "resealed"     // sealed with tuples again, after an insert or extraction unsealed it
	sealedAtBirth = "sealed-empty" // sealed while empty
)

// modelCoverage counts the non-lookup operations by table state.
type modelCoverage map[string]map[string]int

func (c modelCoverage) note(op, state string) {
	if c[op] == nil {
		c[op] = map[string]int{}
	}
	c[op][state]++
}

func TestTableMatchesMapModel(t *testing.T) {
	for _, mix := range []struct {
		name  string
		pool  int  // distinct keys to draw from; 0 = every key fresh
		wraps bool // enough distinct keys per segment for clusters to wrap
	}{{"unique", 0, true}, {"mixed", 1500, true}, {"duplicate-heavy", 40, false}} {
		t.Run(mix.name, func(t *testing.T) {
			wrapped := 0
			cov := modelCoverage{}
			for seed := int64(1); seed <= 24; seed++ {
				wrapped += runTableModel(t, seed, mix.pool, cov)
			}
			if mix.wraps && wrapped == 0 {
				t.Error("no probe cluster ever wrapped a segment end; the test lost its coverage")
			}
			for _, op := range []string{"Insert", "ExtractMatching", "ExtractRange", "ExtractRanges", "KeyCountsAt", "ForEach", "CountsInRange", "Reset"} {
				for _, state := range []string{inStaged, acrossSeal, resealed, sealedAtBirth} {
					if cov[op][state] == 0 {
						t.Errorf("%s never ran in state %s; the test lost its coverage", op, state)
					}
				}
			}
		})
	}
}

func runTableModel(t *testing.T, seed int64, poolSize int, cov modelCoverage) (wrapped int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	space := hashfn.Space{Bits: uint(4 + rng.Intn(6))}
	layout := tuple.LayoutForTupleSize(16 + rng.Intn(100))
	tbl := New(space, layout)
	model := tableModel{}
	pool := make([]uint64, poolSize)
	for i := range pool {
		pool[i] = rng.Uint64()
	}
	var next uint64
	draw := func() tuple.Tuple {
		next++
		if poolSize == 0 {
			return tuple.Tuple{Index: wideIndex(next), Key: rng.Uint64()}
		}
		return tuple.Tuple{Index: wideIndex(next), Key: pool[rng.Intn(poolSize)]}
	}
	// someKey returns a key that was inserted at some point most of the
	// time, a certain miss otherwise.
	var seen []uint64
	someKey := func() uint64 {
		if len(seen) > 0 && rng.Intn(4) > 0 {
			return seen[rng.Intn(len(seen))]
		}
		return rng.Uint64()
	}
	randRange := func() hashfn.Range {
		lo := rng.Intn(space.Positions())
		return hashfn.Range{Lo: lo, Hi: lo + 1 + rng.Intn(space.Positions()-lo)}
	}

	// Lookups are held back until step firstLookup (a third of the runs
	// look up before the first insert, a sixth never do); Reset re-arms
	// the hold-back for a random number of steps.
	const steps = 60
	firstLookup := 0
	switch seed % 6 {
	case 1, 2, 3:
		firstLookup = 1 + rng.Intn(steps-1)
	case 4:
		firstLookup = steps
	}
	state := inStaged
	unsealed := false // an insert or extraction met a sealed table holding tuples
	lookedUp := func() {
		switch {
		case state != inStaged:
		case tbl.Count() == 0:
			state = sealedAtBirth
		case unsealed:
			state = resealed
		default:
			state = acrossSeal
		}
	}
	// mutated follows an insert or extraction that walked the table: a
	// sealed table is staged again.
	mutated := func() {
		if state == acrossSeal || state == resealed {
			unsealed = true
		}
		state = inStaged
	}

	for step := 0; step < steps; step++ {
		op := rng.Intn(25) / 2 // 0..11 as before, 12 (Reset) at half weight
		if step < firstLookup && op >= 4 && op <= 6 {
			op = 11
		}
		switch {
		case op < 4: // insert, one by one or as a batch
			cov.note("Insert", state)
			n := 1 + rng.Intn(1200)
			if rng.Intn(3) == 0 {
				n = ladderBatches[rng.Intn(len(ladderBatches))]
			}
			ts := make([]tuple.Tuple, n)
			for i := range ts {
				ts[i] = draw()
				model[ts[i].Key] = append(model[ts[i].Key], ts[i])
				seen = append(seen, ts[i].Key)
			}
			if rng.Intn(2) == 0 {
				tbl.InsertAll(ts)
			} else {
				for _, tp := range ts {
					tbl.Insert(tp)
				}
			}
			mutated()
		case op < 6: // probe
			lookedUp()
			for i := 0; i < 50; i++ {
				k := someKey()
				var got []tuple.Tuple
				n := tbl.Probe(k, func(b tuple.Tuple) { got = append(got, b) })
				if n != len(model[k]) || tbl.Probe(k, nil) != n {
					t.Fatalf("seed %d step %d: Probe(%#x) = %d, model %d", seed, step, k, n, len(model[k]))
				}
				sameMultiset(t, "Probe callbacks", got, model[k])
				sameMultiset(t, "TuplesWithKey", tbl.TuplesWithKey(k), model[k])
			}
		case op == 6: // batch probe
			lookedUp()
			ts := make([]tuple.Tuple, 300)
			var wantMatches int64
			var wantXor uint64
			for i := range ts {
				ts[i] = tuple.Tuple{Index: uint64(i), Key: someKey()}
				for _, b := range model[ts[i].Key] {
					wantMatches++
					wantXor ^= tuple.MixPair(b.Index, ts[i].Index)
				}
			}
			if m, x := tbl.ProbeAll(ts); m != wantMatches || x != wantXor {
				t.Fatalf("seed %d step %d: ProbeAll = %d/%#x, model %d/%#x", seed, step, m, x, wantMatches, wantXor)
			}
		case op < 9: // extract by a predicate that splits duplicate runs
			cov.note("ExtractMatching", state)
			mod, rem := uint64(2+rng.Intn(3)), uint64(rng.Intn(2))
			keyBit := uint64(1) << uint(rng.Intn(64))
			pred := func(tp tuple.Tuple) bool {
				return tp.Index%mod == rem || tp.Key&keyBit != 0 && tp.Index%7 < 5
			}
			sameMultiset(t, "ExtractMatching", tbl.ExtractMatching(pred), model.extract(pred))
			mutated()
		case op == 9 && rng.Intn(2) == 0: // extract disjoint routing ranges
			cov.note("ExtractRanges", state)
			rs := randRanges(rng, space, rangeKinds[rng.Intn(len(rangeKinds))])
			got := tbl.ExtractRanges(rs)
			moved := 0
			for i, r := range rs {
				sameMultiset(t, "ExtractRanges", got[i], model.extract(func(tp tuple.Tuple) bool {
					return r.Contains(space.PositionOf(tp.Key))
				}))
				moved += len(got[i])
			}
			if moved > 0 { // ranges that hold nothing are not walked
				mutated()
			}
		case op == 9: // extract a routing range
			cov.note("ExtractRange", state)
			r := randRange()
			got := tbl.ExtractRange(r)
			sameMultiset(t, "ExtractRange", got, model.extract(func(tp tuple.Tuple) bool {
				return r.Contains(space.PositionOf(tp.Key))
			}))
			if len(got) > 0 {
				mutated()
			}
			if rng.Intn(2) == 0 { // a reshuffle bounces tuples back in returned order
				tbl.InsertAll(got)
				for _, tp := range got {
					model[tp.Key] = append(model[tp.Key], tp)
				}
			}
		case op == 10: // per-key counts at a few positions
			cov.note("KeyCountsAt", state)
			positions := make([]int32, 1+rng.Intn(8))
			want := map[uint64]int64{}
			for i := range positions {
				positions[i] = int32(rng.Intn(space.Positions()))
			}
			for k, ts := range model {
				for _, p := range positions {
					if space.PositionOf(k) == int(p) {
						want[k] = int64(len(ts))
					}
				}
			}
			keys, counts := tbl.KeyCountsAt(positions)
			if len(keys) != len(want) || !sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i] < keys[j] }) {
				t.Fatalf("seed %d step %d: KeyCountsAt returned %d keys (sorted %v), model %d",
					seed, step, len(keys), keys, len(want))
			}
			for i, k := range keys {
				if counts[i] != want[k] {
					t.Fatalf("seed %d step %d: KeyCountsAt[%#x] = %d, model %d", seed, step, k, counts[i], want[k])
				}
			}
		case op == 11: // full walk
			cov.note("ForEach", state)
			var got []tuple.Tuple
			tbl.ForEach(func(tp tuple.Tuple) { got = append(got, tp) })
			sameMultiset(t, "ForEach", got, model.all())
		default: // reset: staged again, lookups held back for a while
			cov.note("Reset", state)
			tbl.Reset()
			model = tableModel{}
			state, unsealed = inStaged, false
			if firstLookup < steps {
				firstLookup = step + rng.Intn(8)
			}
		}
		if tbl.sealed != (state != inStaged) {
			t.Fatalf("seed %d step %d: table sealed = %v in state %s", seed, step, tbl.sealed, state)
		}
		checkStaged(t, tbl)
		checkSealed(t, tbl)

		cov.note("CountsInRange", state)
		all := model.all()
		if tbl.Count() != int64(len(all)) || tbl.Bytes() != int64(len(all)*layout.LogicalSize()) {
			t.Fatalf("seed %d step %d: count/bytes %d/%d, model holds %d tuples",
				seed, step, tbl.Count(), tbl.Bytes(), len(all))
		}
		hist := make([]int64, space.Positions())
		for _, tp := range all {
			hist[space.PositionOf(tp.Key)]++
		}
		for p, c := range tbl.CountsInRange(hashfn.Range{Lo: 0, Hi: space.Positions()}) {
			if c != hist[p] {
				t.Fatalf("seed %d step %d: position %d counts %d, model %d", seed, step, p, c, hist[p])
			}
		}
		wrapped += tbl.wrappedSlots()
	}
	return wrapped
}

// TestRoutingHashesSpreadOverSegments: keys that agree on the top bits of
// key*fibMul (one spill partition) or of the key itself (one routing range)
// must still use all 64 segments evenly — a table whose segment choice
// shared those bits would grow as one or two big segments and lose the
// bounded growth transient.
func TestRoutingHashesSpreadOverSegments(t *testing.T) {
	for name, ok := range map[string]func(uint64) bool{
		"top bits of key*fibMul": func(k uint64) bool { return (k*fibMul)>>59 == 5 },
		"top bits of key":        func(k uint64) bool { return k>>58 == 3 },
	} {
		tbl := New(testSpace, tuple.DefaultLayout())
		rng := rand.New(rand.NewSource(3))
		const n = 64_000
		for i := 0; i < n; {
			if k := rng.Uint64(); ok(k) {
				tbl.Insert(tuple.Tuple{Index: uint64(i), Key: k})
				i++
			}
		}
		tbl.Probe(0, nil) // seals: used is counted by the index
		for s := range tbl.segs {
			if used := tbl.segs[s].used; used < n/numSegs/2 || used > 2*n/numSegs {
				t.Errorf("%s: segment %d holds %d keys, mean %d", name, s, used, n/numSegs)
			}
		}
	}
}

// rangeKinds are the shapes of range set ExtractRanges is checked on.
var rangeKinds = []string{"adjacent", "non-adjacent", "empty", "whole-space"}

// randRanges draws disjoint routing ranges of one kind, in random order:
// adjacent pieces of a random span, pieces with gaps between them, a
// zero-width range beside a random one, or pieces tiling the whole space.
func randRanges(rng *rand.Rand, space hashfn.Space, kind string) []hashfn.Range {
	n := space.Positions()
	// cuts returns lo, up to k distinct positions inside (lo, hi), and hi,
	// sorted.
	cuts := func(lo, hi, k int) []int {
		set := map[int]bool{}
		for i := 0; i < k && hi-lo > 1; i++ {
			set[lo+1+rng.Intn(hi-lo-1)] = true
		}
		ps := []int{lo, hi}
		for p := range set {
			ps = append(ps, p)
		}
		sort.Ints(ps)
		return ps
	}
	var rs []hashfn.Range
	switch kind {
	case "adjacent", "whole-space":
		lo, hi := 0, n
		if kind == "adjacent" {
			lo = rng.Intn(n)
			hi = lo + 1 + rng.Intn(n-lo)
		}
		ps := cuts(lo, hi, rng.Intn(4))
		for i := 0; i+1 < len(ps); i++ {
			rs = append(rs, hashfn.Range{Lo: ps[i], Hi: ps[i+1]})
		}
	case "non-adjacent":
		ps := cuts(0, n, 3+rng.Intn(6))
		for i := 0; i+1 < len(ps); i += 2 {
			rs = append(rs, hashfn.Range{Lo: ps[i], Hi: ps[i+1]})
		}
	case "empty":
		p := rng.Intn(n)
		lo := rng.Intn(n)
		rs = append(rs, hashfn.Range{Lo: p, Hi: p}, hashfn.Range{}, hashfn.Range{Lo: lo, Hi: lo + 1 + rng.Intn(n-lo)})
	}
	rng.Shuffle(len(rs), func(i, j int) { rs[i], rs[j] = rs[j], rs[i] })
	return rs
}

// TestExtractRangesMatchesModel checks ExtractRanges against the map model
// for every kind of range set, on staged, sealed and resealed tables whose
// keys repeat (so the unseal stages duplicate runs that extraction then
// splits), and pins that the per-position counts are exact afterwards. The keys
// avoid the top quarter of the space, so some ranges hold nothing: their
// result must be nil.
func TestExtractRangesMatchesModel(t *testing.T) {
	space := hashfn.Space{Bits: 8}
	layout := tuple.DefaultLayout()
	for _, state := range []string{inStaged, acrossSeal, resealed} {
		for _, kind := range append(rangeKinds, "untouched") {
			for seed := int64(1); seed <= 6; seed++ {
				rng := rand.New(rand.NewSource(seed))
				tbl := New(space, layout)
				model := tableModel{}
				pool := make([]uint64, 600)
				for i := range pool {
					pool[i] = rng.Uint64() >> 2 // positions [0, 192)
				}
				const n = 3000
				for i := 0; i < n; i++ {
					if i == n/2 && state == resealed {
						tbl.Probe(0, nil) // the next insert unseals
					}
					tp := tuple.Tuple{Index: wideIndex(uint64(i)), Key: pool[rng.Intn(len(pool))]}
					tbl.Insert(tp)
					model[tp.Key] = append(model[tp.Key], tp)
					checkStaged(t, tbl)
				}
				if state != inStaged {
					tbl.Probe(0, nil)
				}
				rs := []hashfn.Range{{Lo: 200, Hi: 256}, {Lo: 192, Hi: 193}}
				if kind != "untouched" {
					rs = randRanges(rng, space, kind)
				}
				got := tbl.ExtractRanges(rs)
				checkStaged(t, tbl)
				if len(got) != len(rs) {
					t.Fatalf("%s %s: %d results for %d ranges", state, kind, len(got), len(rs))
				}
				for i, r := range rs {
					want := model.extract(func(tp tuple.Tuple) bool { return r.Contains(space.PositionOf(tp.Key)) })
					sameMultiset(t, "ExtractRanges", got[i], want)
					if len(want) == 0 && got[i] != nil {
						t.Errorf("%s %s: empty range %v returned a non-nil result", state, kind, r)
					}
				}
				all := model.all()
				if tbl.Count() != int64(len(all)) || tbl.Bytes() != int64(len(all)*layout.LogicalSize()) {
					t.Fatalf("%s %s seed %d: count/bytes %d/%d, model holds %d tuples",
						state, kind, seed, tbl.Count(), tbl.Bytes(), len(all))
				}
				hist := make([]int64, space.Positions())
				for _, tp := range all {
					hist[space.PositionOf(tp.Key)]++
				}
				for p, c := range tbl.CountsInRange(hashfn.Range{Lo: 0, Hi: space.Positions()}) {
					if c != hist[p] {
						t.Fatalf("%s %s seed %d: position %d counts %d, model %d", state, kind, seed, p, c, hist[p])
					}
				}
				var left []tuple.Tuple
				tbl.ForEach(func(tp tuple.Tuple) { left = append(left, tp) })
				sameMultiset(t, "ForEach after ExtractRanges", left, all)
				for k, ts := range model {
					if got := tbl.Probe(k, nil); got != len(ts) {
						t.Fatalf("%s %s seed %d: Probe(%#x) = %d after extraction, model %d", state, kind, seed, k, got, len(ts))
					}
				}
			}
		}
	}
}

func TestExtractRangesPanics(t *testing.T) {
	space := hashfn.Space{Bits: 8}
	fill := func() *Table {
		tbl := New(space, tuple.DefaultLayout())
		for p := 0; p < space.Positions(); p++ {
			tbl.Insert(tuple.Tuple{Index: uint64(p), Key: uint64(p) << 56})
		}
		return tbl
	}
	mustPanic := func(what, want string, f func()) {
		t.Helper()
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), want) {
				t.Errorf("%s: panic %v, want one naming %q", what, r, want)
			}
		}()
		f()
	}
	mustPanic("overlapping ranges", "overlap", func() {
		fill().ExtractRanges([]hashfn.Range{{Lo: 0, Hi: 10}, {Lo: 9, Hi: 20}})
	})
	tbl := fill()
	tbl.posCount[5]++ // a count the table's contents no longer back
	mustPanic("count mismatch", "extracted 10 tuples of range [0,10), its position counts say 11", func() {
		tbl.ExtractRanges([]hashfn.Range{{Lo: 0, Hi: 10}})
	})
}

// More ranges than one pass can sort by (a slot is a byte) take more
// passes and still come back per range, in order.
func TestExtractRangesBeyondOnePass(t *testing.T) {
	space := hashfn.Space{Bits: 10}
	tbl := New(space, tuple.DefaultLayout())
	model := tableModel{}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 5000; i++ {
		tp := tuple.Tuple{Index: uint64(i), Key: rng.Uint64()}
		tbl.Insert(tp)
		model[tp.Key] = append(model[tp.Key], tp)
	}
	var rs []hashfn.Range
	for p := 0; p < 3*maxSlotRanges; p += 2 {
		rs = append(rs, hashfn.Range{Lo: p, Hi: p + 1})
	}
	rng.Shuffle(len(rs), func(i, j int) { rs[i], rs[j] = rs[j], rs[i] })
	got := tbl.ExtractRanges(rs)
	if len(got) != len(rs) {
		t.Fatalf("%d results for %d ranges", len(got), len(rs))
	}
	for i, r := range rs {
		sameMultiset(t, "ExtractRanges", got[i], model.extract(func(tp tuple.Tuple) bool {
			return r.Contains(space.PositionOf(tp.Key))
		}))
	}
	if n := int64(len(model.all())); tbl.Count() != n {
		t.Errorf("count %d after extraction, model holds %d", tbl.Count(), n)
	}
}
