package hashtable

import (
	"sort"
	"testing"

	"ehjoin/internal/hashfn"
	"ehjoin/internal/tuple"
)

// fuzzPool is FuzzTableOps' key pool: eight keys of segment 9, so that a
// batch drawn from them climbs one segment's staging ladder, then eight of
// segment 40.
var fuzzPool = append(keysInSegment(9, 8), keysInSegment(40, 8)...)

// FuzzTableOps decodes its input into a sequence of table operations and
// runs them against the map model, checking the staged blocks' and the
// slot pages' shape, the counts and the contents after each. An operation
// is an opcode byte and its argument bytes; a missing argument byte reads
// 0. A sequence ends after fuzzMaxOps operations, and an insert stops at
// fuzzMaxTuples stored tuples, so every input runs in milliseconds. The
// seed corpus (testdata/fuzz/FuzzTableOps) takes segment 9 past every rung
// of the ladder, in batches one short of, at and one past a block's end,
// and alternates probes with inserts of stored keys and extractions, each
// of which unseals the table the probe before it sealed; seal_two_pages
// seals segment 9 at more than stageBlock slots, on a spare page and a new
// one.
//
//	0 n1 n0 m   InsertAll of n1<<8|n0 tuples (mod 4096), keys drawn from
//	            the first 1 + m%len(fuzzPool) keys of the pool, or, when
//	            m ≥ 128, a key of segment 9 never drawn before per tuple
//	1 a b c     ExtractRanges of [a', b') and [b', c'), where a' ≤ b' ≤ c'
//	            are the bytes mod 33 (the 32 positions and the end), sorted
//	2 m r       ExtractCounted of the tuples with Index%(2+m%5) == r%(2+m%5)
//	3 k         Probe (which seals) of pool key k%17, or of a key outside
//	            the pool when that is 16, then ProbeAll of each stored key
//	4           Reset
func FuzzTableOps(f *testing.F) {
	const fuzzMaxOps, fuzzMaxTuples = 64, 8192
	space := hashfn.Space{Bits: 5}
	f.Fuzz(func(t *testing.T, ops []byte) {
		arg := func() int {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return int(b)
		}
		tbl := New(space, tuple.DefaultLayout())
		model := tableModel{}
		var next, fresh uint64
		freshKey := func() uint64 {
			for {
				if fresh++; mixKey(fresh*fibMul)>>(64-segBits) == 9 {
					return fresh * fibMul
				}
			}
		}
		for step := 0; step < fuzzMaxOps && len(ops) > 0; step++ {
			switch arg() % 5 {
			case 0:
				n := min((arg()<<8|arg())%4096, fuzzMaxTuples-int(tbl.Count()))
				m := arg()
				keys := fuzzPool[:1+m%len(fuzzPool)]
				ts := make([]tuple.Tuple, n)
				for i := range ts {
					next++
					ts[i] = tuple.Tuple{Index: wideIndex(next), Key: keys[mixKey(next)%uint64(len(keys))]}
					if m >= 128 {
						ts[i].Key = freshKey()
					}
					model[ts[i].Key] = append(model[ts[i].Key], ts[i])
				}
				tbl.InsertAll(ts)
			case 1:
				end := space.Positions() + 1
				p := []int{arg() % end, arg() % end, arg() % end}
				sort.Ints(p)
				rs := []hashfn.Range{{Lo: p[0], Hi: p[1]}, {Lo: p[1], Hi: p[2]}}
				got := tbl.ExtractRanges(rs)
				for i, r := range rs {
					sameMultiset(t, "ExtractRanges", got[i], model.extract(func(tp tuple.Tuple) bool {
						return r.Contains(space.PositionOf(tp.Key))
					}))
				}
			case 2:
				mod := uint64(2 + arg()%5)
				rem := uint64(arg()) % mod
				pred := func(tp tuple.Tuple) bool { return tp.Index%mod == rem }
				want := model.extract(pred)
				sameMultiset(t, "ExtractCounted", tbl.ExtractCounted(int64(len(want)), pred), want)
			case 3:
				k := uint64(0x5eed) // no pool key
				if i := arg() % (len(fuzzPool) + 1); i < len(fuzzPool) {
					k = fuzzPool[i]
				}
				var got []tuple.Tuple
				if n := tbl.Probe(k, func(b tuple.Tuple) { got = append(got, b) }); n != len(model[k]) {
					t.Fatalf("Probe(%#x) = %d, model %d", k, n, len(model[k]))
				}
				sameMultiset(t, "Probe", got, model[k])
				var probes []tuple.Tuple
				var wantMatches int64
				var wantXor uint64
				for k, ts := range model {
					i := uint64(len(probes))
					probes = append(probes, tuple.Tuple{Index: i, Key: k})
					for _, b := range ts {
						wantMatches++
						wantXor ^= tuple.MixPair(b.Index, i)
					}
				}
				if m, x := tbl.ProbeAll(probes); m != wantMatches || x != wantXor {
					t.Fatalf("ProbeAll of each stored key = %d/%#x, model %d/%#x", m, x, wantMatches, wantXor)
				}
			case 4:
				tbl.Reset()
				model = tableModel{}
			}
			checkStaged(t, tbl)
			checkSealed(t, tbl)
			all := model.all()
			if tbl.Count() != int64(len(all)) {
				t.Fatalf("count %d, model holds %d tuples", tbl.Count(), len(all))
			}
			hist := make([]int64, space.Positions())
			for _, tp := range all {
				hist[space.PositionOf(tp.Key)]++
			}
			for p, c := range tbl.CountsInRange(hashfn.Range{Lo: 0, Hi: space.Positions()}) {
				if c != hist[p] {
					t.Fatalf("position %d counts %d, model %d", p, c, hist[p])
				}
			}
			var left []tuple.Tuple
			tbl.ForEach(func(tp tuple.Tuple) { left = append(left, tp) })
			sameMultiset(t, "ForEach", left, all)
		}
	})
}
