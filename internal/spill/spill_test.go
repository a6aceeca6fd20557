package spill

import (
	"math/rand"
	"testing"

	"ehjoin/internal/hashfn"
	rt "ehjoin/internal/runtime"
	"ehjoin/internal/tuple"
)

var space = hashfn.Space{Bits: 10}

// fakeEnv satisfies runtime.Env, accumulating charges.
type fakeEnv struct {
	cpuNs  int64
	diskNs int64
	reads  int64
	writes int64
}

func (f *fakeEnv) Now() int64                      { return f.cpuNs + f.diskNs }
func (f *fakeEnv) Send(to rt.NodeID, m rt.Message) {}
func (f *fakeEnv) ChargeCPU(ns int64)              { f.cpuNs += ns }
func (f *fakeEnv) ChargeDisk(bytes int64, read bool) {
	f.diskNs += bytes
	if read {
		f.reads += bytes
	} else {
		f.writes += bytes
	}
}

func layout() tuple.Layout { return tuple.DefaultLayout() }

func refJoin(rs, ss []tuple.Tuple) (uint64, uint64) {
	byKey := make(map[uint64][]uint64)
	for _, r := range rs {
		byKey[r.Key] = append(byKey[r.Key], r.Index)
	}
	var m, ck uint64
	for _, s := range ss {
		for _, ri := range byKey[s.Key] {
			m++
			ck ^= MixPair(ri, s.Index)
		}
	}
	return m, ck
}

func genTuples(n int, seed int64, keyPool int) []tuple.Tuple {
	rng := rand.New(rand.NewSource(seed))
	out := make([]tuple.Tuple, n)
	for i := range out {
		out[i] = tuple.Tuple{Index: uint64(i), Key: uint64(rng.Intn(keyPool)) * 0x9E3779B97F4A7C15}
	}
	return out
}

// runOOC joins rs with ss the way a join node with the spill rung does: it
// keeps build tuples in memory per partition, and whenever they outgrow the
// budget it evicts the largest partitions through MarkEvicted / AdoptBuild
// until the rest fits. Tuples of evicted partitions stream through
// SpillBuild / SpillProbe, the resident ones join in memory, and Finish
// joins the spilled pairs. It returns the node's whole result and the bytes
// left resident.
func runOOC(t *testing.T, budget int64, parts int, rs, ss []tuple.Tuple) (m *Manager, env *fakeEnv, matches, checksum uint64, resident int64) {
	t.Helper()
	env = &fakeEnv{}
	m = NewRung(space, layout(), layout(), budget, parts, rt.OSUMed())
	size := int64(layout().LogicalSize())
	live := make([][]tuple.Tuple, m.Parts())
	for _, r := range rs {
		p := m.PartOf(r.Key)
		if m.Spilled(p) {
			m.SpillBuild(env, r)
			continue
		}
		live[p] = append(live[p], r)
		for resident += size; resident > budget; {
			best := 0
			for q := range live {
				if len(live[q]) > len(live[best]) {
					best = q
				}
			}
			m.MarkEvicted(env, best, int64(len(live[best])))
			m.AdoptBuild(best, live[best])
			resident -= int64(len(live[best])) * size
			live[best] = nil
		}
	}
	var liveR, liveS []tuple.Tuple
	for _, l := range live {
		liveR = append(liveR, l...)
	}
	for _, s := range ss {
		if m.Spilled(m.PartOf(s.Key)) {
			m.SpillProbe(env, s)
		} else {
			liveS = append(liveS, s)
		}
	}
	m.Finish(env)
	matches, checksum = refJoin(liveR, liveS)
	return m, env, matches + m.Matches(), checksum ^ m.Checksum(), resident
}

// spill.MixPair is the name bench/oracle.go and the reference joins fold
// with; the table's kernel folds tuple.MixPair. The two must be one
// function, and that function must stay the one every recorded checksum
// was computed with.
func TestMixPairForwardsToTuple(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		if r, s := rng.Uint64(), rng.Uint64(); MixPair(r, s) != tuple.MixPair(r, s) {
			t.Fatalf("MixPair(%#x, %#x) = %#x, tuple.MixPair = %#x", r, s, MixPair(r, s), tuple.MixPair(r, s))
		}
	}
	if a, b := MixPair(1, 2), MixPair(0xDEADBEEF, 1<<63|12345); a != 0x945be068ec3ea780 || b != 0x6e87ab3dbfe8565f {
		t.Errorf("MixPair changed definition: %#x, %#x", a, b)
	}
}

func TestInMemoryPathMatchesReference(t *testing.T) {
	rs := genTuples(2000, 1, 500)
	ss := genTuples(3000, 2, 500)
	m, env, gotM, gotCk, _ := runOOC(t, 64<<20, 8, rs, ss)
	wantM, wantCk := refJoin(rs, ss)
	if gotM != wantM || gotCk != wantCk {
		t.Errorf("matches/checksum = %d/%#x, want %d/%#x", gotM, gotCk, wantM, wantCk)
	}
	if m.Matches() != 0 || m.SpilledPartitions() != 0 {
		t.Errorf("rung joined %d matches over %d spilled partitions with ample memory", m.Matches(), m.SpilledPartitions())
	}
	if m.SpillWrittenBytes != 0 || env.writes != 0 || env.reads != 0 {
		t.Errorf("spilled with ample memory: %d bytes", m.SpillWrittenBytes)
	}
	if m.Evictions != 0 {
		t.Errorf("evictions = %d with ample memory", m.Evictions)
	}
}

func TestSpillPathMatchesReference(t *testing.T) {
	rs := genTuples(5000, 3, 700)
	ss := genTuples(5000, 4, 700)
	// Budget fits only ~1000 tuples resident.
	m, env, gotM, gotCk, resident := runOOC(t, 100*1000, 8, rs, ss)
	wantM, wantCk := refJoin(rs, ss)
	if gotM != wantM || gotCk != wantCk {
		t.Errorf("matches/checksum = %d/%#x, want %d/%#x", gotM, gotCk, wantM, wantCk)
	}
	if m.Evictions == 0 || m.SpillWrittenBytes == 0 {
		t.Error("expected evictions and spill writes under memory pressure")
	}
	if m.SpillReadBytes == 0 || env.reads == 0 {
		t.Error("finish phase read nothing back")
	}
	if resident > 100*1000 {
		t.Errorf("resident bytes %d exceed budget after spilling", resident)
	}
}

func TestBNLFallbackForOversizedPartition(t *testing.T) {
	// One duplicate-heavy key: a single partition far larger than the
	// budget forces block-nested-loop passes.
	n := 4000
	rs := make([]tuple.Tuple, n)
	for i := range rs {
		rs[i] = tuple.Tuple{Index: uint64(i), Key: 0xDEADBEEF}
	}
	ss := []tuple.Tuple{{Index: 9, Key: 0xDEADBEEF}, {Index: 10, Key: 42}}
	m, _, gotM, gotCk, _ := runOOC(t, 50*100, 4, rs, ss) // budget: 50 tuples
	wantM, wantCk := refJoin(rs, ss)
	if gotM != wantM || gotCk != wantCk {
		t.Errorf("matches = %d, want %d", gotM, wantM)
	}
	if m.BNLPasses == 0 {
		t.Error("expected BNL passes for oversized partition")
	}
}

func TestStoredBuildTuplesConservation(t *testing.T) {
	rs := genTuples(3000, 5, 400)
	m, _, _, _, resident := runOOC(t, 50*1000, 8, rs, nil)
	if m.SpilledPartitions() == 0 {
		t.Fatal("scenario is vacuous: nothing spilled")
	}
	if got := resident/int64(layout().LogicalSize()) + m.StoredBuildTuples(); got != 3000 {
		t.Errorf("stored %d of 3000 build tuples (%d on disk)", got, m.StoredBuildTuples())
	}
}

func TestProbeOnlySpilledPartition(t *testing.T) {
	// Probe tuples for an evicted partition with no surviving matches must
	// still be handled (spilled + finished) without errors.
	rs := genTuples(2000, 6, 10) // heavy duplicates force eviction
	ss := []tuple.Tuple{{Index: 1, Key: 0x1234567890}}
	m, _, gotM, _, _ := runOOC(t, 30*1000, 4, rs, ss)
	wantM, _ := refJoin(rs, ss)
	if gotM != wantM {
		t.Errorf("matches = %d, want %d", gotM, wantM)
	}
	if !m.Spilled(m.PartOf(ss[0].Key)) {
		t.Error("scenario is vacuous: the probe tuple's partition stayed resident")
	}
}

func TestPartsRoundedToPowerOfTwo(t *testing.T) {
	m := NewRung(space, layout(), layout(), 1<<20, 5, rt.OSUMed())
	if m.parts != 8 {
		t.Errorf("parts = %d, want 8", m.parts)
	}
	for i := 0; i < 1000; i++ {
		p := m.partOf(rand.Uint64())
		if p < 0 || p >= 8 {
			t.Fatalf("partition %d out of range", p)
		}
	}
}

func TestPolicyString(t *testing.T) {
	if Grace.String() != "grace" || HybridHash.String() != "hybrid-hash" {
		t.Errorf("policy strings: %s, %s", Grace, HybridHash)
	}
	if Policy(9).String() != "Policy(?)" {
		t.Error("unknown policy string")
	}
}

func TestFinishSkipsEmptyBuildPartitions(t *testing.T) {
	// Regression: Finish used to run the first BNL iteration even for a
	// partition with no spilled build tuples, charging a disk seek,
	// building a transient empty table, and re-reading the entire spilled
	// probe partition — all for zero possible matches. The only reads
	// Finish may charge here are the build partition's own blocks.
	env := &fakeEnv{}
	m := NewRung(space, layout(), layout(), 100, 4, rt.OSUMed())
	rKey := uint64(1)
	sKey := uint64(0)
	for k := uint64(2); sKey == 0; k++ {
		if m.partOf(k) != m.partOf(rKey) {
			sKey = k
		}
	}
	for p := 0; p < m.Parts(); p++ {
		m.MarkEvicted(env, p, 0) // nothing fits resident
	}
	const nR, nS = 2, 50
	for i := 0; i < nR; i++ {
		m.SpillBuild(env, tuple.Tuple{Index: uint64(i), Key: rKey})
	}
	for i := 0; i < nS; i++ {
		m.SpillProbe(env, tuple.Tuple{Index: uint64(i), Key: sKey})
	}
	finishEnv := &fakeEnv{}
	m.Finish(finishEnv)
	rSize := int64(layout().LogicalSize())
	if want := nR * rSize; finishEnv.reads != want {
		t.Errorf("finish read %d bytes, want only the build blocks (%d) — "+
			"probe-only partitions must be skipped", finishEnv.reads, want)
	}
	if m.Matches() != 0 {
		t.Errorf("matches = %d, want 0", m.Matches())
	}
}

func TestRungEvictAndFinishMatchesReference(t *testing.T) {
	rs := genTuples(3000, 11, 500)
	ss := genTuples(3000, 12, 500)
	env := &fakeEnv{}
	m := NewRung(space, layout(), layout(), 50*1000, 8, rt.OSUMed())
	// Evict two partitions mid-build: the first 1500 build tuples are live
	// at the node; their share of the evicted partitions moves to the rung.
	pA, pB := m.PartOf(rs[0].Key), -1
	for _, r := range rs {
		if m.PartOf(r.Key) != pA {
			pB = m.PartOf(r.Key)
			break
		}
	}
	extract := func(ts []tuple.Tuple, p int) []tuple.Tuple {
		var out []tuple.Tuple
		for _, t := range ts {
			if m.PartOf(t.Key) == p {
				out = append(out, t)
			}
		}
		return out
	}
	m.EvictBuild(env, pA, extract(rs[:1500], pA))
	m.EvictBuild(env, pB, extract(rs[:1500], pB))
	if m.SpilledPartitions() != 2 {
		t.Fatalf("SpilledPartitions = %d, want 2", m.SpilledPartitions())
	}
	// Later arrivals of evicted partitions stream straight to the rung.
	for _, r := range rs[1500:] {
		if m.Spilled(m.PartOf(r.Key)) {
			m.SpillBuild(env, r)
		}
	}
	for _, s := range ss {
		if m.Spilled(m.PartOf(s.Key)) {
			m.SpillProbe(env, s)
		}
	}
	m.Finish(env)

	var spilledR, spilledS []tuple.Tuple
	for _, r := range rs {
		if m.Spilled(m.PartOf(r.Key)) {
			spilledR = append(spilledR, r)
		}
	}
	for _, s := range ss {
		if m.Spilled(m.PartOf(s.Key)) {
			spilledS = append(spilledS, s)
		}
	}
	wantM, wantCk := refJoin(spilledR, spilledS)
	if m.Matches() != wantM || m.Checksum() != wantCk {
		t.Errorf("rung result %d/%#x, want %d/%#x", m.Matches(), m.Checksum(), wantM, wantCk)
	}
	if got := m.StoredBuildTuples(); got != int64(len(spilledR)) {
		t.Errorf("stored %d build tuples, want %d", got, len(spilledR))
	}
	if m.SpillWrittenBytes == 0 || env.writes == 0 {
		t.Error("rung accounted no spill writes")
	}
	if m.SpillReadBytes == 0 || env.reads == 0 {
		t.Error("rung finish read nothing back")
	}
}

func TestRungExtractAndPurgeRange(t *testing.T) {
	env := &fakeEnv{}
	m := NewRung(space, layout(), layout(), 10*1000, 4, rt.OSUMed())
	rs := genTuples(1000, 13, 300)
	p := m.PartOf(rs[0].Key)
	m.EvictBuild(env, p, nil)
	var inPart []tuple.Tuple
	for _, r := range rs {
		if m.PartOf(r.Key) == p {
			m.SpillBuild(env, r)
			inPart = append(inPart, r)
		}
	}
	lower := hashfn.Range{Lo: 0, Hi: 512} // half the 10-bit position space
	var wantMoved int64
	for _, r := range inPart {
		if lower.Contains(space.PositionOf(r.Key)) {
			wantMoved++
		}
	}
	readsBefore := env.reads
	moved := m.ExtractRange(env, lower)
	if int64(len(moved)) != wantMoved {
		t.Errorf("extracted %d tuples, want %d", len(moved), wantMoved)
	}
	rSize := int64(layout().LogicalSize())
	if got := env.reads - readsBefore; got != wantMoved*rSize {
		t.Errorf("extraction charged %d read bytes, want %d", got, wantMoved*rSize)
	}
	upper := hashfn.Range{Lo: 512, Hi: 1024}
	if dropped := m.PurgeRange(upper); dropped != int64(len(inPart))-wantMoved {
		t.Errorf("purged %d tuples, want %d", dropped, int64(len(inPart))-wantMoved)
	}
	if got := m.StoredBuildTuples(); got != 0 {
		t.Errorf("%d build tuples remain after extract+purge, want 0", got)
	}
}

func TestWriteBatching(t *testing.T) {
	// Small spills accumulate; disk time is charged in batches, flushed at
	// Finish.
	env := &fakeEnv{}
	m := NewRung(space, layout(), layout(), 100, 4, rt.OSUMed())
	for p := 0; p < m.Parts(); p++ {
		m.MarkEvicted(env, p, 0) // nothing fits
	}
	for i := 0; i < 10; i++ {
		m.SpillBuild(env, tuple.Tuple{Index: uint64(i), Key: uint64(i) * 7919})
	}
	if m.SpillWrittenBytes == 0 {
		t.Fatal("nothing accounted as spilled")
	}
	if env.writes != 0 {
		t.Errorf("charged %d write bytes before a batch filled", env.writes)
	}
	m.Finish(env)
	if env.writes != m.SpillWrittenBytes {
		t.Errorf("charged %d write bytes, accounted %d", env.writes, m.SpillWrittenBytes)
	}
}

// TestStreamMatchesSliceModel drives a stream and a plain slice through the
// same random appends, front adoptions, removals and window reads.
func TestStreamMatchesSliceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var s stream
	var model []tuple.Tuple
	next := uint64(0)
	fresh := func(n int) []tuple.Tuple {
		out := make([]tuple.Tuple, n, n+rng.Intn(3)) // spare capacity, as a caller's slice may have
		for i := range out {
			out[i] = tuple.Tuple{Index: next, Key: rng.Uint64()}
			next++
		}
		return out
	}
	for step := 0; step < 2000; step++ {
		switch op := rng.Intn(20); {
		case op < 14:
			for _, tp := range fresh(1 + rng.Intn(300)) {
				s.add(tp)
				model = append(model, tp)
			}
		case op < 16:
			ts := fresh(rng.Intn(1500))
			model = append(append([]tuple.Tuple{}, ts...), model...)
			s.adoptFront(ts)
		default:
			mask := uint64(1)<<uint(1+rng.Intn(3)) - 1
			take := func(tp tuple.Tuple) bool { return tp.Key&mask == 0 }
			kept := model[:0]
			for _, tp := range model {
				if !take(tp) {
					kept = append(kept, tp)
				}
			}
			model = kept
			s.remove(take)
		}
		if s.n != len(model) {
			t.Fatalf("step %d: stream counts %d tuples, model holds %d", step, s.n, len(model))
		}
		lo := rng.Intn(len(model) + 1)
		hi := lo + rng.Intn(len(model)-lo+1)
		var got []tuple.Tuple
		s.each(lo, hi, func(ts []tuple.Tuple) {
			if len(ts) == 0 {
				t.Fatalf("step %d: each(%d, %d) delivered an empty piece", step, lo, hi)
			}
			got = append(got, ts...)
		})
		if len(got) != hi-lo {
			t.Fatalf("step %d: each(%d, %d) delivered %d tuples", step, lo, hi, len(got))
		}
		for i, tp := range got {
			if tp != model[lo+i] {
				t.Fatalf("step %d: each(%d, %d) tuple %d is %v, model has %v", step, lo, hi, i, tp, model[lo+i])
			}
		}
		for _, b := range s.blocks {
			if len(b) == 0 {
				t.Fatalf("step %d: stream keeps an empty block", step)
			}
		}
	}
}
