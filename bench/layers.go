package main

import (
	"fmt"
	"runtime"

	"ehjoin"
	"ehjoin/internal/datagen"
	"ehjoin/internal/hashfn"
	"ehjoin/internal/hashtable"
	rt "ehjoin/internal/runtime"
	"ehjoin/internal/spill"
	"ehjoin/internal/tuple"
)

// layerRun pushes one workload's input stage by stage through the public
// functions a tuple crosses on its way through the engine, in north-star
// order: datagen -> chunk -> route -> encode -> decode -> insert -> probe
// -> extract -> spill. Each stage is a span; tuples, bytes and mallocs are
// counted at the same boundaries, so every metric is a per-tuple cost
// measured where the work happens. The stages run single-threaded and
// back to back, which prices each layer alone — what the end-to-end runs
// cannot do.
type layerRun struct {
	tr       *tracer
	workload string
	root     int
	metrics  map[string]float64
}

// stage runs f as a child span of parent and returns its duration in
// nanoseconds and the heap allocations it made.
func (l *layerRun) stage(name string, parent int, f func()) (ns int64, mallocs uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	id := l.tr.begin(l.workload, name, parent)
	f()
	ns = l.tr.end(id)
	runtime.ReadMemStats(&after)
	return ns, after.Mallocs - before.Mallocs
}

func heapAfterGC() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// stubEnv is the runtime.Env the spill rung is driven through: the cost
// charges it would make against the simulator's clock are dropped, as on
// the live engines.
type stubEnv struct{}

func (stubEnv) Now() int64                 { return 0 }
func (stubEnv) Send(rt.NodeID, rt.Message) {}
func (stubEnv) ChargeCPU(int64)            {}
func (stubEnv) ChargeDisk(int64, bool)     {}

var routeSink int32

// run executes the stages and checks the probe and spill results against
// the oracle. It returns an error when a layer computed a wrong result.
func (l *layerRun) run(cfg ehjoin.Config, want oracleResult) error {
	chunkTuples := cfg.ChunkTuples
	if chunkTuples == 0 {
		chunkTuples = tuple.DefaultChunkTuples
	}
	layout := cfg.Build.Layout
	if layout.PayloadBytes == 0 {
		layout = tuple.DefaultLayout()
	}
	space := hashfn.DefaultSpace()
	nR, nS := cfg.Build.Tuples, cfg.Probe.Tuples
	per := func(ns int64, n int64) float64 { return float64(ns) / float64(n) }

	bg, err := datagen.New(cfg.Build)
	if err != nil {
		return err
	}
	pg, err := datagen.NewProbe(cfg.Probe, bg, cfg.MatchFraction)
	if err != nil {
		return err
	}

	// datagen
	build := make([]tuple.Tuple, nR)
	probe := make([]tuple.Tuple, nS)
	ns, _ := l.stage("datagen.Gen.At", l.root, func() {
		for i := range build {
			build[i] = bg.At(int64(i))
		}
	})
	l.metrics["datagen.build_ns_per_tuple"] = per(ns, nR)
	ns, _ = l.stage("datagen.ProbeGen.At", l.root, func() {
		for i := range probe {
			probe[i] = pg.At(int64(i))
		}
	})
	l.metrics["datagen.probe_ns_per_tuple"] = per(ns, nS)

	// chunk
	var rChunks, sChunks []*tuple.Chunk
	cut := func(rel tuple.Relation, ts []tuple.Tuple) []*tuple.Chunk {
		var out []*tuple.Chunk
		b := tuple.NewBuilder(rel, layout, chunkTuples)
		for _, t := range ts {
			if c := b.Add(t); c != nil {
				out = append(out, c)
			}
		}
		if c := b.Flush(); c != nil {
			out = append(out, c)
		}
		return out
	}
	ns, mallocs := l.stage("tuple.Builder.Add+Flush", l.root, func() {
		rChunks = cut(tuple.RelR, build)
		sChunks = cut(tuple.RelS, probe)
	})
	l.metrics["tuple.chunk_ns_per_tuple"] = per(ns, nR+nS)
	l.metrics["tuple.chunk_allocs_per_tuple"] = float64(mallocs) / float64(nR+nS)

	// route
	owners := make([]int32, cfg.InitialNodes)
	for i := range owners {
		owners[i] = int32(i)
	}
	routing, err := hashfn.NewTable(space, owners)
	if err != nil {
		return err
	}
	ns, _ = l.stage("hashfn.Space.PositionOf+Table.BuildOwnerOf", l.root, func() {
		var sum int32
		for _, ts := range [][]tuple.Tuple{build, probe} {
			for _, t := range ts {
				sum += routing.BuildOwnerOf(space.PositionOf(t.Key))
			}
		}
		routeSink = sum
	})
	l.metrics["hashfn.position_ns_per_key"] = per(ns, nR+nS)
	build, probe = nil, nil // the chunks carry the tuples from here on

	// encode
	chunks := append(append([]*tuple.Chunk(nil), rChunks...), sChunks...)
	frames := make([][]byte, len(chunks))
	var wireBytes int64
	ns, _ = l.stage("tuple.Chunk.AppendBinary", l.root, func() {
		for i, c := range chunks {
			frames[i] = c.AppendBinary(nil)
			wireBytes += int64(len(frames[i]))
		}
	})
	l.metrics["tuple.encode_ns_per_tuple"] = per(ns, nR+nS)
	l.metrics["tuple.wire_bytes_per_tuple"] = float64(wireBytes) / float64(nR+nS)
	chunks, rChunks, sChunks = nil, nil, nil

	// decode
	decoded := make([]*tuple.Chunk, len(frames))
	var decodeErr error
	ns, mallocs = l.stage("tuple.DecodeBinary", l.root, func() {
		for i, f := range frames {
			c, n, err := tuple.DecodeBinary(f)
			if err != nil || n != len(f) {
				decodeErr = fmt.Errorf("frame %d: consumed %d of %d bytes: %v", i, n, len(f), err)
				return
			}
			decoded[i] = c
		}
	})
	if decodeErr != nil {
		return decodeErr
	}
	l.metrics["tuple.decode_ns_per_tuple"] = per(ns, nR+nS)
	l.metrics["tuple.decode_allocs_per_tuple"] = float64(mallocs) / float64(nR+nS)
	frames = nil

	// insert
	heapBefore := heapAfterGC()
	var tbl *hashtable.Table
	ns, mallocs = l.stage("hashtable.New+Table.InsertChunk", l.root, func() {
		tbl = hashtable.New(space, layout)
		for _, c := range decoded {
			if c.Rel == tuple.RelR {
				tbl.InsertChunk(c)
			}
		}
	})
	heapAfter := heapAfterGC()
	l.metrics["hashtable.insert_ns_per_tuple"] = per(ns, nR)
	l.metrics["hashtable.insert_allocs_per_tuple"] = float64(mallocs) / float64(nR)
	l.metrics["hashtable.heap_bytes_per_tuple"] = (float64(heapAfter) - float64(heapBefore)) / float64(nR)

	// probe
	var matches, checksum, sIndex uint64
	fold := func(b tuple.Tuple) { checksum ^= spill.MixPair(b.Index, sIndex) }
	ns, _ = l.stage("hashtable.Table.Probe", l.root, func() {
		for _, c := range decoded {
			if c.Rel != tuple.RelS {
				continue
			}
			for _, t := range c.Tuples {
				sIndex = t.Index
				matches += uint64(tbl.Probe(t.Key, fold))
			}
		}
	})
	if matches != want.Matches || checksum != want.Checksum {
		return fmt.Errorf("probe stage: %d matches (checksum %#x), oracle says %d (%#x)",
			matches, checksum, want.Matches, want.Checksum)
	}
	l.metrics["hashtable.probe_ns_per_tuple"] = per(ns, nS)
	l.metrics["hashtable.probe_ns_per_match"] = float64(ns) / float64(matches)
	l.metrics["hashtable.matches"] = float64(matches)

	// extract: what a reshuffle or split does to the upper half of the range
	upper := hashfn.Range{Lo: space.Positions() / 2, Hi: space.Positions()}
	var moved []tuple.Tuple
	id := l.tr.begin(l.workload, "hashtable.extract", l.root)
	l.stage("hashtable.Table.CountsInRange", id, func() { _ = tbl.CountsInRange(upper) })
	l.stage("hashtable.Table.ExtractRange", id, func() { moved = tbl.ExtractRange(upper) })
	ns = l.tr.end(id)
	if len(moved) == 0 {
		return fmt.Errorf("extract stage moved no tuples")
	}
	l.metrics["hashtable.extract_ns_per_tuple"] = per(ns, int64(len(moved)))

	// Matches the remaining (lower-half) table must still produce: the
	// oracle's total minus those of the tuples just extracted.
	movedKeys := make(map[uint64]uint64, len(moved))
	for _, t := range moved {
		movedKeys[t.Key]++
	}
	moved = nil
	remaining := want.Matches
	for _, c := range decoded {
		if c.Rel == tuple.RelS {
			for _, t := range c.Tuples {
				remaining -= movedKeys[t.Key]
			}
		}
	}

	// spill: the rung protocol a join node follows once the cluster is
	// exhausted — evict whole partitions from the live table, divert the
	// probes of evicted partitions, join them in Finish.
	var env stubEnv
	var rung *spill.Manager
	var handled int64
	var resident uint64
	id = l.tr.begin(l.workload, "spill.rung", l.root)
	l.stage("spill.NewRung+Manager.EvictBuild", id, func() {
		rung = spill.NewRung(space, layout, layout, cfg.MemoryBudget, 32, ehjoin.OSUMed())
		for p := 0; p < rung.Parts(); p += 2 {
			out := tbl.ExtractMatching(func(t tuple.Tuple) bool { return rung.PartOf(t.Key) == p })
			handled += int64(len(out))
			rung.EvictBuild(env, p, out)
		}
	})
	l.stage("spill.Manager.SpillProbe", id, func() {
		for _, c := range decoded {
			if c.Rel != tuple.RelS {
				continue
			}
			for _, t := range c.Tuples {
				if rung.Spilled(rung.PartOf(t.Key)) {
					rung.SpillProbe(env, t)
				} else {
					resident += uint64(tbl.Probe(t.Key, nil))
				}
			}
		}
		handled += nS
	})
	rungNs := l.tr.end(id)
	finishNs, _ := l.stage("spill.Manager.Finish", l.root, func() { rung.Finish(env) })
	if got := resident + rung.Matches(); got != remaining {
		return fmt.Errorf("spill stage: %d resident + %d spilled matches, want %d", resident, rung.Matches(), remaining)
	}
	l.metrics["spill.rung_ns_per_tuple"] = per(rungNs, handled)
	l.metrics["spill.finish_s"] = float64(finishNs) / 1e9
	return nil
}
