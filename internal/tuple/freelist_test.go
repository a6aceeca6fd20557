package tuple

import (
	"sync"
	"testing"
)

// TestFreeListSteadyStateAllocatesNothing pins the point of the free list: a
// Builder whose chunks are released after use cuts the next chunk out of the
// same header and array, so add/cut/release costs no allocation at all.
func TestFreeListSteadyStateAllocatesNothing(t *testing.T) {
	const chunkSize = 1000
	b := NewFreeList(4).NewBuilder(RelR, DefaultLayout(), chunkSize)
	fill := func() {
		for i := 0; i < chunkSize; i++ {
			if c := b.Add(Tuple{Index: uint64(i), Key: uint64(i)}); c != nil {
				c.Release()
			}
		}
	}
	fill() // the first chunk is the one allocation the stream ever makes
	if allocs := testing.AllocsPerRun(50, fill); allocs != 0 {
		t.Errorf("steady-state add/cut/release allocated %.1f times per chunk, want 0", allocs)
	}
}

// TestFreeListRecyclesOnlyItsOwnChunks: release is a no-op on every chunk a
// free-list Builder did not cut — in particular on one assembled around a
// slice of a larger array, which is how join nodes ship table extractions —
// and is idempotent on the ones it did.
func TestFreeListRecyclesOnlyItsOwnChunks(t *testing.T) {
	fl := NewFreeList(4)
	b := fl.NewBuilder(RelS, DefaultLayout(), 2)

	extraction := make([]Tuple, 10)
	alias := &Chunk{Rel: RelR, Layout: DefaultLayout(), Tuples: extraction[2:4]}
	alias.Release()
	plain := NewBuilder(RelR, DefaultLayout(), 1).Add(Tuple{Index: 7})
	plain.Release()
	if len(alias.Tuples) != 2 || len(plain.Tuples) != 1 || len(fl.c) != 0 {
		t.Fatalf("release touched a chunk no free list owns: alias %d tuples, plain %d, parked %d",
			len(alias.Tuples), len(plain.Tuples), len(fl.c))
	}

	b.Add(Tuple{Index: 1})
	first := b.Add(Tuple{Index: 2})
	first.Release()
	first.Release() // a second release must not park the chunk twice
	if len(fl.c) != 1 {
		t.Fatalf("free list holds %d chunks after a double release, want 1", len(fl.c))
	}
	b.Add(Tuple{Index: 3})
	second := b.Add(Tuple{Index: 4})
	if second != first {
		t.Error("the released chunk was not the next one cut")
	}
	if second.Rel != RelS || len(second.Tuples) != 2 || second.Tuples[0].Index != 3 || second.Tuples[1].Index != 4 {
		t.Errorf("recycled chunk carries stale contents: %+v", second)
	}
}

// TestFreeListIsBounded: releases beyond the list's capacity are dropped,
// not queued.
func TestFreeListIsBounded(t *testing.T) {
	fl := NewFreeList(2)
	b := fl.NewBuilder(RelR, DefaultLayout(), 1)
	var cut []*Chunk
	for i := 0; i < 5; i++ {
		cut = append(cut, b.Add(Tuple{Index: uint64(i)}))
	}
	for _, c := range cut {
		c.Release()
	}
	if len(fl.c) != 2 {
		t.Errorf("free list parked %d chunks, want its bound of 2", len(fl.c))
	}
}

// TestFreeListReleaseFromAnotherGoroutine is the transport's usage under the
// race detector: one goroutine cuts chunks, another reads and releases them.
func TestFreeListReleaseFromAnotherGoroutine(t *testing.T) {
	const chunks, chunkSize = 200, 16
	b := NewFreeList(4).NewBuilder(RelR, DefaultLayout(), chunkSize)
	sent := make(chan *Chunk, 8) // small enough that cutting and releasing overlap
	var sum uint64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for c := range sent {
			for _, tp := range c.Tuples {
				sum += tp.Index
			}
			c.Release()
		}
	}()
	var want uint64
	for i := 0; i < chunks*chunkSize; i++ {
		want += uint64(i)
		if c := b.Add(Tuple{Index: uint64(i)}); c != nil {
			sent <- c
		}
	}
	close(sent)
	wg.Wait()
	if sum != want {
		t.Errorf("consumer saw index sum %d, want %d: a chunk was refilled while still being read", sum, want)
	}
}

// TestDecodeThroughFreeListAllocatesNothing is item 14's decode row: a
// receiver that decodes each chunk through a list and releases it once
// consumed decodes the next one into the same header and array, so the
// steady state allocates nothing per tuple.
func TestDecodeThroughFreeListAllocatesNothing(t *testing.T) {
	const chunkSize = 1000
	in := &Chunk{Rel: RelR, Layout: DefaultLayout()}
	for i := 0; i < chunkSize; i++ {
		in.Tuples = append(in.Tuples, Tuple{Index: uint64(i), Key: uint64(i) * 31})
	}
	frame := in.AppendBinary(nil)
	fl := NewFreeList(4)
	var sum uint64
	decode := func() {
		c, _, err := fl.DecodeBinary(frame)
		if err != nil {
			t.Fatal(err)
		}
		sum += c.Tuples[chunkSize-1].Key
		c.Release()
	}
	decode() // the first decode is the one allocation the stream ever makes
	if allocs := testing.AllocsPerRun(50, decode); allocs != 0 {
		t.Errorf("steady-state decode/release allocated %.1f times per chunk of %d tuples, want 0", allocs, chunkSize)
	}
	if want := uint64(chunkSize-1) * 31 * 52; sum != want {
		t.Errorf("decoded last keys sum to %d, want %d", sum, want)
	}
}

// TestDecodedChunkReturnsToItsList: a chunk decoded through a list is homed
// to it, so Release parks it and the next decode reuses its array; a
// plain DecodeBinary's chunk belongs to no list. A parked array too short
// for the next chunk is replaced, not overrun.
func TestDecodedChunkReturnsToItsList(t *testing.T) {
	small := (&Chunk{Rel: RelS, Tuples: []Tuple{{1, 2}, {3, 4}}}).AppendBinary(nil)
	large := (&Chunk{Rel: RelR, Tuples: []Tuple{{5, 6}, {7, 8}, {9, 10}}}).AppendBinary(nil)
	fl := NewFreeList(2)

	plain, _, _ := DecodeBinary(small)
	plain.Release()
	if len(fl.c) != 0 || len(plain.Tuples) != 2 {
		t.Fatalf("a plain decode's release touched a list: parked %d, %d tuples left", len(fl.c), len(plain.Tuples))
	}

	first, _, _ := fl.DecodeBinary(large)
	array := &first.Tuples[0]
	first.Release()
	if len(fl.c) != 1 {
		t.Fatalf("list holds %d chunks after releasing a decoded one, want 1", len(fl.c))
	}
	second, _, _ := fl.DecodeBinary(small)
	if second != first || &second.Tuples[0] != array {
		t.Error("the released chunk's header and array were not reused by the next decode")
	}
	if second.Rel != RelS || !sameChunk(second, plain) {
		t.Errorf("reused chunk decoded as %+v, want %+v", second, plain)
	}
	second.Release()
	shortFirst, _, _ := fl.DecodeBinary(small)
	shortFirst.Tuples = shortFirst.Tuples[:1:1] // a parked array shorter than the next chunk
	shortFirst.Release()
	third, _, _ := fl.DecodeBinary(large)
	if len(third.Tuples) != 3 || third.Tuples[2] != (Tuple{9, 10}) {
		t.Errorf("decode through a short parked array returned %+v", third.Tuples)
	}
}
