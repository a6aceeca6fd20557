package tcpnet

// The transport's recycling loops, pinned: retransmit slabs that the
// session encodes into and peerAck hands back (session.go), pooled message
// buffers the writer goroutine releases after encoding (writeLoop), and the
// chunk arrays a worker's readers decode into and its actors release.

import (
	"bytes"
	"encoding/binary"
	"net"
	"sync"
	"sync/atomic"
	"testing"

	rt "ehjoin/internal/runtime"
	"ehjoin/internal/tuple"
	wire "ehjoin/internal/wire"
)

// slabMsg is a payload whose frame can be made exactly as large as a test
// needs, and whose encoding allocates nothing.
type slabMsg struct{ Pad []byte }

func (m *slabMsg) WireSize() int { return len(m.Pad) }

// releasableMsg counts the transport's Release calls.
type releasableMsg struct {
	slabMsg
	released *int64
}

func (m *releasableMsg) Release() { atomic.AddInt64(m.released, 1) }

func init() {
	wire.Register(250, func(c *wire.Codec, m *slabMsg) { wire.Blob(c, &m.Pad) })
	wire.Register(251, func(c *wire.Codec, m *releasableMsg) { wire.Blob(c, &m.Pad) })
	wire.Register(252, func(c *wire.Codec, m *chunkMsg) { wire.Chunk(c, &m.Chunk) })
}

// chunkMsg carries one tuple chunk.
type chunkMsg struct{ Chunk *tuple.Chunk }

func (m *chunkMsg) WireSize() int { return m.Chunk.LogicalBytes() }

// sinkActor takes chunks, as a join node does: it reports how many can be
// in flight toward it, records the array each chunk arrived in, and
// releases the chunk.
type sinkActor struct{ arrays map[*tuple.Tuple]int }

func (a *sinkActor) InFlightChunks() int { return 2 }

func (a *sinkActor) Receive(env rt.Env, from rt.NodeID, m rt.Message) {
	c := m.(*chunkMsg).Chunk
	a.arrays[&c.Tuples[0]]++
	c.Release()
}

// padFor returns a payload whose frame is frameBytes long on the wire.
func padFor(frameBytes int, fill byte) []byte {
	const overhead = frameHeaderLen + minBodyLen + 8 + 1 + 4 // length, envelope+kind, from/to, codec id, pad length
	return bytes.Repeat([]byte{fill}, frameBytes-overhead)
}

func frameSeq(data []byte) uint64 { return binary.LittleEndian.Uint64(data[frameHeaderLen+4:]) }

// TestSessionSlabRecyclingKeepsReplayBytes is ISSUE 16's slab-lifetime pin:
// while one goroutine encodes and "writes" frames (the writer's copy into
// its bufio) and another acknowledges them concurrently — every ack hands a
// slab back for the next encode to overwrite — a resumeFrom snapshot
// must always hold exactly the bytes that first went on the wire. Run it
// under -race: the writer's copy and the recycling must never touch the
// same slab at once.
func TestSessionSlabRecyclingKeepsReplayBytes(t *testing.T) {
	const frames = 3000
	s := newSession(9, 0, 0)
	wired := make(map[uint64][]byte) // seq -> the bytes the writer put on the wire

	// check snapshots from the ack floor. The acker may raise the floor
	// between the read and the snapshot; resumeFrom then refuses, changing
	// nothing, and the snapshot is taken again from the new floor.
	check := func() {
		t.Helper()
		var retrans [][]byte
		for tries := 0; ; tries++ {
			s.mu.Lock()
			since := s.acked
			s.mu.Unlock()
			var err error
			if retrans, err = s.resumeFrom(since); err == nil {
				break
			} else if tries == 1000 {
				t.Fatalf("resumeFrom(%d) refused: %v", since, err)
			}
		}
		for _, data := range retrans {
			seq := frameSeq(data)
			if want := wired[seq]; !bytes.Equal(data, want) {
				t.Fatalf("replay of frame %d differs from what first went on the wire (%d vs %d bytes)",
					seq, len(data), len(want))
			}
		}
	}

	sent := make(chan uint64, 64) // keeps the acker at most 64 frames behind the writer
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the peer: acknowledges in bursts, only what is on the wire
		defer wg.Done()
		for seq := range sent {
			if seq%7 == 0 {
				s.peerAck(seq)
			}
		}
	}()
	f := &frame{Kind: frameMsg, From: 1, To: 2}
	recycled := false
	for i := 1; i <= frames; i++ {
		size := 16 << 10 // a 1000-tuple chunk
		switch {
		case i%11 == 0:
			size = 64 // a chunk ack or report: must never pin a slab
		case i%13 == 0:
			size = 5 << 10 // a short flush
		}
		f.Msg = &slabMsg{Pad: padFor(size, byte(i))}
		data, err := s.encode(f)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) != size || frameSeq(data) != uint64(i) {
			t.Fatalf("frame %d: %d bytes with seq %d, want %d bytes", i, len(data), frameSeq(data), size)
		}
		wired[uint64(i)] = append([]byte(nil), data...) // the writer's copy into its bufio
		sent <- uint64(i)
		if i%97 == 0 {
			check()
		}
		s.mu.Lock()
		recycled = recycled || len(s.free) > 0
		if s.freeBytes > slabPoolBytes {
			t.Fatalf("free list parks %d bytes, bound is %d", s.freeBytes, slabPoolBytes)
		}
		for _, slab := range s.free {
			if cap(slab) < slabMinBytes {
				t.Fatalf("a %d-byte slab was parked; short frames must not enter the free list", cap(slab))
			}
		}
		s.mu.Unlock()
	}
	close(sent)
	wg.Wait()
	check()
	// A peer that reports a position below the ack floor is refused: the
	// frames it lacks are gone.
	if retrans, err := s.resumeFrom(0); err == nil || retrans != nil {
		t.Fatalf("resumeFrom(0) below the ack floor: %d frames, %v; want a refusal", len(retrans), err)
	}
	if !recycled {
		t.Error("no slab was ever parked: the recycling path did not run")
	}
}

// TestSessionEncodeSteadyStateAllocatesNothing: once the free list is warm,
// encoding a chunk-sized reliable frame and trimming it on ack costs no
// allocation — the parent commit paid one 16 KB copy per frame here.
func TestSessionEncodeSteadyStateAllocatesNothing(t *testing.T) {
	s := newSession(9, 0, 0)
	f := &frame{Kind: frameMsg, From: 1, To: 2, Msg: &slabMsg{Pad: padFor(16<<10, 0xAB)}}
	round := func() {
		// A window of four frames in flight, then the cumulative ack.
		for i := 0; i < 4; i++ {
			if _, err := s.encode(f); err != nil {
				t.Fatal(err)
			}
		}
		s.peerAck(uint64(s.framesSent()))
	}
	round()
	round() // the second round encodes into the first round's slabs
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Errorf("steady-state encode+ack allocated %.2f times per four frames, want 0", allocs)
	}
}

// TestSessionSlabsLeaveOnlyThroughAcks: eviction and reset drop their
// frames instead of recycling them (a writer may still hold the bytes), and
// an acked frame is no longer reachable from the buffer's vacated tail.
func TestSessionSlabsLeaveOnlyThroughAcks(t *testing.T) {
	big := &frame{Kind: frameMsg, From: 1, To: 2, Msg: &slabMsg{Pad: padFor(8<<10, 1)}}
	s := newSession(9, 2, 1<<20)
	for i := 0; i < 5; i++ { // maxFrames 2: three evictions
		if _, err := s.encode(big); err != nil {
			t.Fatal(err)
		}
	}
	if s.resumable() || len(s.free) != 0 {
		t.Fatalf("after overflow: resumable %v, %d slabs parked; want false, 0", s.resumable(), len(s.free))
	}
	s.reset()
	if len(s.free) != 0 || s.freeBytes != 0 {
		t.Fatalf("reset parked %d slabs (%d bytes); dropped frames must go to the garbage collector", len(s.free), s.freeBytes)
	}

	s = newSession(9, 0, 0)
	for i := 0; i < 6; i++ {
		if _, err := s.encode(big); err != nil {
			t.Fatal(err)
		}
	}
	s.peerAck(4)
	if len(s.buf) != 2 || len(s.free) != 4 {
		t.Fatalf("after ack 4 of 6: %d buffered, %d parked; want 2, 4", len(s.buf), len(s.free))
	}
	for i, sf := range s.buf[len(s.buf):cap(s.buf)] {
		if sf.data != nil {
			t.Fatalf("vacated buffer slot %d still references a %d-byte frame", i, len(sf.data))
		}
	}
}

// TestWriterReleasesEncodedMessages: the coordinator's writer goroutine
// calls a message's Release hook exactly once, after encoding it for a
// remote worker; a message delivered to a coordinator-local actor is never
// released — its receiver owns it.
func TestWriterReleasesEncodedMessages(t *testing.T) {
	server, client := tcpPair(t)
	var got int64
	done := runTestWorker(firstConn(client, nil), map[rt.NodeID]rt.Actor{1: &countActor{n: &got}})
	c, err := NewCoordinator(nil, map[rt.NodeID]int{1: 0}, testListener(t), []net.Conn{server})
	if err != nil {
		t.Fatal(err)
	}
	var local int64
	c.Register(2, &countActor{n: &local})
	const n = 50
	var remoteReleases, localReleases int64
	for i := 0; i < n; i++ {
		c.Inject(1, &releasableMsg{slabMsg{Pad: padFor(4<<10, byte(i))}, &remoteReleases})
		c.Inject(2, &releasableMsg{slabMsg{Pad: []byte{byte(i)}}, &localReleases})
	}
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	c.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if atomic.LoadInt64(&got) != n || atomic.LoadInt64(&local) != n {
		t.Fatalf("delivered %d remote and %d local messages, want %d each", got, local, n)
	}
	if r := atomic.LoadInt64(&remoteReleases); r != n {
		t.Errorf("writer released %d of %d encoded messages", r, n)
	}
	if r := atomic.LoadInt64(&localReleases); r != 0 {
		t.Errorf("%d locally delivered messages were released; the receiving actor owns those", r)
	}
}

// TestWorkerReadersDecodeThroughFreeList: a worker whose actors take chunks
// decodes each one into an array from its free list, so chunks an actor
// released come back. Each chunk is drained before the next is sent, so
// every decode finds the previous chunk's array parked — except that the
// reader may decode the first chunk before the loop has applied the
// assignment that sizes the list, into an array of its own.
func TestWorkerReadersDecodeThroughFreeList(t *testing.T) {
	server, client := tcpPair(t)
	sink := &sinkActor{arrays: make(map[*tuple.Tuple]int)}
	done := runTestWorker(firstConn(client, nil), map[rt.NodeID]rt.Actor{1: sink})
	c, err := NewCoordinator(nil, map[rt.NodeID]int{1: 0}, testListener(t), []net.Conn{server})
	if err != nil {
		t.Fatal(err)
	}
	const n = 20
	for i := 0; i < n; i++ {
		ts := make([]tuple.Tuple, 1000)
		ts[0].Index = uint64(i)
		c.Inject(1, &chunkMsg{&tuple.Chunk{Rel: tuple.RelS, Tuples: ts}})
		if err := c.Drain(); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if len(sink.arrays) > 2 {
		t.Errorf("%d chunks arrived in %d different arrays, want all but the first in one", n, len(sink.arrays))
	}
}
