package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
)

// The reference kernel is the benchmark's measuring stick: a fixed amount of
// work timed next to every run of the engine, so that the run can be
// reported as a ratio and the host's slow phases cancel. It is frozen —
// changing it moves every rel_* metric — and it imports nothing from the
// repository, so no change to the engine can move it.
//
// A stick only cancels what it is sensitive to in the same way as the thing
// measured. On the sandbox the slow phases hit page faults on fresh memory,
// allocation-heavy random access and socket syscalls far harder than
// register arithmetic (a pure-compute kernel repeats within 6 % while a
// map-building one swings 30 %), so the kernel is a miniature of the
// engine's own data path: producers generate keys and stream them in
// 1000-tuple frames over loopback TCP to consumers that insert them into a
// chained, append-grown hash table and then probe it.
//
// It runs the way the engine does: as a fresh process (this binary with
// refFlag) started and timed by the measuring child of proc.go. Start-up,
// page faults and address-space layout are then drawn anew for every
// sample, as they are for the CLI, instead of being fixed once by the state
// of the long-lived benchmark process.
const (
	refFlag      = "-ref-kernel"
	refStreams   = 2       // producer/consumer pairs, one per core
	refTuples    = 400_000 // build tuples per stream, and as many probes
	refFrame     = 1000    // tuples per frame, the engine's chunk size
	refTupleSize = 16
	refFib       = 0x9E3779B97F4A7C15
)

func refMix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

type refPair struct{ index, key uint64 }

// refTable chains pairs by key in append-grown buckets and doubles at an
// average chain length of four.
type refTable struct {
	buckets [][]refPair
	shift   uint
	count   int
}

func (t *refTable) insert(p refPair) {
	if t.count >= 4*len(t.buckets) {
		old := t.buckets
		t.buckets = make([][]refPair, 2*len(old))
		t.shift--
		for _, chain := range old {
			for _, q := range chain {
				b := (q.key * refFib) >> t.shift
				t.buckets[b] = append(t.buckets[b], q)
			}
		}
	}
	b := (p.key * refFib) >> t.shift
	t.buckets[b] = append(t.buckets[b], p)
	t.count++
}

func (t *refTable) probe(key uint64) (sum uint64) {
	for _, q := range t.buckets[(key*refFib)>>t.shift] {
		if q.key == key {
			sum += q.index
		}
	}
	return sum
}

// refProduce streams the build keys, then the same keys again as probes.
func refProduce(addr string, stream int) error {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer c.Close()
	frame := make([]byte, refTupleSize*refFrame)
	seed := uint64(stream+1) << 32
	for phase := 0; phase < 2; phase++ {
		for i := uint64(0); i < refTuples; i += refFrame {
			for j := uint64(0); j < refFrame; j++ {
				binary.LittleEndian.PutUint64(frame[refTupleSize*j:], i+j)
				binary.LittleEndian.PutUint64(frame[refTupleSize*j+8:], refMix(seed+i+j))
			}
			if _, err := c.Write(frame); err != nil {
				return err
			}
		}
	}
	return nil
}

// refConsume decodes each frame into a fresh slice, inserts the build
// tuples, probes with the rest, and returns the fold of the matches.
func refConsume(c net.Conn) (uint64, error) {
	defer c.Close()
	r := bufio.NewReaderSize(c, 64<<10)
	frame := make([]byte, refTupleSize*refFrame)
	t := &refTable{buckets: make([][]refPair, 1024), shift: 64 - 10}
	var sum uint64
	for phase := 0; phase < 2; phase++ {
		for i := 0; i < refTuples; i += refFrame {
			if _, err := io.ReadFull(r, frame); err != nil {
				return 0, err
			}
			pairs := make([]refPair, refFrame)
			for j := range pairs {
				pairs[j] = refPair{
					index: binary.LittleEndian.Uint64(frame[refTupleSize*j:]),
					key:   binary.LittleEndian.Uint64(frame[refTupleSize*j+8:]),
				}
			}
			for _, p := range pairs {
				if phase == 0 {
					t.insert(p)
				} else {
					sum += t.probe(p.key)
				}
			}
		}
	}
	return sum, nil
}

// refKernel runs the kernel once. Every probe finds exactly its own build
// tuple, so each stream must fold to the sum of its indexes.
func refKernel() error {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer l.Close()
	var wg sync.WaitGroup
	errs := make([]error, 2*refStreams)
	for s := 0; s < refStreams; s++ {
		wg.Add(2)
		go func(s int) {
			defer wg.Done()
			errs[2*s] = refProduce(l.Addr().String(), s)
		}(s)
		go func(s int) {
			defer wg.Done()
			c, err := l.Accept()
			if err != nil {
				errs[2*s+1] = err
				return
			}
			sum, err := refConsume(c)
			if want := uint64(refTuples) * (refTuples - 1) / 2; err == nil && sum != want {
				err = fmt.Errorf("stream folded to %d, want %d", sum, want)
			}
			errs[2*s+1] = err
		}(s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("reference kernel: %w", err)
		}
	}
	return nil
}

// refNominalS is the kernel's wall time on the host the baseline was
// recorded on, in its usual phase. Metrics that must be in seconds
// (setup_s) are scaled by refNominalS over the measured kernel time:
// seconds at reference speed, which stay comparable when the host's raw
// speed drifts by half between two sets of runs, as it does.
const refNominalS = 0.2

// refRun times one run of the kernel as a child process and returns its
// wall time in seconds.
func (b *bench) refRun() (float64, error) {
	res := runProc(b.self, b.self, []string{refFlag}, procTimeout)
	if res.Err != nil {
		return 0, fmt.Errorf("reference kernel: %w", res.Err)
	}
	return res.WallS, nil
}
