package tuple_test

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"ehjoin/internal/tuple"
)

// foldPairs is the definition MixRun must reproduce: MixPair per element.
func foldPairs(run []tuple.Tuple, probeIndex uint64) uint64 {
	var x uint64
	for _, b := range run {
		x ^= tuple.MixPair(b.Index, probeIndex)
	}
	return x
}

var kernels = []struct {
	name string
	fold func([]tuple.Tuple, uint64) uint64
}{
	{"dispatched", tuple.MixRun},
	{"generic", tuple.MixRunGeneric},
}

// TestMixRunMatchesPairFold: on every run length from 0 to 1501, at
// 16k-1, 16k and 16k+1 past that, and from an unaligned start, for random,
// all-zero and all-ones build indices and probe indices 0, 1 and ^0, both
// the dispatched kernel and the pure-Go loop equal the per-element fold.
func TestMixRunMatchesPairFold(t *testing.T) {
	t.Logf("MixRun kernel: %s", tuple.MixRunKernel())
	lengths := make([]int, 0, 1600)
	for n := 0; n <= 1501; n++ {
		lengths = append(lengths, n)
	}
	for _, k := range []int{100, 128, 257, 1024} {
		lengths = append(lengths, 16*k-1, 16*k, 16*k+1)
	}
	maxLen := lengths[len(lengths)-1]

	rng := rand.New(rand.NewSource(31))
	patterns := map[string]func(int) uint64{
		"random": func(int) uint64 { return rng.Uint64() },
		"zero":   func(int) uint64 { return 0 },
		"ones":   func(int) uint64 { return ^uint64(0) },
	}
	for pname, index := range patterns {
		base := make([]tuple.Tuple, maxLen+3)
		for i := range base {
			base[i] = tuple.Tuple{Index: index(i), Key: rng.Uint64()}
		}
		for _, probe := range []uint64{0, 1, ^uint64(0)} {
			for _, off := range []int{0, 3} {
				for _, n := range lengths {
					run := base[off : off+n]
					want := foldPairs(run, probe)
					for _, k := range kernels {
						if got := k.fold(run, probe); got != want {
							t.Fatalf("%s, %s indices, probe %#x, offset %d, length %d: %#x, per-pair fold %#x",
								k.name, pname, probe, off, n, got, want)
						}
					}
				}
			}
		}
	}
}

// FuzzMixRun: any run (16 input bytes per tuple) and probe index folds to
// the per-element MixPair XOR on the dispatched kernel.
func FuzzMixRun(f *testing.F) {
	f.Add([]byte{}, uint64(0))
	f.Add(make([]byte, 15*16), uint64(1))
	f.Add(make([]byte, 16*16), ^uint64(0))
	ones := make([]byte, 17*16)
	for i := range ones {
		ones[i] = 0xFF
	}
	f.Add(ones, uint64(0x9E3779B97F4A7C15))
	seq := make([]byte, 33*16+7) // a trailing partial tuple is ignored
	for i := range seq {
		seq[i] = byte(i)
	}
	f.Add(seq, uint64(12345))

	f.Fuzz(func(t *testing.T, data []byte, probe uint64) {
		run := make([]tuple.Tuple, len(data)/16)
		for i := range run {
			run[i] = tuple.Tuple{
				Index: binary.LittleEndian.Uint64(data[16*i:]),
				Key:   binary.LittleEndian.Uint64(data[16*i+8:]),
			}
		}
		if got, want := tuple.MixRun(run, probe), foldPairs(run, probe); got != want {
			t.Fatalf("%d tuples, probe %#x: MixRun %#x, per-pair fold %#x", len(run), probe, got, want)
		}
	})
}
