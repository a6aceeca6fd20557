package tuple_test

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"ehjoin/internal/tuple"
)

// foldPairs is the definition MixRun must reproduce: MixPair per word,
// through the build index the word stands for.
func foldPairs(words []uint64, probeIndex uint64) uint64 {
	var x uint64
	for _, w := range words {
		x ^= tuple.MixPair(tuple.RunIndex(w), probeIndex)
	}
	return x
}

var kernels = []struct {
	name string
	fold func([]uint64, uint64) uint64
}{
	{"dispatched", tuple.MixRun},
	{"generic", tuple.MixRunGeneric},
}

// TestMixRunMatchesPairFold: on every run length from 0 to 1501, at
// 16k-1, 16k and 16k+1 past that, and from an unaligned start, for random,
// all-zero and all-ones build indices and probe indices 0, 1 and ^0, both
// the dispatched kernel and the pure-Go loop over the indices' RunWords
// equal the per-pair fold.
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
		base := make([]uint64, maxLen+3)
		for i := range base {
			base[i] = tuple.RunWord(index(i))
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

// TestRunWordRoundTrip: RunIndex inverts RunWord on the edge indices and a
// million random ones, and the word is the build-only part of MixPair:
// MixPair(b, p) = g(RunWord(b) ^ k(p)) with k(p) = p·C2 ^ (p·C2)>>33 and
// g(y) = y·C3 ^ (y·C3)>>29.
func TestRunWordRoundTrip(t *testing.T) {
	k := func(p uint64) uint64 {
		p *= 0xC2B2AE3D27D4EB4F
		return p ^ p>>33
	}
	g := func(y uint64) uint64 {
		y *= 0xFF51AFD7ED558CCD
		return y ^ y>>29
	}
	rng := rand.New(rand.NewSource(35))
	indices := []uint64{0, 1, ^uint64(0), 1 << 63}
	for i := 0; i < 1_000_000; i++ {
		indices = append(indices, rng.Uint64())
	}
	for i, b := range indices {
		w := tuple.RunWord(b)
		if got := tuple.RunIndex(w); got != b {
			t.Fatalf("RunIndex(RunWord(%#x)) = %#x", b, got)
		}
		p := indices[(i+1)%len(indices)]
		if got, want := g(w^k(p)), tuple.MixPair(b, p); got != want {
			t.Fatalf("g(RunWord(%#x) ^ k(%#x)) = %#x, MixPair %#x", b, p, got, want)
		}
	}
}

// FuzzMixRun: any run of words (8 input bytes each) and probe index folds
// to the per-pair MixPair XOR on the dispatched kernel.
func FuzzMixRun(f *testing.F) {
	f.Add([]byte{}, uint64(0))
	f.Add(make([]byte, 15*8), uint64(1))
	f.Add(make([]byte, 16*8), ^uint64(0))
	ones := make([]byte, 17*8)
	for i := range ones {
		ones[i] = 0xFF
	}
	f.Add(ones, uint64(0x9E3779B97F4A7C15))
	seq := make([]byte, 33*8+7) // a trailing partial word is ignored
	for i := range seq {
		seq[i] = byte(i)
	}
	f.Add(seq, uint64(12345))

	f.Fuzz(func(t *testing.T, data []byte, probe uint64) {
		words := make([]uint64, len(data)/8)
		for i := range words {
			words[i] = binary.LittleEndian.Uint64(data[8*i:])
		}
		if got, want := tuple.MixRun(words, probe), foldPairs(words, probe); got != want {
			t.Fatalf("%d words, probe %#x: MixRun %#x, per-pair fold %#x", len(words), probe, got, want)
		}
	})
}
