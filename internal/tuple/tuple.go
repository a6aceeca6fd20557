// Package tuple defines the relation element representation used throughout
// the join system.
//
// Following the paper's data model (§5, "Data Generation"), every element of
// a relation consists of a 64-bit index, a 64-bit join attribute, and an
// n-byte data payload. The index and join attribute are materialised; the
// payload is *logical*: it contributes to memory accounting, wire-transfer
// time, and disk time, but its bytes are never allocated. This keeps
// 100M-tuple experiments within a single machine's memory while preserving
// every capacity- and bandwidth-driven behaviour of the algorithms.
package tuple

import "fmt"

// PhysicalSize is the number of materialised bytes per tuple (index + join
// attribute).
const PhysicalSize = 16

// DefaultPayload is the default logical payload size in bytes, chosen so the
// default logical tuple is 100 bytes, the smallest tuple size evaluated in
// the paper (Figure 7).
const DefaultPayload = 100 - PhysicalSize

// Tuple is one relation element. Key is the join attribute; Index identifies
// the element within its relation (useful for verifying join output).
type Tuple struct {
	Index uint64
	Key   uint64
}

// Relation labels which of the two join relations a tuple belongs to.
type Relation uint8

const (
	// RelR is the build relation: the hash table is constructed from R.
	RelR Relation = iota
	// RelS is the probe relation.
	RelS
)

// String implements fmt.Stringer.
func (r Relation) String() string {
	switch r {
	case RelR:
		return "R"
	case RelS:
		return "S"
	default:
		return fmt.Sprintf("Relation(%d)", uint8(r))
	}
}

// Layout describes the logical shape of a relation's tuples.
type Layout struct {
	// PayloadBytes is the size of the opaque data field carried by each
	// tuple. The logical tuple size is PhysicalSize + PayloadBytes.
	PayloadBytes int
}

// LogicalSize returns the full logical size of one tuple in bytes.
func (l Layout) LogicalSize() int { return PhysicalSize + l.PayloadBytes }

// DefaultLayout returns the layout for the paper's default 100-byte tuples.
func DefaultLayout() Layout { return Layout{PayloadBytes: DefaultPayload} }

// LayoutForTupleSize returns a layout whose logical tuple size is exactly
// size bytes. It panics if size is smaller than PhysicalSize, because the
// index and join attribute cannot be elided.
func LayoutForTupleSize(size int) Layout {
	if size < PhysicalSize {
		panic(fmt.Sprintf("tuple: tuple size %d smaller than physical minimum %d", size, PhysicalSize))
	}
	return Layout{PayloadBytes: size - PhysicalSize}
}

// The multipliers of MixPair, and the inverse of mixC1 modulo 2^64
// (mixC1·mixC1Inv = 1), which RunIndex needs.
const (
	mixC1    = 0x9E3779B97F4A7C15
	mixC2    = 0xC2B2AE3D27D4EB4F
	mixC3    = 0xFF51AFD7ED558CCD
	mixC1Inv = 0xF1DE83E19937733D
)

// MixPair hashes a (build index, probe index) match into a 64-bit word;
// XOR-accumulating these yields an order-independent result fingerprint.
// It is the one definition of the join's checksum: the table's probe
// kernel, the spill paths, the pipeline stages and the reference joins all
// fold through it.
func MixPair(buildIndex, probeIndex uint64) uint64 {
	x := buildIndex*mixC1 ^ probeIndex*mixC2
	x ^= x >> 33
	x *= mixC3
	x ^= x >> 29
	return x
}

// RunWord is the part of MixPair that depends on the build index alone:
// with m = buildIndex·C1 and k = probeIndex·C2, (m ^ k)>>33 = m>>33 ^ k>>33,
// so MixPair(b, p) = g(RunWord(b) ^ probeWord(p)) with g(y) = y·C3 ^
// (y·C3)>>29. A table stores each duplicate-run member as this word, so the
// fold pays one multiply per match. It is a bijection: RunIndex inverts it.
func RunWord(buildIndex uint64) uint64 {
	m := buildIndex * mixC1
	return m ^ m>>33
}

// RunIndex returns the build index whose RunWord is w: a 33-bit xor-shift
// undoes itself, and C1 is odd.
func RunIndex(w uint64) uint64 { return (w ^ w>>33) * mixC1Inv }

// probeWord is the part of MixPair that depends on the probe index alone,
// the counterpart of RunWord.
func probeWord(probeIndex uint64) uint64 {
	k := probeIndex * mixC2
	return k ^ k>>33
}

// MixRun returns the XOR of MixPair(RunIndex(w), probeIndex) over every w
// in words: one probe tuple's fold over the build tuples that share its
// key, stored as RunWords. On amd64 CPUs with AVX-512 (checked once, at
// package init) it folds sixteen words per vector step and leaves the last
// len(words)%16 to the pure-Go loop, which is the whole path everywhere
// else. Both compute MixPair's words exactly, and XOR does not depend on
// order, so the result is bit-identical on every path.
func MixRun(words []uint64, probeIndex uint64) uint64 {
	k := probeWord(probeIndex)
	n, x := mixRunVector(words, k)
	return x ^ mixRunGeneric(words[n:], k)
}

// MixRunKernel names the path MixRun takes for runs of 16 or more:
// "avx512" or "go".
func MixRunKernel() string { return mixRunKernel() }

// MixRunGeneric is MixRun on the pure-Go loop whatever the CPU: the path
// off amd64 and without AVX-512, and the reference the vector kernel is
// tested and benchmarked against.
func MixRunGeneric(words []uint64, probeIndex uint64) uint64 {
	return mixRunGeneric(words, probeWord(probeIndex))
}

// mixRunGeneric folds words against the probe word k, g(w ^ k) per word,
// four words per step: the four multiplies are independent.
func mixRunGeneric(words []uint64, k uint64) uint64 {
	var x uint64
	i := 0
	for ; i+4 <= len(words); i += 4 {
		w := words[i : i+4 : i+4]
		y0 := (w[0] ^ k) * mixC3
		y1 := (w[1] ^ k) * mixC3
		y2 := (w[2] ^ k) * mixC3
		y3 := (w[3] ^ k) * mixC3
		x ^= y0 ^ y0>>29 ^ y1 ^ y1>>29 ^ y2 ^ y2>>29 ^ y3 ^ y3>>29
	}
	for _, w := range words[i:] {
		y := (w ^ k) * mixC3
		x ^= y ^ y>>29
	}
	return x
}
