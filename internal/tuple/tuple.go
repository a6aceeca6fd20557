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

// MixPair hashes a (build index, probe index) match into a 64-bit word;
// XOR-accumulating these yields an order-independent result fingerprint.
// It is the one definition of the join's checksum: the table's probe
// kernel, the spill paths, the pipeline stages and the reference joins all
// fold through it.
func MixPair(buildIndex, probeIndex uint64) uint64 {
	x := buildIndex*0x9E3779B97F4A7C15 ^ probeIndex*0xC2B2AE3D27D4EB4F
	x ^= x >> 33
	x *= 0xFF51AFD7ED558CCD
	x ^= x >> 29
	return x
}

// MixRun returns the XOR of MixPair(b.Index, probeIndex) over every b in
// run: one probe tuple's fold over the build tuples that share its key. On
// amd64 CPUs with AVX-512 (checked once, at package init) it folds sixteen
// pairs per vector step and leaves the last len(run)%16 to the pure-Go
// loop, which is the whole path everywhere else. Both compute MixPair's
// words exactly, and XOR does not depend on order, so the result is
// bit-identical on every path.
func MixRun(run []Tuple, probeIndex uint64) uint64 {
	n, x := mixRunVector(run, probeIndex)
	return x ^ mixRunGeneric(run[n:], probeIndex)
}

// MixRunKernel names the path MixRun takes for runs of 16 or more:
// "avx512" or "go".
func MixRunKernel() string { return mixRunKernel() }

func mixRunGeneric(run []Tuple, probeIndex uint64) uint64 {
	var x uint64
	for _, b := range run {
		x ^= MixPair(b.Index, probeIndex)
	}
	return x
}
