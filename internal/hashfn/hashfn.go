// Package hashfn implements the hash-address machinery of the join system:
// the hash-table position space, the function mapping join attributes to
// positions, and the routing tables that map contiguous position ranges to
// join nodes.
//
// The paper treats the hash table as an array of positions whose *range* is
// partitioned into buckets, one bucket per join node (Figure 1); splitting
// and reshuffling both subdivide contiguous sub-ranges. A key's position is
// therefore order-preserving — the top bits of the join attribute — so a
// skewed attribute distribution produces clustered positions, which is the
// regime the paper's skew experiments exercise.
package hashfn

import "fmt"

// Space is the hash-table position space: positions are integers in
// [0, 1<<Bits).
type Space struct {
	// Bits is the log2 of the number of hash-table positions.
	Bits uint
}

// DefaultBits yields 65 536 positions, enough to subdivide across hundreds
// of nodes while keeping per-range histograms (used by reshuffling) small.
const DefaultBits = 16

// DefaultSpace returns the space used throughout the experiments.
func DefaultSpace() Space { return Space{Bits: DefaultBits} }

// Positions returns the number of positions in the space.
func (s Space) Positions() int { return 1 << s.Bits }

// PositionOf maps a join-attribute value to a hash-table position: its
// top Bits bits, preserving the ordering (and therefore any skew) of the
// key distribution.
func (s Space) PositionOf(key uint64) int { return int(key >> (64 - s.Bits)) }

// Validate reports whether the space is usable.
func (s Space) Validate() error {
	if s.Bits == 0 || s.Bits > 30 {
		return fmt.Errorf("hashfn: space bits %d out of range [1,30]", s.Bits)
	}
	return nil
}

// Range is a half-open interval [Lo, Hi) of hash-table positions.
type Range struct {
	Lo, Hi int
}

// Contains reports whether position p falls in the range.
func (r Range) Contains(p int) bool { return p >= r.Lo && p < r.Hi }

// Width returns the number of positions covered.
func (r Range) Width() int { return r.Hi - r.Lo }

// Halves cuts the range at its midpoint, returning the lower and upper
// halves. The caller must ensure Width() >= 2.
func (r Range) Halves() (lower, upper Range) {
	mid := r.Lo + r.Width()/2
	return Range{r.Lo, mid}, Range{mid, r.Hi}
}

// String implements fmt.Stringer.
func (r Range) String() string { return fmt.Sprintf("[%d,%d)", r.Lo, r.Hi) }
