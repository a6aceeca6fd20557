package datagen

import (
	"fmt"

	"ehjoin/internal/tuple"
)

// Multi-way join support (the paper's §6 future work). A relation in a
// join chain R1 ⋈ R2 ⋈ ... ⋈ Rk carries two join attributes: the one it is
// probed/built on (KeyAt) and the one carried forward to the next join
// level (ChainKeyAt). Both are deterministic functions of (seed, index), so
// a join node that matches build tuple b can compute b's next-level join
// attribute from b.Index alone — intermediate results stay in memory and
// stream to the next stage without re-reading anything.

const chainSalt = 0x436861696E4B6579 // "ChainKey"

// ChainKeyAt returns the next-level join attribute of tuple i of the
// relation generated with the given seed.
func ChainKeyAt(seed uint64, i int64) uint64 {
	return splitmix64(seed ^ chainSalt ^ uint64(i)*0xE7037ED1A0B428DB)
}

// ChainKeyAt returns this relation's next-level join attribute for tuple i.
func (g *Gen) ChainKeyAt(i int64) uint64 { return ChainKeyAt(g.spec.Seed, i) }

// Linked generates a relation whose primary join attribute references an
// upstream relation in the chain: tuple i of a Linked relation joins with
// the upstream tuples whose referenced attribute equals its KeyAt.
// MatchFraction plays the same role as in ProbeGen.
type Linked struct {
	spec          Spec
	upstream      Spec
	own           *Gen // this relation's own distribution (prebuilt: Zipf needs its table)
	up            *Gen // upstream's primary-attribute generator
	matchFraction float64
	// refChain selects which upstream attribute is referenced: the
	// next-level (chain) attribute for interior chain relations, or the
	// primary attribute for the relation joined directly with the chain
	// root.
	refChain bool
}

// NewLinked returns a generator for a relation at the next join level.
// Correlated is probe-only and has no chain semantics, so it is rejected
// for both the relation itself and its upstream.
func NewLinked(spec, upstream Spec, matchFraction float64, refChain bool) (*Linked, error) {
	if matchFraction < 0 || matchFraction > 1 {
		return nil, fmt.Errorf("datagen: match fraction %v outside [0,1]", matchFraction)
	}
	own, err := New(spec)
	if err != nil {
		return nil, err
	}
	up, err := New(upstream)
	if err != nil {
		return nil, fmt.Errorf("datagen: upstream: %w", err)
	}
	return &Linked{
		spec:          spec,
		upstream:      upstream,
		own:           own,
		up:            up,
		matchFraction: matchFraction,
		refChain:      refChain,
	}, nil
}

// Spec returns the relation description.
func (l *Linked) Spec() Spec { return l.spec }

// KeyAt returns the primary join attribute of tuple i: with probability
// MatchFraction it references a pseudorandom upstream tuple's attribute,
// otherwise it is drawn from this relation's own distribution.
func (l *Linked) KeyAt(i int64) uint64 {
	if l.matchFraction > 0 {
		coin := unit(splitmix64(l.spec.Seed ^ 0x4C696E6B ^ uint64(i)*0xA24BAED4963EE407))
		if coin < l.matchFraction {
			j := int64(splitmix64(l.spec.Seed^0x5570526566^uint64(i)*0x9FB21C651E98DF25) % uint64(l.upstream.Tuples))
			if l.refChain {
				return ChainKeyAt(l.upstream.Seed, j)
			}
			return l.up.KeyAt(j)
		}
	}
	return l.own.KeyAt(i)
}

// ChainKeyAt returns tuple i's next-level join attribute.
func (l *Linked) ChainKeyAt(i int64) uint64 { return ChainKeyAt(l.spec.Seed, i) }

// At returns tuple i.
func (l *Linked) At(i int64) tuple.Tuple {
	return tuple.Tuple{Index: uint64(i), Key: l.KeyAt(i)}
}

// Fill writes tuples lo, lo+1, ... into dst, each equal to At's.
func (l *Linked) Fill(lo int64, dst []tuple.Tuple) {
	for k := range dst {
		dst[k] = l.At(lo + int64(k))
	}
}
