// Package datagen produces the synthetic relations used in the paper's
// evaluation (§5, "Data Generation"): tuples with a 64-bit index, a 64-bit
// join attribute drawn from a Uniform, Gaussian (value-locality skew,
// user-specified mean and standard deviation), Zipf (key-duplication
// skew, rank-frequency r^-s), or Correlated (probe keys mirroring the
// build relation's realized distribution) distribution, and an n-byte
// payload.
//
// Generation is counter-based and deterministic: tuple i of a relation is a
// pure function of (seed, i). This mirrors the paper's setup, where the
// relations are "generated on-the-fly on multiple nodes as the join
// operation progressed" — any data source can generate any contiguous slice
// of a relation without coordination, and the probe relation can
// deterministically reference build-relation keys so join output is exactly
// verifiable.
package datagen

import (
	"fmt"
	"math"
	"sort"

	"ehjoin/internal/tuple"
)

// Dist selects the join-attribute value distribution.
type Dist uint8

const (
	// Uniform draws join attributes uniformly over the full 64-bit domain.
	Uniform Dist = iota
	// Gaussian draws join attributes from a normal distribution over the
	// unit interval (scaled to 64 bits), clamped at the domain edges. The
	// paper uses sigma = 0.001 for moderate and 0.0001 for extreme skew.
	Gaussian
	// Zipf draws join attributes rank-frequency distributed: rank r is
	// drawn with probability proportional to r^-s (s = Spec.ZipfS) over
	// zipfRanks ranks, and each rank is scattered to a pseudorandom
	// 64-bit key, so heavy keys land on unrelated routing positions. This
	// is the key-duplication skew (a few keys carry most of the mass)
	// that defeats equal-mass range cuts, as opposed to Gaussian's
	// value-locality skew.
	Zipf
	// Correlated is probe-only: probe tuple keys are drawn uniformly from
	// the build relation's realized tuples, so the probe key-frequency
	// distribution mirrors whatever the build relation produced (a
	// build-side heavy hitter is probe-side heavy with the same mass
	// fraction). Requires a build generator; Spec.Mean/Sigma/ZipfS are
	// ignored.
	Correlated
)

// Dists returns every defined distribution, in enum order. Exhaustiveness
// tests iterate this so a new Dist value cannot be added without also
// extending String and Validate.
func Dists() []Dist { return []Dist{Uniform, Gaussian, Zipf, Correlated} }

// String implements fmt.Stringer.
func (d Dist) String() string {
	switch d {
	case Uniform:
		return "uniform"
	case Gaussian:
		return "gaussian"
	case Zipf:
		return "zipf"
	case Correlated:
		return "correlated"
	default:
		return fmt.Sprintf("Dist(%d)", uint8(d))
	}
}

// ParseDist maps a command-line distribution name to its Dist value.
func ParseDist(name string) (Dist, error) {
	for _, d := range Dists() {
		if d.String() == name {
			return d, nil
		}
	}
	return 0, fmt.Errorf("datagen: unknown distribution %q (want uniform|gaussian|zipf|correlated)", name)
}

// Spec describes one relation.
type Spec struct {
	Dist   Dist
	Mean   float64 // Gaussian mean in [0,1); the paper's experiments centre the distribution
	Sigma  float64 // Gaussian standard deviation in unit-interval terms
	ZipfS  float64 // Zipf exponent s > 0; rank r has mass proportional to r^-s
	Tuples int64   // relation cardinality
	Seed   uint64  // generation seed; relations with equal seeds and specs are identical
	Layout tuple.Layout
}

// Validate reports whether the spec is usable.
func (s Spec) Validate() error {
	if s.Tuples <= 0 {
		return fmt.Errorf("datagen: relation needs at least one tuple, got %d", s.Tuples)
	}
	switch s.Dist {
	case Uniform:
	case Gaussian:
		if s.Mean < 0 || s.Mean >= 1 {
			return fmt.Errorf("datagen: gaussian mean %v outside [0,1)", s.Mean)
		}
		if s.Sigma <= 0 {
			return fmt.Errorf("datagen: gaussian sigma %v must be positive", s.Sigma)
		}
	case Zipf:
		if s.ZipfS <= 0 {
			return fmt.Errorf("datagen: zipf exponent %v must be positive", s.ZipfS)
		}
	case Correlated:
		// Probe-only; the referenced build relation supplies the shape.
	default:
		return fmt.Errorf("datagen: unknown distribution Dist(%d)", uint8(s.Dist))
	}
	return nil
}

// splitmix64 is the SplitMix64 output function: a bijective 64-bit mixer
// with excellent avalanche behaviour, suitable as a counter-based PRNG.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// unit converts a 64-bit random word to a float in [0,1).
func unit(x uint64) float64 {
	return float64(x>>11) / float64(1<<53)
}

// maxUnit is the largest representable value strictly below 1.0 used when
// clamping Gaussian samples to the key domain.
const maxUnit = 1 - 1.0/(1<<53)

// zipfRanks is the inverse-CDF table size: the key domain of a Zipf
// relation. Fixed so generation stays a pure function of (seed, i)
// independent of relation cardinality, and small enough that the table
// builds in microseconds. The neglected tail beyond rank 65536 carries
// < 1% of the mass for any s > 1.
const zipfRanks = 65536

// zipfGuide is the number of equal slices of [0,1) the guide table over
// the rank CDF cuts: a power of two, so u·zipfGuide is exact.
const zipfGuide = 1 << 14

// zipfCDF is the inverse-CDF table of one exponent: cum[r] is the
// probability of drawing a rank <= r, with cum[zipfRanks-1] pinned to 1,
// and guide[j] is the rank drawn at u = j/zipfGuide.
type zipfCDF struct {
	cum   []float64
	guide []uint16 // zipfGuide+1 entries; a rank < zipfRanks fits
}

// newZipfCDF builds the tables for exponent s.
func newZipfCDF(s float64) *zipfCDF {
	cum := make([]float64, zipfRanks)
	total := 0.0
	for r := 0; r < zipfRanks; r++ {
		total += math.Pow(float64(r+1), -s)
		cum[r] = total
	}
	for r := range cum {
		cum[r] /= total
	}
	cum[zipfRanks-1] = 1
	guide := make([]uint16, zipfGuide+1)
	for j := range guide {
		guide[j] = uint16(sort.SearchFloat64s(cum, float64(j)/zipfGuide))
	}
	return &zipfCDF{cum: cum, guide: guide}
}

// rank returns the rank drawn at u in [0,1): the first r with cum[r] >= u,
// as sort.SearchFloat64s over all of cum finds it. With j = ⌊u·zipfGuide⌋,
// j/zipfGuide <= u < (j+1)/zipfGuide, and the rank is monotone in u, so it
// lies in [guide[j], guide[j+1]] — a range that ends inside cum, because
// cum ends at 1.
func (z *zipfCDF) rank(u float64) int {
	j := int(u * zipfGuide)
	lo, hi := int(z.guide[j]), int(z.guide[j+1])
	return lo + sort.SearchFloat64s(z.cum[lo:hi+1], u)
}

// zipfKey scatters rank r to its 64-bit join attribute. splitmix64 is
// bijective, so distinct ranks of one relation never collide, and the
// seed folds in so differently seeded relations use unrelated key sets
// (mirroring Uniform).
func zipfKey(seed uint64, r int) uint64 {
	return splitmix64(seed ^ 0x5A6970664B657973 ^ uint64(r)*0xD6E8FEB86659FD93)
}

// Gen generates one relation deterministically.
type Gen struct {
	spec Spec
	zipf *zipfCDF // built once in New (Zipf only)
}

// New returns a generator for the relation described by spec.
func New(spec Spec) (*Gen, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.Dist == Correlated {
		return nil, fmt.Errorf("datagen: correlated is a probe-only distribution (use NewProbe with a build generator)")
	}
	g := &Gen{spec: spec}
	if spec.Dist == Zipf {
		g.zipf = newZipfCDF(spec.ZipfS)
	}
	return g, nil
}

// Spec returns the generator's relation description.
func (g *Gen) Spec() Spec { return g.spec }

// KeyAt returns the join attribute of tuple i.
func (g *Gen) KeyAt(i int64) uint64 {
	switch g.spec.Dist {
	case Gaussian:
		return g.gaussianKey(i)
	case Zipf:
		return g.zipfKeyAt(i)
	default: // Uniform
		return uniformKey(g.spec.Seed, i)
	}
}

func uniformKey(seed uint64, i int64) uint64 {
	return splitmix64(seed ^ uint64(i)*0x9E3779B97F4A7C15)
}

func (g *Gen) gaussianKey(i int64) uint64 {
	u1 := unit(splitmix64(g.spec.Seed ^ uint64(2*i)*0xD1B54A32D192ED03))
	u2 := unit(splitmix64(g.spec.Seed ^ uint64(2*i+1)*0x8CB92BA72F3D8DD7))
	if u1 < 1e-300 {
		u1 = 1e-300
	}
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	v := g.spec.Mean + g.spec.Sigma*z
	if v < 0 {
		v = 0
	} else if v > maxUnit {
		v = maxUnit
	}
	return uint64(v * float64(1<<32) * float64(1<<32))
}

func (g *Gen) zipfKeyAt(i int64) uint64 {
	u := unit(splitmix64(g.spec.Seed ^ 0x5A69706644726177 ^ uint64(i)*0xE7037ED1A0B428DB))
	return zipfKey(g.spec.Seed, g.zipf.rank(u))
}

// keyAll replaces each dst[k].Key, which holds a tuple index of g's
// relation on entry, with that tuple's join attribute: KeyAt over a batch,
// with the distribution switch taken once.
func (g *Gen) keyAll(dst []tuple.Tuple) {
	switch g.spec.Dist {
	case Gaussian:
		for k := range dst {
			dst[k].Key = g.gaussianKey(int64(dst[k].Key))
		}
	case Zipf:
		for k := range dst {
			dst[k].Key = g.zipfKeyAt(int64(dst[k].Key))
		}
	default: // Uniform
		for k := range dst {
			dst[k].Key = uniformKey(g.spec.Seed, int64(dst[k].Key))
		}
	}
}

// At returns tuple i of the relation.
func (g *Gen) At(i int64) tuple.Tuple {
	return tuple.Tuple{Index: uint64(i), Key: g.KeyAt(i)}
}

// Fill writes tuples lo, lo+1, ... of the relation into dst, each equal to
// At's: one pass lays out the indexes, a second keys them all under one
// distribution switch.
func (g *Gen) Fill(lo int64, dst []tuple.Tuple) {
	for k := range dst {
		i := uint64(lo) + uint64(k)
		dst[k] = tuple.Tuple{Index: i, Key: i}
	}
	g.keyAll(dst)
}

// ProbeGen generates the probe relation. With MatchFraction q, tuple i of S
// takes its join attribute from a pseudorandomly chosen build tuple with
// probability q and from S's own distribution otherwise. q=1 yields a
// foreign-key-style workload in which every probe tuple has at least one
// build match; q=0 reproduces the paper's fully independent generation.
type ProbeGen struct {
	spec          Spec
	build         *Gen
	own           *Gen // S's own distribution (nil for Correlated: build supplies every key)
	matchFraction float64
}

// NewProbe returns a probe-relation generator referencing build.
func NewProbe(spec Spec, build *Gen, matchFraction float64) (*ProbeGen, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if matchFraction < 0 || matchFraction > 1 {
		return nil, fmt.Errorf("datagen: match fraction %v outside [0,1]", matchFraction)
	}
	if matchFraction > 0 && build == nil {
		return nil, fmt.Errorf("datagen: match fraction %v requires a build generator", matchFraction)
	}
	p := &ProbeGen{spec: spec, build: build, matchFraction: matchFraction}
	if spec.Dist == Correlated {
		if build == nil {
			return nil, fmt.Errorf("datagen: correlated probe relation requires a build generator")
		}
	} else {
		own, err := New(spec)
		if err != nil {
			return nil, err
		}
		p.own = own
	}
	return p, nil
}

// Spec returns the probe relation description.
func (p *ProbeGen) Spec() Spec { return p.spec }

// KeyAt returns the join attribute of probe tuple i.
func (p *ProbeGen) KeyAt(i int64) uint64 {
	if p.matchFraction > 0 {
		coin := unit(splitmix64(p.spec.Seed ^ 0x4D61746368 ^ uint64(i)*0xA24BAED4963EE407))
		if coin < p.matchFraction {
			return p.build.KeyAt(p.matchRef(i))
		}
	}
	if p.spec.Dist == Correlated {
		j := int64(splitmix64(p.spec.Seed^0x436F72724472696E^uint64(i)*0xC2B2AE3D27D4EB4F) % uint64(p.build.spec.Tuples))
		return p.build.KeyAt(j)
	}
	return p.own.KeyAt(i)
}

// matchRef is the build tuple a matching probe tuple i takes its key from.
func (p *ProbeGen) matchRef(i int64) int64 {
	return int64(splitmix64(p.spec.Seed^0x5265664B6579^uint64(i)*0x9FB21C651E98DF25) % uint64(p.build.spec.Tuples))
}

// At returns probe tuple i.
func (p *ProbeGen) At(i int64) tuple.Tuple {
	return tuple.Tuple{Index: uint64(i), Key: p.KeyAt(i)}
}

// Fill writes probe tuples lo, lo+1, ... into dst, each equal to At's. At
// match fraction 1, the one the command lines run, every coin lands (unit
// is below 1), so the batch takes its build references in one pass and is
// keyed in a second; any other fraction tosses each tuple's coin in At.
func (p *ProbeGen) Fill(lo int64, dst []tuple.Tuple) {
	if p.matchFraction != 1 {
		for k := range dst {
			dst[k] = p.At(lo + int64(k))
		}
		return
	}
	for k := range dst {
		i := lo + int64(k)
		dst[k] = tuple.Tuple{Index: uint64(i), Key: uint64(p.matchRef(i))}
	}
	p.build.keyAll(dst)
}

// Slice describes the contiguous block of a relation generated by one data
// source: indices [Lo, Hi).
type Slice struct {
	Lo, Hi int64
}

// SliceFor partitions n tuples across numSources sources and returns the
// block for source s. Blocks are contiguous and cover the relation exactly.
func SliceFor(n int64, numSources, s int) Slice {
	return Slice{
		Lo: int64(s) * n / int64(numSources),
		Hi: int64(s+1) * n / int64(numSources),
	}
}
