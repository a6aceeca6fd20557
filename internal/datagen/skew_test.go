package datagen

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// realizedTopMass generates n keys via keyAt and returns the mass fraction
// of the most frequent key plus that key.
func realizedTopMass(n int64, keyAt func(int64) uint64) (uint64, float64) {
	counts := make(map[uint64]int64, 1024)
	for i := int64(0); i < n; i++ {
		counts[keyAt(i)]++
	}
	var topKey uint64
	var topN int64
	for k, c := range counts {
		if c > topN || (c == topN && k < topKey) {
			topKey, topN = k, c
		}
	}
	return topKey, float64(topN) / float64(n)
}

// zipfTop1 computes the analytic top-1 mass fraction for exponent s over
// the generator's rank domain: 1 / sum_{r=1..zipfRanks} r^-s.
func zipfTop1(s float64) float64 {
	total := 0.0
	for r := 1; r <= zipfRanks; r++ {
		total += math.Pow(float64(r), -s)
	}
	return 1 / total
}

// TestZipfTopMass pins the realized top-1 key mass against the analytic
// inverse-CDF mass within sampling tolerance, across 3 seeds and both
// exponents the oracle matrix uses. With n = 200k the binomial standard
// error is < 0.0012, so a 0.01 tolerance is ~8 sigma.
func TestZipfTopMass(t *testing.T) {
	const n = 200_000
	for _, s := range []float64{1.1, 1.5} {
		want := zipfTop1(s)
		for seed := uint64(1); seed <= 3; seed++ {
			g, err := New(Spec{Dist: Zipf, ZipfS: s, Tuples: n, Seed: seed})
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			_, got := realizedTopMass(n, g.KeyAt)
			if math.Abs(got-want) > 0.01 {
				t.Errorf("s=%v seed=%d: realized top-1 mass %.4f, want %.4f ± 0.01", s, seed, got, want)
			}
		}
	}
}

// TestZipfSeedsScatterKeys checks that differently seeded Zipf relations
// use unrelated key sets (rank scatter folds the seed in), and that the
// same seed reproduces the same top key.
func TestZipfSeedsScatterKeys(t *testing.T) {
	const n = 50_000
	spec := Spec{Dist: Zipf, ZipfS: 1.5, Tuples: n, Seed: 7}
	g1 := mustGen(t, spec)
	g2 := mustGen(t, spec)
	spec.Seed = 8
	g3 := mustGen(t, spec)
	k1, _ := realizedTopMass(n, g1.KeyAt)
	k2, _ := realizedTopMass(n, g2.KeyAt)
	k3, _ := realizedTopMass(n, g3.KeyAt)
	if k1 != k2 {
		t.Errorf("same seed produced different top keys: %#x vs %#x", k1, k2)
	}
	if k1 == k3 {
		t.Errorf("seeds 7 and 8 share top key %#x; rank scatter should fold the seed in", k1)
	}
}

// TestCorrelatedMirrorsBuild checks that a Correlated probe relation only
// emits keys the build relation realized, and that the build's top key is
// probe-side heavy with (statistically) the same mass fraction.
func TestCorrelatedMirrorsBuild(t *testing.T) {
	const n = 100_000
	for seed := uint64(1); seed <= 3; seed++ {
		build := mustGen(t, Spec{Dist: Zipf, ZipfS: 1.5, Tuples: n, Seed: seed})
		probe, err := NewProbe(Spec{Dist: Correlated, Tuples: n, Seed: seed + 100}, build, 0)
		if err != nil {
			t.Fatalf("NewProbe: %v", err)
		}
		buildKeys := make(map[uint64]bool, 1024)
		for i := int64(0); i < n; i++ {
			buildKeys[build.KeyAt(i)] = true
		}
		for i := int64(0); i < n; i++ {
			if k := probe.KeyAt(i); !buildKeys[k] {
				t.Fatalf("seed %d: probe tuple %d key %#x not in build relation", seed, i, k)
			}
		}
		bTop, bMass := realizedTopMass(n, build.KeyAt)
		pTop, pMass := realizedTopMass(n, probe.KeyAt)
		if bTop != pTop {
			t.Errorf("seed %d: probe top key %#x != build top key %#x", seed, pTop, bTop)
		}
		if math.Abs(bMass-pMass) > 0.01 {
			t.Errorf("seed %d: probe top mass %.4f, build %.4f; correlated probe should mirror", seed, pMass, bMass)
		}
	}
}

// TestCorrelatedRequiresBuild pins the probe-only contract: New refuses a
// Correlated spec outright, and NewProbe refuses one without a build
// generator.
func TestCorrelatedRequiresBuild(t *testing.T) {
	spec := Spec{Dist: Correlated, Tuples: 10, Seed: 1}
	if _, err := New(spec); err == nil {
		t.Error("New accepted a Correlated spec; it is probe-only")
	}
	if _, err := NewProbe(spec, nil, 0); err == nil {
		t.Error("NewProbe accepted a Correlated spec without a build generator")
	}
	build := mustGen(t, Spec{Dist: Uniform, Tuples: 10, Seed: 1})
	if _, err := NewProbe(spec, build, 0); err != nil {
		t.Errorf("NewProbe rejected a valid Correlated spec: %v", err)
	}
	if _, err := NewLinked(spec, Spec{Dist: Uniform, Tuples: 10, Seed: 1}, 0, false); err == nil {
		t.Error("NewLinked accepted a Correlated spec; chains have no correlated semantics")
	}
	if _, err := NewLinked(Spec{Dist: Uniform, Tuples: 10, Seed: 1}, spec, 0, false); err == nil {
		t.Error("NewLinked accepted a Correlated upstream")
	}
}

// TestDistEnumExhaustive walks every defined Dist value and asserts that
// String and Validate both handle it explicitly — the default arms must
// only be reachable for values outside Dists().
func TestDistEnumExhaustive(t *testing.T) {
	dists := Dists()
	for i, d := range dists {
		if int(d) != i {
			t.Errorf("Dists()[%d] = %v; list must be in enum order", i, d)
		}
		if s := d.String(); strings.HasPrefix(s, "Dist(") {
			t.Errorf("Dist(%d).String() fell through to the default arm: %q", i, s)
		}
		spec := Spec{Dist: d, Tuples: 10, Seed: 1, Mean: 0.5, Sigma: 0.1, ZipfS: 1.2}
		if err := spec.Validate(); err != nil {
			t.Errorf("Validate rejected a well-formed %v spec: %v", d, err)
		}
		parsed, err := ParseDist(d.String())
		if err != nil || parsed != d {
			t.Errorf("ParseDist(%q) = %v, %v; want %v", d.String(), parsed, err, d)
		}
	}
	// A value beyond the enum must hit the default arms.
	bad := Dist(len(dists))
	if s := bad.String(); s != fmt.Sprintf("Dist(%d)", len(dists)) {
		t.Errorf("out-of-range Dist String = %q", s)
	}
	if err := (Spec{Dist: bad, Tuples: 10}).Validate(); err == nil {
		t.Error("Validate accepted an out-of-range Dist")
	}
	if _, err := ParseDist("nope"); err == nil {
		t.Error("ParseDist accepted an unknown name")
	}
}

// TestZipfValidation pins the parameter contract for the new dists.
func TestZipfValidation(t *testing.T) {
	if err := (Spec{Dist: Zipf, Tuples: 10}).Validate(); err == nil {
		t.Error("Validate accepted Zipf with zero exponent")
	}
	if err := (Spec{Dist: Zipf, ZipfS: -1, Tuples: 10}).Validate(); err == nil {
		t.Error("Validate accepted Zipf with negative exponent")
	}
	if err := (Spec{Dist: Zipf, ZipfS: 1.5, Tuples: 10}).Validate(); err != nil {
		t.Errorf("Validate rejected a valid Zipf spec: %v", err)
	}
}

// TestZipfGuideMatchesFullSearch: the guide table's bounded search draws
// the rank the full binary search over the CDF draws, for a million random
// u, at every guide boundary j/zipfGuide and its neighbours, and at every
// CDF value and its neighbours — every u in [0,1) where the answer changes.
func TestZipfGuideMatchesFullSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for _, s := range []float64{0.5, 1.1, 1.5, 3} {
		z := newZipfCDF(s)
		var us []float64
		for i := 0; i < 1_000_000; i++ {
			us = append(us, unit(rng.Uint64()))
		}
		near := func(u float64) {
			us = append(us, math.Nextafter(u, 0), u, math.Nextafter(u, 2))
		}
		for j := 0; j <= zipfGuide; j++ {
			near(float64(j) / zipfGuide)
		}
		for _, c := range z.cum {
			near(c)
		}
		checked := 0
		for _, u := range us {
			if u < 0 || u >= 1 {
				continue // outside unit's range
			}
			checked++
			if got, want := z.rank(u), sort.SearchFloat64s(z.cum, u); got != want {
				t.Fatalf("s=%v u=%v (%#x): guided rank %d, full search %d", s, u, math.Float64bits(u), got, want)
			}
		}
		if checked < 1_000_000+3*zipfRanks {
			t.Fatalf("s=%v: only %d u checked", s, checked)
		}
	}
}

// sinkKey keeps BenchmarkZipfKeyAt's keys observable.
var sinkKey uint64

// BenchmarkZipfKeyAt is the cost of one Zipf key: the rank draw and the
// rank's scatter.
func BenchmarkZipfKeyAt(b *testing.B) {
	g, err := New(Spec{Dist: Zipf, ZipfS: 1.1, Tuples: 1 << 20, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkKey ^= g.KeyAt(int64(i))
	}
}
