package datagen

import (
	"fmt"
	"math/rand"
	"testing"

	"ehjoin/internal/tuple"
)

// filler is what the data sources call: a batch of tuples from lo on.
type filler interface {
	Fill(lo int64, dst []tuple.Tuple)
	At(i int64) tuple.Tuple
}

// fillLengths straddle the sources' 512-tuple sub-batch.
var fillLengths = []int{0, 1, 511, 512, 513}

// checkFill fills batches of every length at random offsets, over a
// buffer holding stale tuples, and checks each tuple against At.
func checkFill(t *testing.T, name string, g filler, rng *rand.Rand) {
	t.Helper()
	for _, n := range fillLengths {
		lo := rng.Int63n(1 << 20)
		dst := make([]tuple.Tuple, n)
		for k := range dst {
			dst[k] = tuple.Tuple{Index: ^uint64(0), Key: rng.Uint64()}
		}
		g.Fill(lo, dst)
		for k, got := range dst {
			if want := g.At(lo + int64(k)); got != want {
				t.Fatalf("%s: Fill(%d, [%d]) tuple %d = %+v, At(%d) = %+v", name, lo, n, k, got, lo+int64(k), want)
			}
		}
	}
}

var fillSpecs = []Spec{
	{Dist: Uniform, Tuples: 100_000, Seed: 11},
	{Dist: Gaussian, Mean: 0.5, Sigma: 0.001, Tuples: 100_000, Seed: 12},
	{Dist: Zipf, ZipfS: 1.1, Tuples: 100_000, Seed: 13},
}

// matchFractions covers no coin tossed, the per-tuple coin and the hoisted
// branch at 1.
var matchFractions = []float64{0, 0.37, 1}

func TestGenFillMatchesAt(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, spec := range fillSpecs {
		checkFill(t, spec.Dist.String(), mustGen(t, spec), rng)
	}
}

func TestProbeGenFillMatchesAt(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, bspec := range fillSpecs {
		build := mustGen(t, bspec)
		for _, pspec := range append(fillSpecs, Spec{Dist: Correlated}) {
			pspec.Tuples, pspec.Seed = 70_000, 21
			for _, q := range matchFractions {
				p, err := NewProbe(pspec, build, q)
				if err != nil {
					t.Fatal(err)
				}
				checkFill(t, fmt.Sprintf("build %v, probe %v, match %v", bspec.Dist, pspec.Dist, q), p, rng)
			}
		}
	}
}

func TestLinkedFillMatchesAt(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, up := range fillSpecs {
		spec := fillSpecs[(int(up.Dist)+1)%len(fillSpecs)]
		spec.Seed = 31
		for _, refChain := range []bool{false, true} {
			for _, q := range matchFractions {
				l, err := NewLinked(spec, up, q, refChain)
				if err != nil {
					t.Fatal(err)
				}
				checkFill(t, fmt.Sprintf("upstream %v, own %v, refChain %v, match %v", up.Dist, spec.Dist, refChain, q), l, rng)
			}
		}
	}
}
