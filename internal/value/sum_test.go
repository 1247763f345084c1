package value

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// ratSum is the correctly rounded sum of xs: the exact sum of the finite
// terms as a big.Rat, rounded once, unless a non-finite term decides it.
func ratSum(xs []float64) float64 {
	var pinf, ninf, nan bool
	r := new(big.Rat)
	for _, x := range xs {
		switch {
		case math.IsNaN(x):
			nan = true
		case math.IsInf(x, 1):
			pinf = true
		case math.IsInf(x, -1):
			ninf = true
		default:
			r.Add(r, new(big.Rat).SetFloat64(x))
		}
	}
	switch {
	case nan || pinf && ninf:
		return math.NaN()
	case pinf:
		return math.Inf(1)
	case ninf:
		return math.Inf(-1)
	}
	f, _ := r.Float64()
	return f
}

func sumOf(xs []float64) float64 {
	var s RealSum
	for _, x := range xs {
		s.Add(x)
	}
	return s.Float64()
}

func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// term draws one summand: ordinary reals over a wide exponent range, the
// decimals no float64 holds exactly, magnitudes that cancel, subnormals, ±0,
// terms near the top of the range whose sums overflow, and (rarely) ±Inf and
// NaN.
func term(rng *rand.Rand, special bool) float64 {
	switch rng.Intn(12) {
	case 0:
		return []float64{0.1, 1e16, -1e16, 1e-16, 0.5, 2.5}[rng.Intn(6)]
	case 1:
		return math.SmallestNonzeroFloat64 * float64(rng.Intn(1<<20)-1<<19)
	case 2:
		return math.Copysign(0, -1)
	case 3:
		return (rng.Float64()*2 - 1) * math.MaxFloat64
	case 4:
		return math.Ldexp(rng.Float64()*2-1, rng.Intn(2100)-1074)
	case 5:
		if special {
			return []float64{math.Inf(1), math.Inf(-1), math.NaN()}[rng.Intn(3)]
		}
		return 0
	default:
		return math.Ldexp(rng.Float64()*2-1, rng.Intn(120)-60)
	}
}

// TestRealSumMatchesRat: over random multisets of terms, the accumulator reads
// the correctly rounded sum, the same bits in every order and however the
// terms are split into partial sums, compacted or not, merged in any order.
func TestRealSumMatchesRat(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := range 4000 {
		n := rng.Intn(40)
		xs := make([]float64, n)
		special := trial%10 == 0
		for i := range xs {
			xs[i] = term(rng, special)
		}
		want := ratSum(xs)
		if got := sumOf(xs); !sameBits(got, want) {
			t.Fatalf("trial %d: sum of %v = %v (%#x), want %v (%#x)", trial, xs, got, math.Float64bits(got), want, math.Float64bits(want))
		}
		perm := make([]float64, n)
		for i, j := range rng.Perm(n) {
			perm[i] = xs[j]
		}
		if got := sumOf(perm); !sameBits(got, want) {
			t.Fatalf("trial %d: permuted sum of %v = %v, want %v", trial, perm, got, want)
		}
		// Split into up to 5 runs, sum each apart, merge in a random order
		// (a merged sum may itself be merged again).
		k := 1 + rng.Intn(5)
		parts := make([]*RealSum, k)
		for i := range parts {
			parts[i] = &RealSum{}
		}
		for _, x := range perm {
			parts[rng.Intn(k)].Add(x)
		}
		for len(parts) > 1 {
			i, j := rng.Intn(len(parts)), rng.Intn(len(parts)-1)
			if j >= i {
				j++
			}
			c := parts[j].Clone()
			if rng.Intn(2) == 0 {
				c.Compact() // as a shipped partial is
				if got := c.Float64(); !sameBits(got, parts[j].Float64()) {
					t.Fatalf("trial %d: compacted partial reads %v, %v before", trial, got, parts[j].Float64())
				}
			}
			parts[i].Merge(&c)
			parts = append(parts[:j], parts[j+1:]...)
		}
		if got := parts[0].Float64(); !sameBits(got, want) {
			t.Fatalf("trial %d: split-and-merged sum of %v = %v, want %v", trial, xs, got, want)
		}
	}
}

func TestRealSumCases(t *testing.T) {
	top := math.MaxFloat64
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{math.Copysign(0, -1)}, 0},
		{[]float64{0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1}, 1},
		{[]float64{1e16, 1, -1e16}, 1},
		{[]float64{1e-16, 1, 1e16}, 10000000000000002}, // half-even across partials
		{[]float64{top, top, -top}, top},               // intermediate overflow
		{[]float64{top, top}, math.Inf(1)},
		{[]float64{-top, -top, top, 1}, -top},
		{[]float64{math.Inf(1), 1, math.Inf(1)}, math.Inf(1)},
		{[]float64{math.Inf(1), math.Inf(-1)}, math.NaN()},
		{[]float64{math.NaN(), 1}, math.NaN()},
		{[]float64{math.SmallestNonzeroFloat64, math.SmallestNonzeroFloat64}, 2 * math.SmallestNonzeroFloat64},
		{[]float64{1.5, 2.0}, 3.5},
	} {
		if got := sumOf(c.xs); !sameBits(got, c.want) {
			t.Errorf("sum of %v = %v, want %v", c.xs, got, c.want)
		}
		if got := ratSum(c.xs); !sameBits(got, c.want) {
			t.Errorf("reference sum of %v = %v, want %v", c.xs, got, c.want)
		}
	}
}

// TestRealSumAddAllocs: adding to a reused accumulator boxes nothing.
func TestRealSumAddAllocs(t *testing.T) {
	var s RealSum
	xs := []float64{0.1, 1e16, 2.5, -1e16, 1e-16, 7.25}
	for _, x := range xs {
		s.Add(x)
	}
	if a := testing.AllocsPerRun(100, func() {
		s.Reset()
		for _, x := range xs {
			s.Add(x)
		}
		_ = s.Float64()
	}); a != 0 {
		t.Fatalf("%v allocations per reused sum, want 0", a)
	}
}
