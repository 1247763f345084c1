package value

import (
	"math"
	"math/big"
	"slices"
)

// RealSum is the exact sum of float64 terms, rounded to the nearest float64
// (ties to even) only when read. It is the accumulator of every real sum —
// each real Γ+ column and nrc.Eval's sumBy — so a sum has the same bits
// whatever order its terms arrive in and however they were split into partial
// sums and merged: a local reduce, an exchanged one and a combined one agree,
// over any partition count.
//
// The finite terms are held as non-overlapping partials in increasing
// magnitude (Shewchuk's algorithm, as Python's math.fsum), every partial under
// 2^1023 in magnitude: multiples of 2^1023 are taken out into over, so no
// intermediate sum overflows. Infinities and NaNs are summed apart (+Inf and
// -Inf make NaN, a NaN stays NaN) and decide the result when there are any.
// An exact zero reads as +0.
//
// Add allocates only to grow the partials, which a reused accumulator (Reset)
// soon stops doing; the zero value is an empty sum.
type RealSum struct {
	p       []float64
	over    int64   // multiples of 2^1023 taken out of the partials
	scaled  bool    // some were taken out: the partials may be out of order
	special float64 // sum of the non-finite terms; 0 when there are none
}

const (
	two1022 = 0x1p1022
	two1023 = 0x1p1023
)

// Reset empties the sum, keeping the room its partials have.
func (s *RealSum) Reset() {
	*s = RealSum{p: s.p[:0]}
}

// Add adds x exactly.
func (s *RealSum) Add(x float64) {
	if math.IsInf(x, 0) || math.IsNaN(x) {
		s.special += x
		return
	}
	if math.Abs(x) >= two1023 {
		x = s.take(x)
	}
	i := 0
	for _, y := range s.p {
		if math.Abs(x) < math.Abs(y) {
			x, y = y, x
		}
		hi := x + y // finite: both are under 2^1023
		lo := y - (hi - x)
		if lo != 0 {
			s.p[i] = lo
			i++
		}
		x = hi
		if math.Abs(x) >= two1023 {
			x = s.take(x)
		}
	}
	s.p = s.p[:i]
	if x != 0 {
		s.p = append(s.p, x)
	}
}

// take moves 2^1023 of x's sign into over and returns what is left of x,
// which is exact for 2^1023 <= |x| < 2^1024.
func (s *RealSum) take(x float64) float64 {
	s.scaled = true
	if x > 0 {
		s.over++
		return x - two1023
	}
	s.over--
	return x + two1023
}

// Merge adds the sum o exactly; o is left as it is.
func (s *RealSum) Merge(o *RealSum) {
	for _, y := range o.p {
		s.Add(y)
	}
	s.over += o.over
	s.scaled = s.scaled || o.scaled
	s.special += o.special
}

// Clone returns a copy that shares nothing with s.
func (s *RealSum) Clone() RealSum {
	c := *s
	c.p = slices.Clone(s.p)
	return c
}

// Compact rewrites three or more partials as the fewest that the greedy
// expansion needs for the same exact sum: the sum rounded, then what that
// leaves rounded, and so on, in increasing magnitude again. A partial sum is
// compacted before it ships, so it crosses the exchange in about as few
// 8-byte partials as its bits need (two partials stay two: they compact to
// one only when their sum is exact).
func (s *RealSum) Compact() {
	if len(s.p) < 3 || s.scaled || s.special != 0 || math.Abs(s.p[len(s.p)-1]) >= two1022 {
		return
	}
	var restBuf, outBuf [8]float64
	rest := RealSum{p: append(restBuf[:0], s.p...)}
	out := outBuf[:0]
	for len(rest.p) > 0 {
		hi := rest.Float64()
		out = append(out, hi)
		rest.Add(-hi)
	}
	s.p = s.p[:0]
	for i := len(out) - 1; i >= 0; i-- {
		s.p = append(s.p, out[i])
	}
}

// Float64 is the sum rounded once to the nearest float64, ties to even; ±Inf
// past the largest float64, and +0 for an exact zero.
func (s *RealSum) Float64() float64 {
	if s.special != 0 {
		return s.special
	}
	n := len(s.p)
	if n == 0 {
		return 0
	}
	if s.scaled || math.Abs(s.p[n-1]) >= two1022 {
		// The sum may be near or past the float64 range, or its partials out
		// of order: round it through an exact rational. Only sums of terms
		// near 1e308 come here.
		r, t := new(big.Rat), new(big.Rat)
		for _, y := range s.p {
			r.Add(r, t.SetFloat64(y))
		}
		if s.over != 0 {
			r.Add(r, t.Mul(t.SetInt64(s.over), new(big.Rat).SetFloat64(two1023)))
		}
		f, _ := r.Float64()
		return f
	}
	// Add the partials from the top down while that stays exact, then round
	// half to even across the partial below the first inexact step (the
	// final step of Python's math.fsum).
	hi := s.p[n-1]
	n--
	var lo float64
	for n > 0 {
		x, y := hi, s.p[n-1]
		n--
		hi = x + y
		lo = y - (hi - x)
		if lo != 0 {
			break
		}
	}
	if n > 0 && (lo < 0 && s.p[n-1] < 0 || lo > 0 && s.p[n-1] > 0) {
		y := lo * 2
		x := hi + y
		if y == x-hi {
			hi = x
		}
	}
	return hi
}

// Size is the sum's metered size as a cell in flight: 8 bytes per partial
// and a 4-byte count, as for a bag of reals, plus 8 for the taken-out
// multiples and 8 for the non-finite terms when it holds any.
func (s *RealSum) Size() int64 {
	n := int64(4 + 8*len(s.p))
	if s.over != 0 {
		n += 8
	}
	if s.special != 0 {
		n += 8
	}
	return n
}
