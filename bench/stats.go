package bench

import (
	"math"
	"sort"
)

// Median returns the median of xs (the mean of the two middle values for an
// even count), or NaN for no samples. xs is not modified.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Quartiles returns the first and third quartiles of xs by the same rule as
// Python's statistics.quantiles(xs, n=4) (the default "exclusive" method),
// which is how run-to-run spreads are judged. It needs at least two samples;
// with fewer it returns NaN.
func Quartiles(xs []float64) (q1, q3 float64) {
	if len(xs) < 2 {
		return math.NaN(), math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	m := n + 1
	q := func(i int) float64 {
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// Spread is the distance between the quartiles of xs as a share of their
// median: the run-to-run noise a bound must exceed.
func Spread(xs []float64) float64 {
	q1, q3 := Quartiles(xs)
	return (q3 - q1) / math.Abs(Median(xs))
}

// percentile returns the p-th percentile (0-100) of xs, interpolating
// linearly between closest ranks, or NaN for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// tailPercentile returns the highest percentile of n samples that still has
// at least ten samples beyond it, in whole hundredths of a percent, or 0 when
// n < 10. A tail metric is only reported at a percentile this rule allows.
func tailPercentile(n int) float64 {
	if n < 10 {
		return 0
	}
	// Largest p with n*(1-p/100) >= 10, i.e. p <= 100*(1-10/n), rounded
	// down to 0.01 in integer arithmetic so the edge cases are exact.
	return float64(10000*(n-10)/n) / 100
}

// Better is the direction in which a metric improves.
type Better string

// The two directions BENCHMARK.json uses.
const (
	Lower  Better = "lower"
	Higher Better = "higher"
)

// Worse reports by what share of parent the value child is worse than it in
// direction b; a negative share means child is better.
func Worse(parent, child float64, b Better) float64 {
	d := (child - parent) / math.Abs(parent)
	if b == Higher {
		return -d
	}
	return d
}

// Regressed reports whether the median of child is worse than the median of
// parent by more than bound, a share of the parent's median.
func Regressed(parent, child []float64, b Better, bound float64) bool {
	return Worse(Median(parent), Median(child), b) > bound
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
