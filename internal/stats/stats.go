// Package stats provides the small statistical toolkit used throughout the
// simulator: streaming summaries, geometric means, Jaccard set commonality,
// percentiles, and percentage helpers.
//
// Everything in this package is deterministic and allocation-conscious; the
// experiment runners lean on it to aggregate per-invocation measurements into
// the rows the paper's figures report.
package stats

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
)

// Summary accumulates a stream of float64 observations and reports basic
// descriptive statistics. The zero value is ready to use.
type Summary struct {
	n    int
	sum  float64
	sumq float64
	min  float64
	max  float64
}

// Add records one observation.
func (s *Summary) Add(v float64) {
	if s.n == 0 || v < s.min {
		s.min = v
	}
	if s.n == 0 || v > s.max {
		s.max = v
	}
	s.n++
	// float64(...) rounds v and its square, so a product a caller passes in
	// (inlined) cannot fuse into either add (make fmagate).
	s.sum += float64(v)
	s.sumq += float64(v * v)
}

// N reports the number of observations recorded so far.
func (s *Summary) N() int { return s.n }

// Mean reports the arithmetic mean, or 0 if no observations were recorded.
func (s *Summary) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.sum / float64(s.n)
}

// Min reports the smallest observation, or 0 if none were recorded.
func (s *Summary) Min() float64 { return s.min }

// Max reports the largest observation, or 0 if none were recorded.
func (s *Summary) Max() float64 { return s.max }

// Sum reports the sum of all observations.
func (s *Summary) Sum() float64 { return s.sum }

// Variance reports the population variance.
func (s *Summary) Variance() float64 {
	if s.n == 0 {
		return 0
	}
	m := s.Mean()
	// float64(...) rounds the square, so it cannot fuse into the subtract (make fmagate).
	v := s.sumq/float64(s.n) - float64(m*m)
	if v < 0 { // numerical noise
		return 0
	}
	return v
}

// StdDev reports the population standard deviation.
func (s *Summary) StdDev() float64 { return math.Sqrt(s.Variance()) }

// String renders "mean [min, max] (n=N)".
func (s *Summary) String() string {
	return fmt.Sprintf("%.4g [%.4g, %.4g] (n=%d)", s.Mean(), s.min, s.max, s.n)
}

// summaryGobLen is the size of a Summary's gob form: the count and four
// float64s, eight bytes each.
const summaryGobLen = 5 * 8

// GobEncode writes the count, sum, sum of squares, min and max bit for bit,
// so a Summary survives the result cache's disk tier unchanged.
func (s Summary) GobEncode() ([]byte, error) {
	b := make([]byte, 0, summaryGobLen)
	b = binary.LittleEndian.AppendUint64(b, uint64(s.n))
	for _, f := range [...]float64{s.sum, s.sumq, s.min, s.max} {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
	}
	return b, nil
}

// GobDecode restores a Summary written by GobEncode.
func (s *Summary) GobDecode(b []byte) error {
	if len(b) != summaryGobLen {
		return fmt.Errorf("stats: Summary gob form is %d bytes, want %d", len(b), summaryGobLen)
	}
	word := func(i int) uint64 { return binary.LittleEndian.Uint64(b[8*i:]) }
	s.n = int(word(0))
	s.sum = math.Float64frombits(word(1))
	s.sumq = math.Float64frombits(word(2))
	s.min = math.Float64frombits(word(3))
	s.max = math.Float64frombits(word(4))
	return nil
}

// Mean reports the arithmetic mean of vs, or 0 for an empty slice.
func Mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// GeoMean reports the geometric mean of vs. All values must be positive;
// non-positive values are skipped (they would otherwise poison the product),
// matching how speedup geomeans are conventionally computed.
func GeoMean(vs []float64) float64 {
	logSum := 0.0
	n := 0
	for _, v := range vs {
		if v <= 0 {
			continue
		}
		logSum += math.Log(v)
		n++
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}

// Median reports the median of vs (the slice is not modified), or 0 for an
// empty slice.
func Median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	c := make([]float64, len(vs))
	copy(c, vs)
	sort.Float64s(c)
	mid := len(c) / 2
	if len(c)%2 == 1 {
		return c[mid]
	}
	return (c[mid-1] + c[mid]) / 2
}

// Percentile reports the p-th percentile (0..100) of vs using linear
// interpolation, or 0 for an empty slice. It sorts a copy of vs; a caller
// asking repeatedly keeps its values sorted and uses PercentileSorted.
func Percentile(vs []float64, p float64) float64 {
	c := make([]float64, len(vs))
	copy(c, vs)
	sort.Float64s(c)
	return PercentileSorted(c, p)
}

// PercentileSorted is Percentile for values already in ascending order
// (as sort.Float64s or MergeSorted leave them).
func PercentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	// float64(...) rounds each product, so arm64 cannot fuse it into the add (make fmagate).
	rank := float64(p / 100 * float64(len(sorted)-1))
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return float64(sorted[lo]*(1-frac)) + float64(sorted[hi]*frac)
}

// MergeSorted sorts vs in place and merges it into the ascending slice
// sorted, returning the extended slice. A caller that asks for percentiles
// of a growing set merges the values that arrived since it last asked:
// that moves each old value at most once per merge instead of re-sorting
// the whole history.
func MergeSorted(sorted, vs []float64) []float64 {
	sort.Float64s(vs)
	i := len(sorted) - 1
	sorted = append(sorted, vs...)
	for j, k := len(vs)-1, len(sorted)-1; j >= 0; k-- {
		if i >= 0 && sorted[i] > vs[j] {
			sorted[k] = sorted[i]
			i--
		} else {
			sorted[k] = vs[j]
			j--
		}
	}
	return sorted
}

// Jaccard reports the Jaccard index |a∩b| / |a∪b| of two sets of cache-block
// addresses, the commonality metric of the paper's Sec. 2.5 (Fig. 6b).
// Two empty sets have index 1 (identical).
func Jaccard(a, b map[uint64]struct{}) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	small, large := a, b
	if len(small) > len(large) {
		small, large = large, small
	}
	inter := 0
	for k := range small {
		if _, ok := large[k]; ok {
			inter++
		}
	}
	union := len(a) + len(b) - inter
	return float64(inter) / float64(union)
}

// Ratio reports num/den, or 0 when den is 0. It keeps MPKI/CPI style
// divisions free of NaNs on empty runs.
func Ratio(num, den float64) float64 {
	//lukewarm:floateq exact zero is the only invalid denominator; this guard is the canonical form
	if den == 0 {
		return 0
	}
	return num / den
}

// Pct reports num/den as a percentage, or 0 when den is 0.
func Pct(num, den float64) float64 { return Ratio(num, den) * 100 }

// SpeedupPct converts a pair of cycle counts into the "% speedup" the paper
// plots: how much faster the optimized run is relative to the baseline.
// A positive value means the optimized run took fewer cycles.
func SpeedupPct(baselineCycles, optimizedCycles float64) float64 {
	//lukewarm:floateq exact zero-denominator guard, as in Ratio
	if optimizedCycles == 0 {
		return 0
	}
	return (baselineCycles/optimizedCycles - 1) * 100
}

// ApproxEqual reports whether a and b agree within tol, using a relative
// comparison that degrades to absolute near zero:
//
//	|a-b| <= tol * max(1, |a|, |b|)
//
// This is the comparison simulation code must use instead of ==/!= on
// floats (enforced by the floateq analyzer): accumulated rounding varies
// with evaluation order, and the golden-figure gates hold tables only to
// tolerance bands. NaNs compare unequal to everything, like ==.
func ApproxEqual(a, b, tol float64) bool {
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= tol*scale
}

// NearTol is Near's tolerance: loose enough to absorb order-of-evaluation
// rounding across a whole experiment, tight enough that any modeled effect
// (the paper's smallest reported delta is ~0.1%) stays visible.
const NearTol = 1e-9

// Near is ApproxEqual at NearTol, the default equality for simulation code.
func Near(a, b float64) bool { return ApproxEqual(a, b, NearTol) }
