package stats

import (
	"bytes"
	"encoding/gob"
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestSummaryBasics(t *testing.T) {
	var s Summary
	if s.N() != 0 || s.Mean() != 0 {
		t.Fatalf("zero Summary: got n=%d mean=%v", s.N(), s.Mean())
	}
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(v)
	}
	if s.N() != 8 {
		t.Errorf("N = %d, want 8", s.N())
	}
	if got := s.Mean(); !almostEqual(got, 5, 1e-12) {
		t.Errorf("Mean = %v, want 5", got)
	}
	if got := s.StdDev(); !almostEqual(got, 2, 1e-12) {
		t.Errorf("StdDev = %v, want 2", got)
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Errorf("Min/Max = %v/%v, want 2/9", s.Min(), s.Max())
	}
}

func TestSummarySingleValue(t *testing.T) {
	var s Summary
	s.Add(-3.5)
	if s.Min() != -3.5 || s.Max() != -3.5 || s.Mean() != -3.5 {
		t.Errorf("single value summary wrong: %v", s.String())
	}
	if s.Variance() != 0 {
		t.Errorf("Variance of single value = %v, want 0", s.Variance())
	}
}

func TestSummaryVarianceNonNegativeProperty(t *testing.T) {
	f := func(vs []float64) bool {
		var s Summary
		for _, v := range vs {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			// keep magnitudes sane so sumq does not overflow
			s.Add(math.Mod(v, 1e6))
		}
		return s.Variance() >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMeanAndGeoMean(t *testing.T) {
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %v", got)
	}
	if got := Mean([]float64{1, 2, 3}); !almostEqual(got, 2, 1e-12) {
		t.Errorf("Mean = %v, want 2", got)
	}
	if got := GeoMean([]float64{1, 100}); !almostEqual(got, 10, 1e-9) {
		t.Errorf("GeoMean = %v, want 10", got)
	}
	if got := GeoMean([]float64{-5, 0}); got != 0 {
		t.Errorf("GeoMean of non-positive = %v, want 0", got)
	}
	// non-positive values are skipped, not zeroing the result
	if got := GeoMean([]float64{0, 4, 9}); !almostEqual(got, 6, 1e-9) {
		t.Errorf("GeoMean skipping zero = %v, want 6", got)
	}
}

func TestGeoMeanBetweenMinAndMaxProperty(t *testing.T) {
	f := func(raw []float64) bool {
		var vs []float64
		for _, v := range raw {
			v = math.Abs(math.Mod(v, 1e3))
			if v > 1e-6 {
				vs = append(vs, v)
			}
		}
		if len(vs) == 0 {
			return GeoMean(vs) == 0
		}
		g := GeoMean(vs)
		min, max := vs[0], vs[0]
		for _, v := range vs {
			min = math.Min(min, v)
			max = math.Max(max, v)
		}
		return g >= min*(1-1e-9) && g <= max*(1+1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	}
	for _, c := range cases {
		if got := Median(c.in); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestPercentile(t *testing.T) {
	vs := []float64{10, 20, 30, 40, 50}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 10}, {100, 50}, {50, 30}, {25, 20}, {125, 50}, {-5, 10},
	}
	for _, c := range cases {
		if got := Percentile(vs, c.p); !almostEqual(got, c.want, 1e-9) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Errorf("Percentile(nil) = %v", got)
	}
}

// TestMergeSortedPercentileProperty holds a slice grown by MergeSorted, in
// chunks of any size, to the same percentiles, bit for bit, as Percentile
// over the values in arrival order: the cluster's hedge-delay refresh
// relies on it.
func TestMergeSortedPercentileProperty(t *testing.T) {
	f := func(raw []float64, chunk uint8, p float64) bool {
		var arrival, sorted, pending []float64
		same := func() bool {
			sorted = MergeSorted(sorted, pending)
			pending = pending[:0]
			for _, q := range []float64{0, 50, 99, 100, math.Mod(math.Abs(p), 100)} {
				//lukewarm:floateq the two paths must agree exactly, not within a tolerance
				if PercentileSorted(sorted, q) != Percentile(arrival, q) {
					return false
				}
			}
			return true
		}
		for i, v := range raw {
			arrival = append(arrival, v)
			pending = append(pending, v)
			if i%(int(chunk%40)+1) == 0 && !same() {
				return false
			}
		}
		return same()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func setOf(vs ...uint64) map[uint64]struct{} {
	m := make(map[uint64]struct{}, len(vs))
	for _, v := range vs {
		m[v] = struct{}{}
	}
	return m
}

func TestJaccard(t *testing.T) {
	a := setOf(1, 2, 3, 4)
	b := setOf(3, 4, 5, 6)
	if got := Jaccard(a, b); !almostEqual(got, 2.0/6.0, 1e-12) {
		t.Errorf("Jaccard = %v, want 1/3", got)
	}
	if got := Jaccard(a, a); got != 1 {
		t.Errorf("Jaccard(a,a) = %v, want 1", got)
	}
	if got := Jaccard(nil, nil); got != 1 {
		t.Errorf("Jaccard(nil,nil) = %v, want 1", got)
	}
	if got := Jaccard(a, nil); got != 0 {
		t.Errorf("Jaccard(a,nil) = %v, want 0", got)
	}
}

func TestJaccardProperties(t *testing.T) {
	// Symmetry and range over generated sets.
	f := func(xs, ys []uint8) bool {
		a := make(map[uint64]struct{})
		b := make(map[uint64]struct{})
		for _, x := range xs {
			a[uint64(x)] = struct{}{}
		}
		for _, y := range ys {
			b[uint64(y)] = struct{}{}
		}
		j1, j2 := Jaccard(a, b), Jaccard(b, a)
		return j1 == j2 && j1 >= 0 && j1 <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRatioAndPct(t *testing.T) {
	if got := Ratio(1, 0); got != 0 {
		t.Errorf("Ratio div-by-zero = %v", got)
	}
	if got := Pct(1, 4); !almostEqual(got, 25, 1e-12) {
		t.Errorf("Pct = %v, want 25", got)
	}
}

func TestSpeedupPct(t *testing.T) {
	if got := SpeedupPct(200, 100); !almostEqual(got, 100, 1e-12) {
		t.Errorf("SpeedupPct = %v, want 100", got)
	}
	if got := SpeedupPct(100, 100); !almostEqual(got, 0, 1e-12) {
		t.Errorf("SpeedupPct equal = %v, want 0", got)
	}
	if got := SpeedupPct(100, 0); got != 0 {
		t.Errorf("SpeedupPct zero denom = %v, want 0", got)
	}
	// Slowdown is negative.
	if got := SpeedupPct(100, 200); !almostEqual(got, -50, 1e-12) {
		t.Errorf("SpeedupPct slowdown = %v, want -50", got)
	}
}

// TestSummaryGobRoundTrip checks that a Summary survives gob bit for bit:
// the result cache's disk tier stores them inside traffic results.
func TestSummaryGobRoundTrip(t *testing.T) {
	var zero, neg, mixed Summary
	for _, v := range []float64{-3.5, -0.125, -7e-300} {
		neg.Add(v)
	}
	for _, v := range []float64{0.1, -2.75, 1e300, 3.3333333333333335} {
		mixed.Add(v)
	}
	for _, s := range []Summary{zero, neg, mixed} {
		b, err := s.GobEncode()
		if err != nil {
			t.Fatal(err)
		}
		var got Summary
		if err := got.GobDecode(b); err != nil {
			t.Fatal(err)
		}
		if got != s {
			t.Errorf("GobDecode(GobEncode(%+v)) = %+v", s, got)
		}

		// Through encoding/gob itself, as the cache's disk tier does.
		type wrapped struct{ S Summary }
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(wrapped{s}); err != nil {
			t.Fatal(err)
		}
		var w wrapped
		if err := gob.NewDecoder(&buf).Decode(&w); err != nil {
			t.Fatal(err)
		}
		if w.S != s {
			t.Errorf("gob round trip of %+v = %+v", s, w.S)
		}
	}
	if neg.Min() != -3.5 || neg.Max() != -7e-300 {
		t.Errorf("negative summary min/max = %g/%g", neg.Min(), neg.Max())
	}

	for _, n := range []int{0, summaryGobLen - 1, summaryGobLen + 1} {
		var s Summary
		if err := s.GobDecode(make([]byte, n)); err == nil {
			t.Errorf("GobDecode of %d bytes: no error", n)
		}
	}
}
