package bench

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

// The quartiles must match Python's statistics.quantiles(xs, n=4), the rule
// run-to-run spreads are judged by; the expectations below are its output.
func TestMedianAndQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs             []float64
		q1, median, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3.1, 2.7, 2.9, 3.4, 3.0}, 2.8, 3.0, 3.25},
		{[]float64{5, 1}, 0, 3, 6},
		{[]float64{10.5, 9.75, 11.25, 10.0, 10.25, 9.5, 12.0, 10.75, 10.125, 9.875}, 9.84375, 10.1875, 10.875},
	} {
		q1, q3 := Quartiles(c.xs)
		if m := Median(c.xs); !near(q1, c.q1) || !near(m, c.median) || !near(q3, c.q3) {
			t.Errorf("%v: quartiles %v/%v/%v, want %v/%v/%v", c.xs, q1, m, q3, c.q1, c.median, c.q3)
		}
	}
	if got, want := Spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), (8.25-2.75)/5.5; !near(got, want) {
		t.Errorf("Spread = %v, want %v", got, want)
	}
	if !math.IsNaN(Median(nil)) {
		t.Error("Median(nil) should be NaN")
	}
}

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{40, 10, 30, 20}
	for p, want := range map[float64]float64{0: 10, 50: 25, 90: 37, 100: 40} {
		if got := percentile(xs, p); !near(got, want) {
			t.Errorf("percentile(%v) = %v, want %v", p, got, want)
		}
	}
}

// A tail percentile needs at least ten samples beyond it: p97 needs 334.
func TestTailPercentileKeepsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{9, 0}, {10, 0}, {100, 90}, {333, 96.99}, {334, 97}, {1000, 99}} {
		got := tailPercentile(c.n)
		if !near(got, c.want) {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
		if c.n >= 10 && float64(c.n)*(1-got/100) < 10-1e-9 {
			t.Errorf("tailPercentile(%d) = %v leaves fewer than 10 beyond", c.n, got)
		}
	}
	if tailPercentile(333) >= 97 || tailPercentile(334) < 97 {
		t.Error("p97 must need exactly 334 samples")
	}
}

func TestBoundChecks(t *testing.T) {
	parent := []float64{10, 10.2, 9.8, 10.1, 9.9}
	if got := Worse(10, 11, Lower); !near(got, 0.1) {
		t.Errorf("Worse lower = %v, want 0.1", got)
	}
	if got := Worse(10, 11, Higher); !near(got, -0.1) {
		t.Errorf("Worse higher = %v, want -0.1", got)
	}
	for _, c := range []struct {
		child []float64
		b     Better
		bound float64
		want  bool
	}{
		{[]float64{10.7, 10.9, 10.8}, Lower, 0.05, true},  // 8% slower
		{[]float64{10.7, 10.9, 10.8}, Lower, 0.10, false}, // within 10%
		{[]float64{10.7, 10.9, 10.8}, Higher, 0.05, false},
		{[]float64{9.0, 9.2, 9.1}, Higher, 0.05, true}, // 9% lower throughput
		{[]float64{9.0, 9.2, 9.1}, Lower, 0.05, false},
	} {
		if got := Regressed(parent, c.child, c.b, c.bound); got != c.want {
			t.Errorf("Regressed(%v, %s, %v) = %v, want %v", c.child, c.b, c.bound, got, c.want)
		}
	}
}
