package report

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentileInterpolates(t *testing.T) {
	v := []float64{40, 10, 30, 20} // unsorted on purpose
	for _, c := range []struct{ p, want float64 }{
		{0, 10}, {50, 25}, {90, 37}, {100, 40}, {25, 17.5},
	} {
		if got := Percentile(v, c.p); !near(got, c.want) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if v[0] != 40 {
		t.Error("Percentile sorted its argument in place")
	}
	if Percentile(nil, 50) != 0 {
		t.Error("empty input must give 0")
	}
}

// The highest reportable percentile is the one with at least ten
// samples beyond it: p50 from 20 samples, p90 from 100, p95 from 200,
// p99 from 1000.
func TestHighestPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99},
	} {
		if got := HighestPercentile(c.n); got != c.want {
			t.Errorf("HighestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	if s := Summarize(make([]float64, 240)); s.Highest != 95 || s.Count != 240 {
		t.Errorf("Summarize(240 samples).Highest = %v", s.Highest)
	}
}

// Reference values from Python 3: statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}, 1.75, 5.25},
		{[]float64{10, 20}, 7.5, 22.5}, // the exclusive method extrapolates on tiny samples
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
	} {
		q1, q3 := Quartiles(c.v)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("Quartiles(%v) = %v, %v; want %v, %v", c.v, q1, q3, c.q1, c.q3)
		}
	}
}

func TestSpread(t *testing.T) {
	if got := Spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 5.5/5.5) {
		t.Errorf("ten values: spread = %v, want 1", got)
	}
	// Fewer than four values: full range over the median.
	if got := Spread([]float64{100, 110, 90}); !near(got, 0.2) {
		t.Errorf("three values: spread = %v, want 0.2", got)
	}
	if Spread([]float64{5}) != 0 || Spread([]float64{0, 0, 0, 0}) != 0 {
		t.Error("a single value and all-zero values have no spread")
	}
	if !math.IsInf(Spread([]float64{0, 0, 1, 0, 0}), 1) {
		t.Error("a zero median with non-zero width must not read as steady")
	}
}
