// Package report holds satbench's arithmetic and file formats: the
// percentile and spread maths every metric goes through, the metric
// definitions loaded from BENCHMARK.json, the run-report file the
// one-command mode writes, and the comparison that judges one report
// against another.
package report

import (
	"math"
	"sort"
)

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) of values by
// linear interpolation between order statistics, the same rule as
// numpy's default. It sorts a copy; an empty input gives 0.
func Percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return percentileSorted(s, p)
}

func percentileSorted(s []float64, p float64) float64 {
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// Median is Percentile(values, 50).
func Median(values []float64) float64 { return Percentile(values, 50) }

// tailPercentiles are the percentiles a latency summary may report, in
// rising order.
var tailPercentiles = []float64{50, 90, 95, 99}

// minBeyond is how many samples must lie beyond a percentile before it
// is reported: with fewer, the figure is one or two outliers.
const minBeyond = 10

// HighestPercentile returns the highest of p50/p90/p95/p99 that has at
// least ten samples beyond it among n samples, or 0 when not even the
// median qualifies (n < 20).
func HighestPercentile(n int) float64 {
	best := 0.0
	for _, p := range tailPercentiles {
		// n·(100−p) in hundredths: exact in floating point, where
		// n·(1−p/100) is not (100 × 0.1 falls short of 10).
		if float64(n)*(100-p) >= minBeyond*100 {
			best = p
		}
	}
	return best
}

// Summary describes one latency sample set.
type Summary struct {
	Count              int
	Mean               float64
	P50, P90, P95, P99 float64
	Max                float64
	// Highest is HighestPercentile(Count): percentiles above it are
	// still computed, but rest on fewer than ten samples.
	Highest float64
}

// Summarize computes a Summary; the zero Summary for no samples.
func Summarize(values []float64) Summary {
	if len(values) == 0 {
		return Summary{}
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	return Summary{
		Count: len(s), Mean: sum / float64(len(s)),
		P50: percentileSorted(s, 50), P90: percentileSorted(s, 90),
		P95: percentileSorted(s, 95), P99: percentileSorted(s, 99),
		Max: s[len(s)-1], Highest: HighestPercentile(len(s)),
	}
}

// Quartiles returns the first and third quartile of values as Python's
// statistics.quantiles(values, n=4) computes them (the "exclusive"
// method: position q·(n+1) among the order statistics, clamped to the
// sample range). It needs at least two values.
func Quartiles(values []float64) (q1, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(q float64) float64 {
		pos := q * float64(n+1)
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(0.25), at(0.75)
}

// Spread is the run-to-run spread the benchmark contract uses: the
// distance between the quartiles as a share of the median. Fewer than
// four values cannot carry quartiles, so the full range is used
// instead. A zero median gives 0 when every value is zero and +Inf
// otherwise.
func Spread(values []float64) float64 {
	if len(values) < 2 {
		return 0
	}
	var width float64
	if len(values) < 4 {
		lo, hi := values[0], values[0]
		for _, v := range values {
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
		width = hi - lo
	} else {
		q1, q3 := Quartiles(values)
		width = q3 - q1
	}
	med := math.Abs(Median(values))
	if med == 0 {
		if width == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return width / med
}
