// Package stats provides the small set of summary statistics the experiment
// harness needs: per-series mean, standard deviation, extrema and normal
// confidence intervals over the repeated network instances the paper
// averages (15 per data point).
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary holds descriptive statistics of a sample.
type Summary struct {
	N      int
	Mean   float64
	Std    float64 // sample standard deviation (n-1 denominator)
	Min    float64
	Max    float64
	Median float64
}

// Summarize computes a Summary of xs. It returns a zero Summary for an
// empty sample.
func Summarize(xs []float64) Summary {
	n := len(xs)
	if n == 0 {
		return Summary{}
	}
	s := Summary{N: n, Min: xs[0], Max: xs[0]}
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(n)
	if n > 1 {
		var ss float64
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.Std = math.Sqrt(ss / float64(n-1))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if n%2 == 1 {
		s.Median = sorted[n/2]
	} else {
		s.Median = (sorted[n/2-1] + sorted[n/2]) / 2
	}
	return s
}

// CI95 returns the half-width of the 95% normal-approximation confidence
// interval for the mean (1.96 · std / sqrt(n)); zero for n < 2.
func (s Summary) CI95() float64 {
	if s.N < 2 {
		return 0
	}
	return 1.96 * s.Std / math.Sqrt(float64(s.N))
}

// String implements fmt.Stringer.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g ±%.2g std=%.3g min=%.4g max=%.4g",
		s.N, s.Mean, s.CI95(), s.Std, s.Min, s.Max)
}

// Mean returns the arithmetic mean of xs, zero for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
