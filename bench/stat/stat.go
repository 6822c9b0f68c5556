// Package stat holds the order statistics shared by the repository
// benchmark (bench) and its comparison tool (bench/cmp).
package stat

import (
	"math"
	"sort"
)

// Median returns the median of xs: the middle value, or the mean of the two
// middle values for an even count. It is NaN for an empty slice and does not
// modify xs.
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

// Quartiles returns the three cut points dividing xs into quarters by the
// exclusive method — the default of Python's statistics.quantiles(xs, n=4),
// which is what regression checks on these results are computed with. Like
// Python, it may extrapolate beyond the data for fewer than four values. A
// single value is its own quartiles; an empty slice gives NaNs.
func Quartiles(xs []float64) (q1, q2, q3 float64) {
	switch len(xs) {
	case 0:
		nan := math.NaN()
		return nan, nan, nan
	case 1:
		return xs[0], xs[0], xs[0]
	}
	s := sorted(xs)
	ld := len(s)
	m := ld + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), ld-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// Spread is the interquartile distance of xs as a share of its median — the
// run-to-run noise measure regression bounds are compared against.
func Spread(xs []float64) float64 {
	q1, q2, q3 := Quartiles(xs)
	return (q3 - q1) / math.Abs(q2)
}

// Percentile returns the p-th percentile (0 < p <= 100) of xs by the
// nearest-rank method: the smallest value with at least p% of the data at
// or below it. It is NaN for an empty slice.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[min(max(rank, 1), len(s))-1]
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
