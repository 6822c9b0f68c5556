package stat

import (
	"math"
	"testing"
)

// The expected cut points are what Python's statistics.quantiles(xs, n=4)
// prints for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{5, 1}, 0, 3, 6},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{7}, 7, 7, 7},
	}
	for _, c := range cases {
		q1, q2, q3 := Quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("Quartiles(%v) = %v, %v, %v, want %v, %v, %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestMedianIsMiddleQuartile(t *testing.T) {
	for _, xs := range [][]float64{{4}, {2, 9}, {5, 1, 3}, {8, 1, 7, 3}, {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}} {
		if _, q2, _ := Quartiles(xs); len(xs) > 1 && Median(xs) != q2 {
			t.Errorf("Median(%v) = %v, second quartile %v", xs, Median(xs), q2)
		}
	}
	if !math.IsNaN(Median(nil)) {
		t.Error("Median of no values is not NaN")
	}
}

func TestSpreadAndPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := Spread(xs), (8.25-2.75)/5.5; got != want {
		t.Errorf("Spread = %v, want %v", got, want)
	}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {99, 10}, {100, 10}, {1, 1}} {
		if got := Percentile(xs, c.p); got != c.want {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}
