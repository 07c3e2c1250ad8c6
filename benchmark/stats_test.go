package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentile(t *testing.T) {
	v := []float64{10, 20, 30, 40, 50}
	for _, c := range []struct{ p, want float64 }{{0, 10}, {50, 30}, {95, 48}, {100, 50}, {25, 20}} {
		if got := percentile(v, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples must be NaN")
	}
	if got := median([]float64{3, 1, 2, 10}); !near(got, 2.5) {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// Python: statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
// → [3.5, 13.5, 31.0].
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if !near(q1, 3.5) || !near(q2, 13.5) || !near(q3, 31) {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{5})
	if q1 != 5 || q2 != 5 || q3 != 5 {
		t.Errorf("quartiles of one value = %v %v %v", q1, q2, q3)
	}
}

func TestSelfTimeAndWeightedMean(t *testing.T) {
	if got := selfTime(120, 100); !near(got, 20) {
		t.Errorf("selfTime(120, 100) = %v", got)
	}
	if got := selfTime(95, 100); got != 0 {
		t.Errorf("an inner rung slower than its outer one by noise must give 0, got %v", got)
	}
	// The cyclic_join cycle: one tri among four q2 and four q9.
	got := weightedMean([]float64{55, 3, 6}, []float64{1. / 9, 4. / 9, 4. / 9})
	if !near(got, (55+12+24)/9.) {
		t.Errorf("weightedMean = %v", got)
	}
	if weightedMean(nil, nil) != 0 {
		t.Error("weightedMean of nothing must be 0")
	}
}

func TestVerdict(t *testing.T) {
	for _, c := range []struct {
		worsening, spread, bound float64
		want                     string
	}{
		{0.02, 0.01, 0.10, "ok"},
		{-0.30, 0.01, 0.10, "ok"}, // better is never worse
		{0.12, 0.01, 0.10, "worse"},
		{0.12, 0.15, 0.10, "unresolved"},
		{0.00, 0.15, 0.10, "unresolved"},
	} {
		if got := verdict(c.worsening, c.spread, c.bound); got != c.want {
			t.Errorf("verdict(%v, %v, %v) = %s, want %s", c.worsening, c.spread, c.bound, got, c.want)
		}
	}
}
