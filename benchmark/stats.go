package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0–100) of sorted, interpolating
// between the two nearest ranks. It returns NaN for no samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return percentile(sortedCopy(v), 50) }

// quartiles returns the first quartile, median and third quartile by the
// exclusive method, which is what Python's statistics.quantiles(v, n=4)
// gives and the driver uses.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sortedCopy(v)
	at := func(k int) float64 {
		if len(s) == 1 {
			return s[0]
		}
		pos := float64(k)*float64(len(s)+1)/4 - 1
		pos = math.Max(0, math.Min(pos, float64(len(s)-1)))
		lo := int(math.Floor(pos))
		hi := int(math.Ceil(pos))
		return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
	}
	return at(1), at(2), at(3)
}

// selfTime is a rung's duration minus that of the next-inner rung, which is
// a separate timed call on the same query and so can exceed it by noise.
func selfTime(outer, inner float64) float64 { return math.Max(0, outer-inner) }

// weightedMean averages per-class values by the class's share of the cycle.
func weightedMean(values, weights []float64) float64 {
	var sum, w float64
	for i, v := range values {
		sum += v * weights[i]
		w += weights[i]
	}
	if w == 0 {
		return 0
	}
	return sum / w
}
