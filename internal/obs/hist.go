package obs

import (
	"math"
	"sync/atomic"
	"time"
)

// Hist is a fixed-bucket cumulative-on-export histogram in the Prometheus
// mold: observations land in the first bucket whose upper bound is >= the
// value, with an implicit +Inf bucket catching the rest. Recording is one
// linear bound scan (buckets are few) plus one atomic add — no locks, no
// allocation — so it is safe on paths as hot as the WAL fsync call and the
// shard merge flush. Export via Snapshot; quantiles via Snapshot.Quantile,
// which is the single percentile implementation behind both /stats and
// /metrics (the point: the two surfaces read the same buckets, so their
// p50/p99 can never disagree).
type Hist struct {
	bounds []float64 // ascending upper bounds; +Inf is implicit
	counts []atomic.Uint64
	// sumBits accumulates the observation sum as a float64 bit pattern
	// updated by CAS — histograms observe from many goroutines but sum
	// contention is negligible next to the work being measured.
	sumBits atomic.Uint64
	count   atomic.Uint64
}

// NewHist builds a histogram over the given ascending upper bounds. The
// bounds slice is retained; callers must not mutate it.
func NewHist(bounds []float64) *Hist {
	return &Hist{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// ExpBuckets returns n exponential upper bounds starting at start, each
// factor times the last — the standard latency-histogram shape.
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// LatencyBuckets spans 100µs to ~two minutes in ×2 steps (21 buckets) — wide
// enough for both a cache-hit point query and a cold scan, in seconds per
// Prometheus convention.
func LatencyBuckets() []float64 { return ExpBuckets(100e-6, 2, 21) }

// FsyncBuckets spans 10µs to ~2.6s in ×2 steps — group-commit no-ops to
// spinning-rust worst cases, in seconds.
func FsyncBuckets() []float64 { return ExpBuckets(10e-6, 2, 19) }

// SizeBuckets returns power-of-two size bounds 1, 2, 4, ... (n bounds) for
// count-shaped quantities (rows per merge batch, shards pruned per query).
func SizeBuckets(n int) []float64 { return ExpBuckets(1, 2, n) }

// Observe records one value.
func (h *Hist) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records d in seconds (the Prometheus unit for time).
func (h *Hist) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// HistSnapshot is a point-in-time copy of a histogram, safe to serialize.
// Counts are per-bucket (not yet cumulative); Counts[len(Bounds)] is the
// +Inf bucket.
type HistSnapshot struct {
	Bounds []float64
	Counts []uint64
	Sum    float64
	Count  uint64
}

// Snapshot copies the histogram's current state. Buckets are read without a
// global lock, so a snapshot taken mid-observation may be off by the
// in-flight observation — fine for monitoring, which is the only consumer.
func (h *Hist) Snapshot() HistSnapshot {
	s := HistSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.counts)),
		Sum:    math.Float64frombits(h.sumBits.Load()),
		Count:  h.count.Load(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// Quantile estimates the p-quantile (0 <= p <= 1) from the buckets with
// linear interpolation inside the target bucket — the same estimator
// Prometheus's histogram_quantile applies to the exported buckets, so a
// dashboard and /stats compute the same number from the same data. The +Inf
// bucket clamps to the largest finite bound. Returns 0 for an empty
// histogram.
func (s HistSnapshot) Quantile(p float64) float64 {
	if s.Count == 0 {
		return 0
	}
	rank := p * float64(s.Count)
	var cum uint64
	for i, c := range s.Counts {
		prev := cum
		cum += c
		if float64(cum) < rank {
			continue
		}
		if i >= len(s.Bounds) {
			// +Inf bucket: clamp to the largest finite bound.
			if len(s.Bounds) == 0 {
				return 0
			}
			return s.Bounds[len(s.Bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = s.Bounds[i-1]
		}
		hi := s.Bounds[i]
		if c == 0 {
			return hi
		}
		return lo + (hi-lo)*(rank-float64(prev))/float64(c)
	}
	return s.Bounds[len(s.Bounds)-1]
}

// QuantileDuration is Quantile for second-unit histograms, as a Duration.
func (s HistSnapshot) QuantileDuration(p float64) time.Duration {
	return time.Duration(s.Quantile(p) * float64(time.Second))
}
