package telemetry

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// numBuckets covers every uint64: bucket i counts observations v with
// bits.Len64(v) == i, i.e. v in [2^(i-1), 2^i) and bucket 0 holds v==0.
const numBuckets = 65

// Histogram is a log-bucketed (powers of two) distribution of uint64
// observations — latencies in nanoseconds, sizes in bytes, counts. The
// coarse geometric buckets keep Observe allocation-free and O(1) while
// still answering the monitoring questions ("did unit wall time jump an
// order of magnitude?"). A nil *Histogram is a no-op sink.
//
// scale is applied only when rendering bucket bounds and sums (1 for
// dimensionless values, 1e-9 for nanosecond observations rendered as
// Prometheus seconds).
type Histogram struct {
	scale   float64
	sum     atomic.Uint64
	buckets [numBuckets]atomic.Uint64
}

// NewHistogram returns a standalone dimensionless histogram.
func NewHistogram() *Histogram { return &Histogram{scale: 1} }

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	h.buckets[bits.Len64(v)].Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	var n uint64
	for i := range h.buckets {
		n += h.buckets[i].Load()
	}
	return n
}

// Sum returns the raw (unscaled) sum of observations.
func (h *Histogram) Sum() uint64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// ScaledSum returns the sum in rendered units (seconds for duration
// histograms).
func (h *Histogram) ScaledSum() float64 {
	if h == nil {
		return 0
	}
	return float64(h.sum.Load()) * h.scale
}

// upperBound returns the rendered inclusive upper bound of bucket i.
func (h *Histogram) upperBound(i int) float64 {
	if i == 0 {
		return 0
	}
	return float64(uint64(1)<<uint(i)-1) * h.scale
}

// Quantile returns an approximate q-quantile (q in [0,1]) in rendered
// units: the upper bound of the log bucket holding the ceil(q·count)-th
// observation. The power-of-two buckets bound the error to under one
// octave — coarse, but exactly enough resolution for "did p99 jump an
// order of magnitude", which is what the phase distributions are
// monitored for. Returns 0 when empty or nil.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	var counts [numBuckets]uint64
	var total uint64
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i := 0; i < numBuckets; i++ {
		cum += counts[i]
		if cum >= rank {
			return h.upperBound(i)
		}
	}
	return h.upperBound(numBuckets - 1)
}
