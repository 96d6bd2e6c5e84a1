package telemetry

import (
	"math/bits"
	"sync/atomic"
)

// histBuckets is one bucket per possible bits.Len64 result (0..64).
const histBuckets = 65

// Histogram counts uint64 observations in power-of-two buckets: bucket i
// holds values v with bits.Len64(v) == i, i.e.
//
//	bucket 0:  {0}
//	bucket 1:  {1}
//	bucket 2:  [2, 3]
//	bucket 3:  [4, 7]
//	bucket i:  [2^(i-1), 2^i − 1]
//
// Exponential buckets fit the heavy-tailed distributions the simulator
// observes (reuse distances, eviction ages, stall lengths) in 65 fixed
// slots with a constant-time, allocation-free Observe. Methods are safe
// for concurrent use.
type Histogram struct {
	buckets [histBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64
	max     atomic.Uint64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// BucketIndex returns the bucket an observation of v lands in.
func BucketIndex(v uint64) int { return bits.Len64(v) }

// BucketUpperBound returns the largest value bucket i accepts.
// BucketUpperBound(0) == 0; BucketUpperBound(64) == MaxUint64.
func BucketUpperBound(i int) uint64 {
	if i <= 0 {
		return 0
	}
	if i >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(i) - 1
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	h.buckets[bits.Len64(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	h.raiseMax(v)
}

// raiseMax lifts the recorded maximum to v if v is larger.
func (h *Histogram) raiseMax(v uint64) {
	for {
		old := h.max.Load()
		if v <= old || h.max.CompareAndSwap(old, v) {
			return
		}
	}
}

// LocalHistogram stages observations for a Histogram in plain fields, so
// a single goroutine's hot path pays no atomic operations; FlushTo
// publishes them. A flushed Histogram holds exactly what observing each
// value directly would have left in it. The zero value is ready to use;
// a LocalHistogram is not safe for concurrent use.
type LocalHistogram struct {
	buckets  [histBuckets]uint64
	sum, max uint64
}

// Observe stages one value.
func (l *LocalHistogram) Observe(v uint64) {
	l.buckets[bits.Len64(v)]++
	l.sum += v
	l.max = max(l.max, v)
}

// FlushTo adds the staged observations to h and empties l.
func (l *LocalHistogram) FlushTo(h *Histogram) {
	var count uint64
	for i, n := range l.buckets {
		if n != 0 {
			h.buckets[i].Add(n)
			count += n
		}
	}
	if count == 0 {
		return
	}
	h.count.Add(count)
	h.sum.Add(l.sum)
	h.raiseMax(l.max)
	*l = LocalHistogram{}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() uint64 { return h.sum.Load() }

// Mean returns the average observation (0 when empty).
func (h *Histogram) Mean() float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// Max returns the largest observation (0 when empty).
func (h *Histogram) Max() uint64 { return h.max.Load() }

// Quantile returns an upper bound on the q-quantile (0 ≤ q ≤ 1) of the
// observations: the upper bound of the bucket in which the q-th
// observation falls. 0 when empty.
func (h *Histogram) Quantile(q float64) uint64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// rank in [1, n]: the smallest k with k ≥ q·n (ceiling, so that e.g.
	// p99 of 5 observations is the 5th, not the 4th).
	rank := uint64(q * float64(n))
	if float64(rank) < q*float64(n) {
		rank++
	}
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i := 0; i < histBuckets; i++ {
		cum += h.buckets[i].Load()
		if cum >= rank {
			ub := BucketUpperBound(i)
			if m := h.max.Load(); ub > m {
				ub = m // tighten the top bucket to the observed max
			}
			return ub
		}
	}
	return h.max.Load()
}

// HistogramBucket is one non-empty bucket in a snapshot.
type HistogramBucket struct {
	// UpperBound is the largest value the bucket accepts (inclusive).
	UpperBound uint64 `json:"le"`
	Count      uint64 `json:"count"`
}

// HistogramSnapshot is a point-in-time copy suitable for JSON encoding.
// Only non-empty buckets are included.
type HistogramSnapshot struct {
	Count   uint64            `json:"count"`
	Sum     uint64            `json:"sum"`
	Max     uint64            `json:"max"`
	Mean    float64           `json:"mean"`
	P50     uint64            `json:"p50"`
	P99     uint64            `json:"p99"`
	Buckets []HistogramBucket `json:"buckets,omitempty"`
}

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count: h.Count(),
		Sum:   h.Sum(),
		Max:   h.Max(),
		Mean:  h.Mean(),
		P50:   h.Quantile(0.50),
		P99:   h.Quantile(0.99),
	}
	for i := 0; i < histBuckets; i++ {
		if c := h.buckets[i].Load(); c > 0 {
			s.Buckets = append(s.Buckets, HistogramBucket{UpperBound: BucketUpperBound(i), Count: c})
		}
	}
	return s
}
