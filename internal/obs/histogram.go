package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// LatencyBounds are the standard latency bucket upper bounds in
// nanoseconds: 1µs to 1s on a 1-5-10 ladder, plus an implicit +Inf bucket.
// They cover everything from an index-served TRIM select (~µs) to a full
// pad load (~ms–s).
var LatencyBounds = []int64{
	1_000, 5_000, 10_000, 50_000, 100_000, 500_000, // 1µs .. 500µs
	1_000_000, 5_000_000, 10_000_000, 50_000_000, 100_000_000, 500_000_000, // 1ms .. 500ms
	1_000_000_000, // 1s
}

// SizeBounds are the standard bucket upper bounds for count-valued
// histograms (batch sizes, triples touched per DMI op).
var SizeBounds = []int64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000}

// Histogram is a fixed-bucket histogram with atomic buckets: Observe is
// lock-free and safe for concurrent use. Bucket i counts observations
// v <= bounds[i]; the final bucket counts everything larger (+Inf). The
// observation count is the buckets' sum, taken when it is read, so an
// Observe writes two atomics, or one for a zero (a free lock's wait).
type Histogram struct {
	bounds  []int64
	buckets []atomic.Int64
	sum     atomic.Int64
}

func newHistogram(bounds []int64) *Histogram {
	bs := make([]int64, len(bounds))
	copy(bs, bounds)
	sort.Slice(bs, func(i, j int) bool { return bs[i] < bs[j] })
	return &Histogram{bounds: bs, buckets: make([]atomic.Int64, len(bs)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	h.buckets[h.bucket(v)].Add(1)
	if v != 0 {
		h.sum.Add(v)
	}
}

// bucket returns the index of the bucket counting v: the first bound at or
// above it, or the +Inf bucket. The bounds are few and most values land
// low, so a scan up from the smallest beats a binary search.
func (h *Histogram) bucket(v int64) int {
	for i, b := range h.bounds {
		if v <= b {
			return i
		}
	}
	return len(h.bounds)
}

// ObserveSince records the nanoseconds elapsed since start: the one-liner
// for latency instrumentation (defer-friendly via a captured time.Now()).
func (h *Histogram) ObserveSince(start time.Time) {
	h.Observe(int64(time.Since(start)))
}

// observeN records n observations of value v in one shot: the bulk entry
// point for replaying external distributions (runtime/metrics bucket
// deltas) into a registry histogram without n separate Observe calls.
func (h *Histogram) observeN(v, n int64) {
	if n <= 0 {
		return
	}
	h.buckets[h.bucket(v)].Add(n)
	h.sum.Add(v * n)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	var n int64
	for i := range h.buckets {
		n += h.buckets[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// HistogramSnapshot is a consistent-enough copy of a histogram for export.
// (Individual loads are atomic; a snapshot taken mid-Observe may be off by
// the in-flight observation, which is fine for monitoring.)
type HistogramSnapshot struct {
	Count int64 `json:"count"`
	Sum   int64 `json:"sum"`
	// Bounds[i] is the inclusive upper bound of Buckets[i]; Buckets has one
	// more entry than Bounds — the +Inf bucket.
	Bounds  []int64 `json:"bounds"`
	Buckets []int64 `json:"buckets"`
}

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Sum:     h.sum.Load(),
		Bounds:  h.bounds,
		Buckets: make([]int64, len(h.buckets)),
	}
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
		s.Count += s.Buckets[i]
	}
	return s
}

// Mean returns the average observed value (0 when empty).
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile returns an upper-bound estimate of the q-quantile (0 < q <= 1):
// the upper bound of the bucket containing the q*Count-th observation. The
// +Inf bucket reports the largest finite bound.
func (s HistogramSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 || len(s.Bounds) == 0 {
		return 0
	}
	rank := int64(q * float64(s.Count))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i, b := range s.Buckets {
		seen += b
		if seen >= rank {
			if i < len(s.Bounds) {
				return s.Bounds[i]
			}
			return s.Bounds[len(s.Bounds)-1]
		}
	}
	return s.Bounds[len(s.Bounds)-1]
}

// bucketString renders the buckets cumulatively with explicit upper
// bounds: every bucket that received observations prints its bound and the
// cumulative count at that bound, and the line always ends with the total
// at le_inf — " le_1000=3 le_5000=5 le_inf=7". Cumulative counts are
// monotone by construction, matching the Prometheus exposition.
func (s HistogramSnapshot) bucketString() string {
	var b strings.Builder
	var cum int64
	for i, n := range s.Buckets {
		cum += n
		if i == len(s.Bounds) {
			fmt.Fprintf(&b, " le_inf=%d", cum)
		} else if n != 0 {
			fmt.Fprintf(&b, " le_%d=%d", s.Bounds[i], cum)
		}
	}
	return b.String()
}
