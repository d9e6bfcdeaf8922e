package main

import (
	"math"
	"math/bits"
)

// recorder is a log-linear latency histogram: values below 2^subBits
// nanoseconds get one bucket each, and every power of two above that is
// split into 2^(subBits-1) equal buckets. With subBits = 8 no bucket is
// wider than 1/128 (0.78%) of its lower bound, so a quantile read from a
// bucket is within 0.78% of the exact sample quantile. Recording is an
// index computation and an increment: no allocation and no lock, so each
// client owns its recorders.
type recorder struct {
	counts [recBuckets]int64
	n      int64
	sum    int64
	max    int64
}

const (
	subBits    = 8
	subCount   = 1 << subBits // exact buckets below this value
	halfCount  = subCount / 2 // buckets per power of two above it
	maxExp     = 64 - subBits // largest shift a uint64 value needs
	recBuckets = subCount + maxExp*halfCount
)

func bucketOf(v int64) int {
	if v < subCount {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v)) - subBits
	return subCount + (e-1)*halfCount + int(v>>uint(e)) - halfCount
}

// bucketRange returns the inclusive lower bound and the width of bucket i.
func bucketRange(i int) (lo, width int64) {
	if i < subCount {
		return int64(i), 1
	}
	e := (i-subCount)/halfCount + 1
	m := int64((i-subCount)%halfCount + halfCount)
	return m << uint(e), 1 << uint(e)
}

func (r *recorder) add(ns int64) {
	r.counts[bucketOf(ns)]++
	r.n++
	r.sum += ns
	if ns > r.max {
		r.max = ns
	}
}

func (r *recorder) merge(o *recorder) {
	for i, c := range o.counts {
		r.counts[i] += c
	}
	r.n += o.n
	r.sum += o.sum
	if o.max > r.max {
		r.max = o.max
	}
}

// quantile returns the nearest-rank q-quantile in nanoseconds: the
// ceil(q*n)-th smallest sample, placed within its bucket by assuming the
// bucket's samples are spread evenly across it.
func (r *recorder) quantile(q float64) float64 {
	if r.n == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(r.n)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i, c := range r.counts {
		if seen+c >= rank {
			lo, w := bucketRange(i)
			return float64(lo) + float64(w)*(float64(rank-seen)-0.5)/float64(c)
		}
		seen += c
	}
	return float64(r.max)
}

// beyond reports how many samples lie above the q-quantile's rank; a
// percentile is reported only when at least ten samples lie beyond it.
func (r *recorder) beyond(q float64) int64 {
	return r.n - int64(math.Ceil(q*float64(r.n)))
}

func (r *recorder) mean() float64 {
	if r.n == 0 {
		return 0
	}
	return float64(r.sum) / float64(r.n)
}
