package obs

import (
	"math"
	"runtime"
	"runtime/metrics"
)

// runtime/metrics integration: the runtime exports cumulative
// distributions of goroutine scheduling latency and GC pause time that
// nothing in the stack surfaced — wedge detection could see goroutine
// counts but not scheduler stalls. Each sampler tick reads them, diffs
// against the previous read, and replays the per-interval bucket deltas
// into registry histograms (runtime.sched.latency.ns, runtime.gc.pause.ns),
// so /metrics and /debug/load's windows and runtime series see scheduler
// and GC pressure alongside the store's own latencies. The same tick
// republishes runtime.MemStats as the flight.* gauges.

// Runtime metric names sampled each tick.
const (
	rmSchedLatencies = "/sched/latencies:seconds"
	rmGCPauses       = "/gc/pauses:seconds"
	rmMutexWait      = "/sync/mutex/wait/total:seconds"
	rmHeapObjects    = "/gc/heap/objects:objects"
	rmGomaxprocs     = "/sched/gomaxprocs:threads"
)

// runtimeSampler reads the runtime/metrics samples and tracks the
// previous cumulative state so each read yields interval deltas. It is
// not safe for concurrent use; the sampler serializes calls under its own
// mutex.
type runtimeSampler struct {
	reg     *Registry
	samples []metrics.Sample
	// prevSched and prevGC are the previous read's bucket counts, copied
	// out: the runtime reuses the backing arrays across Read calls when
	// handed the same sample slice.
	prevSched []uint64
	prevGC    []uint64
	prevWait  float64

	hSched    *Histogram
	hGC       *Histogram
	cWait     *Counter
	gObjects  *Gauge
	gMaxprocs *Gauge
}

func newRuntimeSampler(reg *Registry) *runtimeSampler {
	return &runtimeSampler{
		reg: reg,
		samples: []metrics.Sample{
			{Name: rmSchedLatencies},
			{Name: rmGCPauses},
			{Name: rmMutexWait},
			{Name: rmHeapObjects},
			{Name: rmGomaxprocs},
		},
		hSched:    reg.Histogram(NameRuntimeSchedLatencyNS, LatencyBounds),
		hGC:       reg.Histogram(NameRuntimeGCPauseNS, LatencyBounds),
		cWait:     reg.Counter(NameRuntimeMutexWaitNS),
		gObjects:  reg.Gauge(NameRuntimeHeapObjects),
		gMaxprocs: reg.Gauge(NameRuntimeGomaxprocs),
	}
}

// read samples the runtime and updates the registry series: the flight.*
// gauges, the replayed sched-latency and GC-pause histograms, the
// mutex-wait counter, and the heap-object and GOMAXPROCS gauges.
func (rs *runtimeSampler) read() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rs.reg.Gauge(NameFlightGoroutines).Set(int64(runtime.NumGoroutine()))
	rs.reg.Gauge(NameFlightHeapAlloc).Set(int64(ms.HeapAlloc))
	rs.reg.Gauge(NameFlightHeapInuse).Set(int64(ms.HeapInuse))
	rs.reg.Gauge(NameFlightGCCount).Set(int64(ms.NumGC))
	rs.reg.Gauge(NameFlightGCPauseLast).Set(int64(ms.PauseNs[(ms.NumGC+255)%256]))
	rs.reg.Gauge(NameFlightGCNext).Set(int64(ms.NextGC))

	metrics.Read(rs.samples)
	for i := range rs.samples {
		s := &rs.samples[i]
		switch s.Name {
		case rmSchedLatencies:
			if s.Value.Kind() == metrics.KindFloat64Histogram {
				cur := s.Value.Float64Histogram()
				replayDelta(rs.hSched, cur, rs.prevSched)
				rs.prevSched = append(rs.prevSched[:0], cur.Counts...)
			}
		case rmGCPauses:
			if s.Value.Kind() == metrics.KindFloat64Histogram {
				cur := s.Value.Float64Histogram()
				replayDelta(rs.hGC, cur, rs.prevGC)
				rs.prevGC = append(rs.prevGC[:0], cur.Counts...)
			}
		case rmMutexWait:
			if s.Value.Kind() == metrics.KindFloat64 {
				cur := s.Value.Float64()
				if d := cur - rs.prevWait; d > 0 {
					rs.cWait.Add(int64(d * 1e9))
				}
				rs.prevWait = cur
			}
		case rmHeapObjects:
			if s.Value.Kind() == metrics.KindUint64 {
				rs.gObjects.Set(int64(s.Value.Uint64()))
			}
		case rmGomaxprocs:
			if s.Value.Kind() == metrics.KindUint64 {
				rs.gMaxprocs.Set(int64(s.Value.Uint64()))
			}
		}
	}
}

// bucketNS picks the representative nanosecond value for bucket i of a
// runtime histogram: its upper bound, falling back to the lower bound
// when the upper is +Inf (and 0 when both are infinite).
func bucketNS(buckets []float64, i int) int64 {
	// Buckets has len(Counts)+1 boundaries; bucket i spans
	// [buckets[i], buckets[i+1]).
	if i+1 < len(buckets) && !math.IsInf(buckets[i+1], 0) {
		return int64(buckets[i+1] * 1e9)
	}
	if i < len(buckets) && !math.IsInf(buckets[i], 0) {
		return int64(buckets[i] * 1e9)
	}
	return 0
}

// replayDelta feeds one interval's bucket deltas, cur less the previous
// read's counts prev, into a registry histogram at each bucket's
// representative value. An empty or shape-mismatched prev (first read, or
// the runtime regrew the distribution) replays the full cumulative state;
// a bucket whose count went backwards (it should not) replays nothing.
func replayDelta(h *Histogram, cur *metrics.Float64Histogram, prev []uint64) {
	samePrev := len(prev) == len(cur.Counts)
	for i, n := range cur.Counts {
		if samePrev {
			if prev[i] > n {
				continue
			}
			n -= prev[i]
		}
		if n > 0 {
			h.observeN(bucketNS(cur.Buckets, i), int64(n))
		}
	}
}
