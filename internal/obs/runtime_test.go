package obs

import (
	"context"
	"math"
	"runtime"
	"runtime/metrics"
	"testing"
	"time"
)

// TestHistDelta: the replay subtracts the previous cumulative state bucket
// by bucket, with nil or reshaped previous states replaying the full
// cumulative histogram, and observes each bucket at its upper bound.
func TestHistDelta(t *testing.T) {
	buckets := []float64{0, 1e-6, 1e-3, math.Inf(1)}
	cur := &metrics.Float64Histogram{Counts: []uint64{5, 13, 4}, Buckets: buckets}
	replayed := func(prev []uint64) HistogramSnapshot {
		h := NewRegistry().Histogram(NameRuntimeSchedLatencyNS, LatencyBounds)
		replayDelta(h, cur, prev)
		return h.Snapshot()
	}

	// Bucket 0 spans [0, 1µs) -> upper bound 1000ns; bucket 2's upper is
	// +Inf -> its lower bound 1ms stands in. So the interval's 3 + 2
	// observations all land at 1ms.
	d := replayed([]uint64{5, 10, 2})
	if d.Count != 5 || d.Sum != 5*1_000_000 || d.Quantile(0.01) != 1_000_000 {
		t.Fatalf("delta replay: count %d sum %d, want 5 at 1ms each", d.Count, d.Sum)
	}
	if full := replayed(nil); full.Count != 22 || full.Quantile(0.2) != 1_000 {
		t.Fatalf("nil prev replayed %d, want the full cumulative 22, the first 5 at 1µs", full.Count)
	}
	if full := replayed([]uint64{1}); full.Count != 22 {
		t.Fatalf("reshaped prev replayed %d, want 22", full.Count)
	}
	// A cumulative count going backwards (should not happen) replays
	// nothing for that bucket instead of underflowing.
	if d := replayed([]uint64{9, 9, 9}); d.Count != 4 {
		t.Fatalf("backwards prev replayed %d, want 4", d.Count)
	}
}

// TestRuntimeDeltaQuantiles: an interval's runtime delta, replayed into a
// registry histogram, comes back out of two consecutive snapshots with its
// own quantiles: deltaSnapshot drops what the histogram held before.
func TestRuntimeDeltaQuantiles(t *testing.T) {
	h := NewRegistry().Histogram(NameRuntimeSchedLatencyNS, LatencyBounds)
	for i := 0; i < 1000; i++ {
		h.Observe(int64(500 * time.Millisecond)) // an earlier interval
	}
	before := h.Snapshot()
	// Buckets [0, 1µs), [1µs, 50µs), [50µs, 1ms): upper bounds 1µs, 50µs
	// and 1ms.
	replayDelta(h, &metrics.Float64Histogram{
		Counts:  []uint64{90, 9, 1},
		Buckets: []float64{0, 1e-6, 50e-6, 1e-3},
	}, nil)
	d := deltaSnapshot(h.Snapshot(), before)
	if want := int64(90*1_000 + 9*50_000 + 1_000_000); d.Count != 100 || d.Sum != want {
		t.Fatalf("interval count %d sum %d, want 100 and %d", d.Count, d.Sum, want)
	}
	if q := d.Quantile(0.5); q != 1_000 {
		t.Fatalf("p50 = %d, want 1000", q)
	}
	if q := d.Quantile(0.95); q != 50_000 {
		t.Fatalf("p95 = %d, want 50000", q)
	}
	if q := d.Quantile(1); q != 1_000_000 {
		t.Fatalf("p100 = %d, want 1000000", q)
	}
}

// TestRuntimeSamplerRead: a real read populates the gauges and feeds the
// sched-latency registry histogram; a later read adds the interval's
// deltas only.
func TestRuntimeSamplerRead(t *testing.T) {
	rs := newRuntimeSampler(NewRegistry())
	rs.read()
	// The process has been scheduling goroutines since startup, so the
	// first (cumulative) read cannot be empty.
	if rs.hSched.Snapshot().Count == 0 {
		t.Fatal("first sched read saw no scheduling events")
	}
	if rs.gMaxprocs.Value() < 1 {
		t.Fatalf("gomaxprocs gauge = %d", rs.gMaxprocs.Value())
	}
	if rs.gObjects.Value() <= 0 {
		t.Fatalf("heap objects gauge = %d", rs.gObjects.Value())
	}
	if rs.reg.Gauge(NameFlightGoroutines).Value() <= 0 {
		t.Fatal("flight gauges not republished")
	}

	// Force some GC activity so the pause distribution moves, then check
	// the second read carries it.
	before := rs.hGC.Snapshot()
	runtime.GC()
	runtime.GC()
	rs.read()
	if d := deltaSnapshot(rs.hGC.Snapshot(), before); d.Count == 0 {
		t.Fatal("second read saw no GC pauses after two forced GCs")
	}
}

// TestFlightSampleRuntimeFields: a sample's runtime series has ordered
// sched quantiles, and FlightCheck trips when the last interval's p99
// scheduling latency lies past the histogram's last finite bound (1 s),
// which Quantile itself can only report as 1 s.
func TestFlightSampleRuntimeFields(t *testing.T) {
	reg := NewRegistry()
	s := NewSampler(reg, 4)
	runtime.GC()
	s.SampleNow()
	s.SampleNow()
	r := s.Load().Runtime[1]
	if r.SchedLatP95NS < r.SchedLatP50NS || r.SchedLatP99NS < r.SchedLatP95NS {
		t.Fatalf("sched quantiles disordered: %+v", r)
	}
	if r.GCPauseP95NS < 0 || r.NumGC <= 0 {
		t.Fatalf("GC series: %+v", r)
	}

	s.interval = time.Hour // the test takes every sample itself
	s.Start()
	defer s.Stop()
	check := FlightCheck(s)
	if err := check(context.Background()); err != nil {
		t.Fatalf("healthy sampler degraded: %v", err)
	}
	// A stalled interval: far more scheduling delays of 2 s than the
	// runtime replays in one interval.
	reg.Histogram(NameRuntimeSchedLatencyNS, LatencyBounds).observeN(int64(2*time.Second), 1_000_000)
	s.SampleNow()
	if q := s.Load().Runtime; q[len(q)-1].SchedLatP99NS != int64(time.Second) {
		t.Fatalf("stalled interval p99 = %d, want the last finite bound", q[len(q)-1].SchedLatP99NS)
	}
	if err := check(context.Background()); err == nil {
		t.Fatal("scheduler stall not reported")
	}
}
