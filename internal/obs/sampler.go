package obs

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// The sampler is obs's one background goroutine, started under -serve.
// Every counter and histogram in the registry is cumulative-since-start,
// which answers "how much work has this process ever done" but not "what
// is it doing right now". Once a second the sampler refreshes the runtime
// series (runtime.go: the replayed scheduler and GC distributions and the
// flight.* gauges), then writes one full registry snapshot into a ring.
// /debug/load computes two things from that ring on demand: 1m/5m event
// *rates* and *delta* latency percentiles (percentiles of only the
// observations inside the window, not lifetime), and each sample's
// runtime series, so a slow span in a trace can be checked against what
// the runtime was doing at that instant.

// SampleInterval is the sampler's tick. At 1 s, the default ring's 512
// slots hold ~8.5 minutes: enough to cover the 5m window.
const SampleInterval = time.Second

// Sample is one full registry snapshot at a point in time.
type Sample struct {
	TimeUnixNS int64
	Counters   map[string]int64
	Gauges     map[string]int64
	Hists      map[string]HistogramSnapshot
}

// Sampler snapshots a registry once per SampleInterval into a ring buffer
// and computes windowed deltas and the runtime series from it. Start/Stop
// are idempotent; all methods are safe for concurrent use and nil-safe.
type Sampler struct {
	reg *Registry

	mu   sync.Mutex
	rt   *runtimeSampler // guarded by mu
	ring []Sample        // guarded by mu
	seq  uint64          // guarded by mu

	running atomic.Bool
	stop    chan struct{}
	done    chan struct{}

	// interval is SampleInterval; tests shorten it, and inject a fake
	// clock as now to make rate math exact.
	interval time.Duration
	now      func() time.Time
}

// NewSampler returns a stopped sampler over reg retaining the last
// capacity samples (minimum 2 — a delta needs two points).
func NewSampler(reg *Registry, capacity int) *Sampler {
	if capacity < 2 {
		capacity = 2
	}
	return &Sampler{
		reg: reg, rt: newRuntimeSampler(reg), ring: make([]Sample, capacity),
		interval: SampleInterval, now: time.Now,
	}
}

// DefaultSampler is the process-wide sampler over the Default registry,
// started by the shared obs.CLI when serving diagnostics.
var DefaultSampler = NewSampler(Default, 512)

// mWindowSamples counts snapshots taken; it lands in the sampled registry,
// so a live /debug/load also proves the sampler itself is ticking.
var mWindowSamples = C(NameObsWindowSamples)

// Start begins sampling once per interval until Stop, taking the first
// sample at once, so Load is never empty while running. Starting a running
// sampler is a no-op.
func (s *Sampler) Start() {
	if s == nil || !s.running.CompareAndSwap(false, true) {
		return
	}
	s.stop = make(chan struct{})
	s.done = make(chan struct{})
	s.SampleNow()
	go s.loop(s.stop, s.done)
}

func (s *Sampler) loop(stop, done chan struct{}) {
	defer close(done)
	tick := time.NewTicker(s.interval)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			s.SampleNow()
		}
	}
}

// Stop halts sampling and waits for the sampler goroutine to exit.
// Retained samples survive; Stop on a stopped sampler is a no-op.
func (s *Sampler) Stop() {
	if s == nil || !s.running.CompareAndSwap(true, false) {
		return
	}
	close(s.stop)
	<-s.done
}

// Running reports whether the sampler is active.
func (s *Sampler) Running() bool { return s != nil && s.running.Load() }

// SampleNow takes one sample immediately, independent of the ticker: it
// refreshes the runtime series, then snapshots the registry, gauges
// included, into the ring. The ticker uses it; tests and one-shot CLIs can
// call it to bracket a workload without waiting out the interval.
func (s *Sampler) SampleNow() {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rt.read()
	mWindowSamples.Inc()
	_, counters, _, gauges, _, hists := s.reg.snapshot()
	s.seq++
	s.ring[(s.seq-1)%uint64(len(s.ring))] = Sample{
		TimeUnixNS: s.now().UnixNano(),
		Counters:   counters,
		Gauges:     gauges,
		Hists:      hists,
	}
}

// recent returns the retained samples oldest-first.
func (s *Sampler) recent() []Sample {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.seq
	capacity := uint64(len(s.ring))
	if n > capacity {
		n = capacity
	}
	out := make([]Sample, 0, n)
	for i := s.seq - n; i < s.seq; i++ {
		out = append(out, s.ring[i%capacity])
	}
	return out
}

// CounterWindow is one counter's activity inside a window.
type CounterWindow struct {
	// Delta is the counter increase across the window.
	Delta int64 `json:"delta"`
	// RatePerS is Delta divided by the window's actual span.
	RatePerS float64 `json:"rate_per_s"`
}

// HistWindow is one histogram's activity inside a window: observation
// count/rate plus percentiles of only the window's observations (delta
// percentiles — not lifetime).
type HistWindow struct {
	Count    int64   `json:"count"`
	RatePerS float64 `json:"rate_per_s"`
	Mean     float64 `json:"mean"`
	P50      int64   `json:"p50"`
	P95      int64   `json:"p95"`
	P99      int64   `json:"p99"`
}

// WindowStats aggregates every metric's activity across one window.
type WindowStats struct {
	// WindowNS is the nominal window span; SpanNS the span actually
	// covered (shorter than WindowNS until the process has run that long,
	// zero when only one sample exists).
	WindowNS   int64                    `json:"window_ns"`
	SpanNS     int64                    `json:"span_ns"`
	Counters   map[string]CounterWindow `json:"counters"`
	Histograms map[string]HistWindow    `json:"histograms"`
}

// RuntimeSample is one sample's runtime series: the flight.* gauges it
// recorded, and the scheduling-latency and GC-pause quantiles of the
// interval since the previous retained sample (of the whole process
// before it, for the oldest).
type RuntimeSample struct {
	TimeUnixNS     int64 `json:"time_unix_ns"`
	Goroutines     int64 `json:"goroutines"`
	HeapInuseBytes int64 `json:"heap_inuse_bytes"`
	NumGC          int64 `json:"num_gc"`
	SchedLatP50NS  int64 `json:"sched_lat_p50_ns"`
	SchedLatP95NS  int64 `json:"sched_lat_p95_ns"`
	SchedLatP99NS  int64 `json:"sched_lat_p99_ns"`
	GCPauseP95NS   int64 `json:"gc_pause_p95_ns"`
}

// LoadReport is the /debug/load document: the sampler's state, one
// WindowStats per reported window, and the runtime series oldest-first.
type LoadReport struct {
	Running    bool                   `json:"running"`
	IntervalNS int64                  `json:"interval_ns"`
	Samples    int                    `json:"samples"`
	AsOfUnixNS int64                  `json:"as_of_unix_ns"`
	Windows    map[string]WindowStats `json:"windows"`
	Runtime    []RuntimeSample        `json:"runtime"`
}

// windowLabels are the windows Load reports, in a deterministic order.
var windowLabels = []struct {
	label string
	span  time.Duration
}{
	{"1m", time.Minute},
	{"5m", 5 * time.Minute},
}

// Load computes the report from the retained samples: for each window,
// the newest sample is diffed against the oldest retained sample whose
// age (relative to the newest) is within the window; each sample is
// diffed against the one before it for its runtime series.
func (s *Sampler) Load() LoadReport {
	rep := LoadReport{Windows: make(map[string]WindowStats, len(windowLabels)), Runtime: []RuntimeSample{}}
	if s == nil {
		return rep
	}
	rep.Running = s.Running()
	rep.IntervalNS = int64(s.interval)
	samples := s.recent()
	rep.Samples = len(samples)
	var newest Sample // with no samples, every window comes out empty
	if len(samples) > 0 {
		newest = samples[len(samples)-1]
	}
	rep.AsOfUnixNS = newest.TimeUnixNS
	for _, w := range windowLabels {
		rep.Windows[w.label] = diffWindow(newest, samples, w.span)
	}
	var prev Sample
	for _, cur := range samples {
		rep.Runtime = append(rep.Runtime, runtimeSample(cur, prev))
		prev = cur
	}
	return rep
}

// runtimeSample reads cur's runtime series, diffing its runtime
// histograms against prev's (the zero Sample for none).
func runtimeSample(cur, prev Sample) RuntimeSample {
	sched := deltaSnapshot(cur.Hists[NameRuntimeSchedLatencyNS], prev.Hists[NameRuntimeSchedLatencyNS])
	gc := deltaSnapshot(cur.Hists[NameRuntimeGCPauseNS], prev.Hists[NameRuntimeGCPauseNS])
	return RuntimeSample{
		TimeUnixNS:     cur.TimeUnixNS,
		Goroutines:     cur.Gauges[NameFlightGoroutines],
		HeapInuseBytes: cur.Gauges[NameFlightHeapInuse],
		NumGC:          cur.Gauges[NameFlightGCCount],
		SchedLatP50NS:  sched.Quantile(0.5),
		SchedLatP95NS:  sched.Quantile(0.95),
		SchedLatP99NS:  sched.Quantile(0.99),
		GCPauseP95NS:   gc.Quantile(0.95),
	}
}

// diffWindow diffs the newest sample against the oldest sample inside the
// window span.
func diffWindow(newest Sample, samples []Sample, span time.Duration) WindowStats {
	cutoff := newest.TimeUnixNS - int64(span)
	base := newest
	for _, cand := range samples {
		if cand.TimeUnixNS >= cutoff {
			base = cand
			break
		}
	}
	out := WindowStats{
		WindowNS:   int64(span),
		SpanNS:     newest.TimeUnixNS - base.TimeUnixNS,
		Counters:   make(map[string]CounterWindow, len(newest.Counters)),
		Histograms: make(map[string]HistWindow, len(newest.Hists)),
	}
	secs := float64(out.SpanNS) / float64(time.Second)
	rate := func(delta int64) float64 {
		if secs <= 0 {
			return 0
		}
		return float64(delta) / secs
	}
	for name, v := range newest.Counters {
		delta := v - base.Counters[name] // missing in base (younger counter) = 0 baseline
		out.Counters[name] = CounterWindow{Delta: delta, RatePerS: rate(delta)}
	}
	for name, h := range newest.Hists {
		d := deltaSnapshot(h, base.Hists[name])
		out.Histograms[name] = HistWindow{
			Count:    d.Count,
			RatePerS: rate(d.Count),
			Mean:     d.Mean(),
			P50:      d.Quantile(0.5),
			P95:      d.Quantile(0.95),
			P99:      d.Quantile(0.99),
		}
	}
	return out
}

// deltaSnapshot subtracts an older histogram snapshot from a newer one of
// the same histogram. A zero-value old snapshot (histogram younger than
// the baseline sample) leaves the new snapshot unchanged; mismatched
// bounds (impossible for one registry entry, defensive anyway) fall back
// the same way.
func deltaSnapshot(newer, older HistogramSnapshot) HistogramSnapshot {
	if older.Count == 0 || len(older.Bounds) != len(newer.Bounds) || len(older.Buckets) != len(newer.Buckets) {
		return newer
	}
	d := HistogramSnapshot{
		Count:   newer.Count - older.Count,
		Sum:     newer.Sum - older.Sum,
		Bounds:  newer.Bounds,
		Buckets: make([]int64, len(newer.Buckets)),
	}
	for i := range newer.Buckets {
		d.Buckets[i] = newer.Buckets[i] - older.Buckets[i]
	}
	return d
}

// FlightCheck returns a health check over the sampler's runtime series.
// It fails when the sampler is not running, its last sample is older than
// three intervals (a wedged sampler goroutine), or the last interval's
// p99 goroutine scheduling latency lies past the latency histogram's last
// finite bound (1 s), where Quantile can only report that bound:
// goroutines runnable but starved, which goroutine counts alone cannot
// see.
func FlightCheck(s *Sampler) HealthCheck {
	return func(ctx context.Context) error {
		_ = ctx
		if !s.Running() {
			return fmt.Errorf("sampler not running")
		}
		samples := s.recent()
		if len(samples) == 0 { // Start has not taken its first sample yet
			return nil
		}
		last, prev := samples[len(samples)-1], Sample{}
		if len(samples) > 1 {
			prev = samples[len(samples)-2]
		}
		if age := time.Duration(s.now().UnixNano() - last.TimeUnixNS); age > 3*s.interval {
			return fmt.Errorf("sampler stalled: last sample %s ago (interval %s)", age.Round(time.Millisecond), s.interval)
		}
		sched := deltaSnapshot(last.Hists[NameRuntimeSchedLatencyNS], prev.Hists[NameRuntimeSchedLatencyNS])
		if sched.Count > 0 {
			rank := max(int64(0.99*float64(sched.Count)), 1)
			if sched.Count-sched.Buckets[len(sched.Buckets)-1] < rank {
				return fmt.Errorf("scheduler stall: p99 scheduling latency past %s in the last interval",
					time.Duration(sched.Bounds[len(sched.Bounds)-1]))
			}
		}
		return nil
	}
}
