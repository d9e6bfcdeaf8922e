package obs

import (
	"context"
	"encoding/json"
	"testing"
	"time"
)

// fakeClock hands the sampler a deterministic timeline so rate math is
// exact in tests.
type fakeClock struct {
	t time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1_700_000_000, 0)}
}

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

// fakeSampler returns a sampler over a fresh registry on a fake clock.
func fakeSampler(capacity int) (*Sampler, *Registry, *fakeClock) {
	reg := NewRegistry()
	s := NewSampler(reg, capacity)
	clk := newFakeClock()
	s.now = clk.now
	return s, reg, clk
}

// TestWindowRingWraparound: the ring keeps the newest capacity samples,
// oldest-first with non-decreasing timestamps, and obs.window.samples
// counts every sample taken.
func TestWindowRingWraparound(t *testing.T) {
	s, _, clk := fakeSampler(4)
	taken := mWindowSamples.Value()
	for i := 0; i < 10; i++ {
		s.SampleNow()
		clk.advance(time.Second)
	}
	if got := mWindowSamples.Value() - taken; got != 10 {
		t.Errorf("obs.window.samples rose by %d, want 10", got)
	}
	samples := s.recent()
	if len(samples) != 4 {
		t.Fatalf("retained %d samples, want 4", len(samples))
	}
	for i := 1; i < len(samples); i++ {
		if samples[i].TimeUnixNS < samples[i-1].TimeUnixNS {
			t.Fatalf("samples out of order: %+v", samples)
		}
	}
	// The newest retained sample is the 10th (t0 + 9s).
	wantNewest := time.Unix(1_700_000_000, 0).Add(9 * time.Second).UnixNano()
	if got := samples[len(samples)-1].TimeUnixNS; got != wantNewest {
		t.Fatalf("newest sample at %d, want %d", got, wantNewest)
	}
}

// TestWindowRateMath: counter rates are delta over actual covered span,
// and the two windows pick different baselines once the timeline is long
// enough to distinguish them.
func TestWindowRateMath(t *testing.T) {
	s, reg, clk := fakeSampler(16)
	c := reg.Counter("w.test.ops")

	s.SampleNow() // t0: counter 0
	clk.advance(2 * time.Minute)
	c.Add(100)
	s.SampleNow() // t0+120s: counter 100
	clk.advance(time.Minute)
	c.Add(30)
	s.SampleNow() // t0+180s: counter 130

	rep := s.Load()
	if rep.Samples != 3 {
		t.Fatalf("Samples = %d, want 3", rep.Samples)
	}

	// 1m window: baseline is the t0+120s sample → delta 30 over 60s.
	w1 := rep.Windows["1m"]
	if w1.SpanNS != int64(time.Minute) {
		t.Fatalf("1m span = %v, want 1m", time.Duration(w1.SpanNS))
	}
	cw := w1.Counters["w.test.ops"]
	if cw.Delta != 30 || cw.RatePerS != 0.5 {
		t.Fatalf("1m counter window = %+v, want delta 30 rate 0.5", cw)
	}

	// 5m window: the whole 180s timeline fits → delta 130 over 180s.
	w5 := rep.Windows["5m"]
	if w5.SpanNS != int64(3*time.Minute) {
		t.Fatalf("5m span = %v, want 3m", time.Duration(w5.SpanNS))
	}
	cw = w5.Counters["w.test.ops"]
	if cw.Delta != 130 {
		t.Fatalf("5m delta = %d, want 130", cw.Delta)
	}
	if want := 130.0 / 180.0; cw.RatePerS < want-1e-9 || cw.RatePerS > want+1e-9 {
		t.Fatalf("5m rate = %v, want %v", cw.RatePerS, want)
	}
}

// TestWindowDeltaPercentiles: window percentiles reflect only the
// observations inside the window, not the lifetime distribution.
func TestWindowDeltaPercentiles(t *testing.T) {
	s, reg, clk := fakeSampler(16)
	h := reg.Histogram("w.test.ns", LatencyBounds)

	// Lifetime history: a thousand slow ops before the window opens.
	for i := 0; i < 1000; i++ {
		h.Observe(int64(50 * time.Millisecond))
	}
	s.SampleNow()
	clk.advance(30 * time.Second)
	// Inside the window: three fast ops.
	for i := 0; i < 3; i++ {
		h.Observe(int64(20 * time.Microsecond))
	}
	s.SampleNow()

	rep := s.Load()
	hw := rep.Windows["1m"].Histograms["w.test.ns"]
	if hw.Count != 3 {
		t.Fatalf("window count = %d, want 3", hw.Count)
	}
	if want := 3.0 / 30.0; hw.RatePerS != want {
		t.Fatalf("window rate = %v, want %v", hw.RatePerS, want)
	}
	lifetimeP50 := h.Snapshot().Quantile(0.5)
	if hw.P50 >= lifetimeP50 {
		t.Fatalf("delta p50 %d not below lifetime p50 %d", hw.P50, lifetimeP50)
	}
	if hw.P99 >= int64(time.Millisecond) {
		t.Fatalf("delta p99 = %d, want fast-bucket estimate", hw.P99)
	}
}

// TestWindowSingleSample: one sample means no span — zero deltas and
// rates, but a well-formed report.
func TestWindowSingleSample(t *testing.T) {
	s, reg, _ := fakeSampler(4)
	reg.Counter("w.single").Add(7)
	s.SampleNow()

	rep := s.Load()
	w1 := rep.Windows["1m"]
	if w1.SpanNS != 0 {
		t.Fatalf("span = %d, want 0", w1.SpanNS)
	}
	if cw := w1.Counters["w.single"]; cw.Delta != 0 || cw.RatePerS != 0 {
		t.Fatalf("counter window = %+v, want zeros", cw)
	}
	if len(rep.Runtime) != 1 {
		t.Fatalf("runtime series = %+v, want one row", rep.Runtime)
	}
}

// TestWindowLoadEmpty: a never-sampled sampler still returns a complete
// report shape.
func TestWindowLoadEmpty(t *testing.T) {
	s := NewSampler(NewRegistry(), 4)
	rep := s.Load()
	if rep.Samples != 0 || rep.Running || rep.Runtime == nil || rep.IntervalNS != int64(SampleInterval) {
		t.Fatalf("empty report = %+v", rep)
	}
	for _, label := range []string{"1m", "5m"} {
		if _, ok := rep.Windows[label]; !ok {
			t.Fatalf("missing %s window in empty report", label)
		}
	}
}

// TestWindowStartStop: Start samples immediately and keeps sampling, with
// counters written concurrently; Start/Stop are idempotent; samples
// survive Stop.
func TestWindowStartStop(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("w.live")
	s := NewSampler(reg, 32)
	s.interval = 10 * time.Millisecond
	s.Start()
	s.Start() // idempotent
	if !s.Running() {
		t.Fatal("started sampler not running")
	}
	deadline := time.Now().Add(2 * time.Second)
	for len(s.recent()) < 3 && time.Now().Before(deadline) {
		c.Inc() // concurrent writes while the sampler snapshots
		time.Sleep(2 * time.Millisecond)
	}
	if got := len(s.recent()); got < 3 {
		t.Fatalf("sampler produced %d samples in 2s, want >= 3", got)
	}
	s.Stop()
	s.Stop() // idempotent
	if s.Running() {
		t.Fatal("stopped sampler still running")
	}
	if len(s.recent()) == 0 {
		t.Fatal("Stop discarded the samples")
	}
	rep := s.Load()
	if rep.Running || rep.Samples == 0 || rep.IntervalNS != int64(10*time.Millisecond) {
		t.Fatalf("post-Stop report = %+v", rep)
	}
}

// TestWindowNilSafe: a nil sampler answers every method harmlessly.
func TestWindowNilSafe(t *testing.T) {
	var s *Sampler
	s.SampleNow()
	rep := s.Load()
	if rep.Samples != 0 || len(rep.Runtime) != 0 {
		t.Fatalf("nil Load = %+v", rep)
	}
}

// TestFlightRingWraparound: each retained sample carries its runtime
// series, oldest-first, with non-decreasing timestamps.
func TestFlightRingWraparound(t *testing.T) {
	s := NewSampler(NewRegistry(), 3)
	for i := 0; i < 7; i++ {
		s.SampleNow()
	}
	series := s.Load().Runtime
	if len(series) != 3 {
		t.Fatalf("retained %d samples, want 3", len(series))
	}
	for i := 1; i < len(series); i++ {
		if series[i].TimeUnixNS < series[i-1].TimeUnixNS {
			t.Fatalf("samples out of order: %+v", series)
		}
	}
	for i, r := range series {
		if r.Goroutines <= 0 || r.HeapInuseBytes <= 0 {
			t.Fatalf("sample %d looks empty: %+v", i, r)
		}
	}
}

// TestFlightStartStop: the sampler's JSON report is the /debug/load
// document: running state, interval, windows and the runtime series.
func TestFlightStartStop(t *testing.T) {
	s := NewSampler(NewRegistry(), 16)
	s.interval = 10 * time.Millisecond
	s.Start()
	deadline := time.Now().Add(2 * time.Second)
	for len(s.recent()) < 2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := len(s.recent()); got < 2 {
		t.Fatalf("sampler produced %d samples in 2s, want ≥ 2", got)
	}
	s.Stop()

	var m struct {
		Running    bool            `json:"running"`
		IntervalNS int64           `json:"interval_ns"`
		Windows    map[string]any  `json:"windows"`
		Runtime    []RuntimeSample `json:"runtime"`
	}
	data, err := json.Marshal(s.Load())
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if m.Running || m.IntervalNS != int64(10*time.Millisecond) || len(m.Windows) != 2 || len(m.Runtime) < 2 {
		t.Fatalf("marshalled state = %+v", m)
	}
}

// TestFlightGauges: each sample republishes the flight.* gauges into the
// sampled registry, so the snapshot carries them.
func TestFlightGauges(t *testing.T) {
	reg := NewRegistry()
	s := NewSampler(reg, 4)
	s.SampleNow()
	if got := reg.Gauge(NameFlightGoroutines).Value(); got <= 0 {
		t.Errorf("%s gauge = %d, want > 0", NameFlightGoroutines, got)
	}
	if got := reg.Gauge(NameFlightHeapAlloc).Value(); got <= 0 {
		t.Errorf("%s gauge = %d, want > 0", NameFlightHeapAlloc, got)
	}
	if got := s.recent()[0].Gauges[NameFlightHeapInuse]; got <= 0 {
		t.Errorf("the sample's %s = %d, want > 0", NameFlightHeapInuse, got)
	}
}

// TestFlightCheck: the health probe fails when stopped, passes while
// sampling, and fails when the sampler wedges (stale last sample).
func TestFlightCheck(t *testing.T) {
	s, _, clk := fakeSampler(4)
	s.interval = 10 * time.Second // no tick lands while the test runs
	check := FlightCheck(s)
	if err := check(context.Background()); err == nil {
		t.Fatal("check passed on a stopped sampler")
	}
	s.Start()
	defer s.Stop()
	if err := check(context.Background()); err != nil {
		t.Fatalf("check failed on a running sampler: %v", err)
	}

	// A wedged sampler: running, but its last sample is a minute old.
	clk.advance(time.Minute)
	if err := check(context.Background()); err == nil {
		t.Fatal("check passed on a wedged sampler")
	}
}

// TestFlightNilSafe: a nil sampler answers Start, Stop, Running and the
// health check harmlessly.
func TestFlightNilSafe(t *testing.T) {
	var s *Sampler
	s.Start()
	s.Stop()
	if s.Running() {
		t.Fatal("nil sampler running")
	}
	if err := FlightCheck(s)(context.Background()); err == nil {
		t.Fatal("check passed on a nil sampler")
	}
}
