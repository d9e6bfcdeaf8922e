// Package obs is the observability layer of the SLIM stack: cheap atomic
// counters and fixed-bucket latency histograms in a process-wide registry
// (exportable as Prometheus text, plain text, and JSON), a ring-buffered op
// tracer for post-mortem dumps, nil-safe structured logging over log/slog,
// and a CPU profiling helper shared by the binaries.
//
// The paper's §6 prices SLIM's flexibility in "space efficiency of the data
// and the cost of interpreting manipulations on SLIM Store data" but offers
// no numbers; this package gives every layer (TRIM, Mark Management, the
// DMI, core orchestration) a live counterpart to the EXPERIMENTS.md
// benchmarks. In keeping with DESIGN.md §5 ("keep it lightweight") it is
// standard library only and hot paths pay one or two atomic operations per
// recorded event — and ~nothing when a facility is disabled.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use; all methods are safe for concurrent use.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n may be any non-negative delta; negative deltas are allowed
// but discouraged — counters are meant to be monotonic).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous value: it can go up and down (heap
// bytes, goroutine count). The zero value is ready to use; all methods are
// safe for concurrent use.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the gauge by delta (which may be negative).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Registry holds named counters, gauges, and histograms. Metrics are
// created on first use and live for the life of the registry; callers on
// hot paths should look a metric up once and cache the pointer.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Default is the process-wide registry all SLIM packages record into.
var Default = NewRegistry()

// Counter returns the named counter, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	c = &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns the named gauge, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	g = &Gauge{}
	r.gauges[name] = g
	return g
}

// Histogram returns the named histogram, creating it with the given bucket
// upper bounds if needed. Bounds are fixed at creation; later calls with
// different bounds return the existing histogram unchanged.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	r.mu.RLock()
	h, ok := r.histograms[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.histograms[name]; ok {
		return h
	}
	h = newHistogram(bounds)
	r.histograms[name] = h
	return h
}

// C is shorthand for Default.Counter.
func C(name string) *Counter { return Default.Counter(name) }

// G is shorthand for Default.Gauge.
func G(name string) *Gauge { return Default.Gauge(name) }

// H is shorthand for Default.Histogram with the standard latency buckets.
func H(name string) *Histogram { return Default.Histogram(name, LatencyBounds) }

// HSize is shorthand for Default.Histogram with the standard size buckets
// (batch sizes, triples per op).
func HSize(name string) *Histogram { return Default.Histogram(name, SizeBounds) }

// snapshot captures the registry under the read lock with sorted names, so
// every export format is deterministic.
func (r *Registry) snapshot() (counterNames []string, counters map[string]int64,
	gaugeNames []string, gauges map[string]int64,
	histNames []string, hists map[string]HistogramSnapshot) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	counters = make(map[string]int64, len(r.counters))
	for name, c := range r.counters {
		counterNames = append(counterNames, name)
		counters[name] = c.Value()
	}
	gauges = make(map[string]int64, len(r.gauges))
	for name, g := range r.gauges {
		gaugeNames = append(gaugeNames, name)
		gauges[name] = g.Value()
	}
	hists = make(map[string]HistogramSnapshot, len(r.histograms))
	for name, h := range r.histograms {
		histNames = append(histNames, name)
		hists[name] = h.Snapshot()
	}
	sort.Strings(counterNames)
	sort.Strings(gaugeNames)
	sort.Strings(histNames)
	return
}

// WriteText renders every metric, one per line, sorted by name: counters
// first, then gauges, then histograms with count/sum/mean and their
// nonzero buckets.
func (r *Registry) WriteText(w io.Writer) error {
	counterNames, counters, gaugeNames, gauges, histNames, hists := r.snapshot()
	if _, err := fmt.Fprintln(w, "== obs metrics =="); err != nil {
		return err
	}
	for _, name := range counterNames {
		if _, err := fmt.Fprintf(w, "counter %s %d\n", name, counters[name]); err != nil {
			return err
		}
	}
	for _, name := range gaugeNames {
		if _, err := fmt.Fprintf(w, "gauge %s %d\n", name, gauges[name]); err != nil {
			return err
		}
	}
	for _, name := range histNames {
		s := hists[name]
		if _, err := fmt.Fprintf(w, "histogram %s count=%d sum=%d mean=%.1f p50=%d p95=%d p99=%d%s\n",
			name, s.Count, s.Sum, s.Mean(),
			s.Quantile(0.5), s.Quantile(0.95), s.Quantile(0.99),
			s.bucketString()); err != nil {
			return err
		}
	}
	return nil
}

// registryJSON is the exported JSON shape of a registry.
type registryJSON struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// MarshalJSON exports the registry as
// {"counters":{...},"gauges":{...},"histograms":{...}}. encoding/json
// sorts map keys, so the output is deterministic.
func (r *Registry) MarshalJSON() ([]byte, error) {
	_, counters, _, gauges, _, hists := r.snapshot()
	return json.Marshal(registryJSON{Counters: counters, Gauges: gauges, Histograms: hists})
}
