// Package obs is a miniature of the real repro/internal/obs, with just
// enough surface for the obscoverage, metricnames, and tracectx fixtures:
// the analyzers key off the import-path suffix "internal/obs", which this
// package shares via the registered path "fixture/internal/obs".
package obs

import (
	"context"
	"time"
)

// Span and StartCtx mirror the causal-tracing surface the tracectx
// analyzer checks.
type Span struct{}

func (s *Span) Finish()                              {}
func (s *Span) FinishErr(err error)                  { _ = err }
func (s *Span) FinishDur(d time.Duration, err error) { _, _ = d, err }
func (s *Span) StartTime() time.Time                 { return time.Time{} }
func (s *Span) Child(op, detail string) *Span        { _, _ = op, detail; return &Span{} }

func StartCtx(ctx context.Context, op, detail string) (context.Context, *Span) {
	_, _ = op, detail
	return ctx, &Span{}
}

func ContextWithSpan(ctx context.Context, s *Span) context.Context { _ = s; return ctx }

// Counter is a metric counter stub.
type Counter struct{ n int64 }

func (c *Counter) Inc()        { c.n++ }
func (c *Counter) Add(d int64) { c.n += d }

// Histogram is a latency/size histogram stub.
type Histogram struct{ n int64 }

func (h *Histogram) Observe(v int64) { h.n += v }

// ShapeCount is a query-shape count stub.
type ShapeCount struct{ n int64 }

func (s *ShapeCount) Record() { s.n++ }

// QueryShape mirrors the real shape-table accessor.
func QueryShape(key string) *ShapeCount { _ = key; return &ShapeCount{} }

// C and H mirror the real registry accessors.
func C(name string) *Counter   { _ = name; return &Counter{} }
func H(name string) *Histogram { _ = name; return &Histogram{} }

// HealthRegistry mirrors the real health-check registry.
type HealthRegistry struct{}

func (r *HealthRegistry) Register(name string, check func() error) { _, _ = name, check }

// TrackedMutex and TrackedRWMutex mirror the real instrumented locks: the
// lock analyzers (lockguard, aliasguard, lockorder) treat Lock/Unlock
// methods from any package whose path ends in internal/obs as lock
// operations, so fixtures can exercise tracked-lock scenarios.
type TrackedMutex struct{ held bool }

func (m *TrackedMutex) Lock()   { m.held = true }
func (m *TrackedMutex) Unlock() { m.held = false }

type TrackedRWMutex struct{ held bool }

func (m *TrackedRWMutex) Lock()    { m.held = true }
func (m *TrackedRWMutex) Unlock()  { m.held = false }
func (m *TrackedRWMutex) RLock()   { m.held = true }
func (m *TrackedRWMutex) RUnlock() { m.held = false }

// Name registry, mirroring internal/obs/names.go.
const (
	NameGoodTotal = "fixture.good.total"
	FmtGoodNS     = "fixture.%s.ns"

	HealthGood = "fixture.good"
)
