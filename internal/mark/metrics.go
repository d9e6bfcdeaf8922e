package mark

import (
	"fmt"
	"maps"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Per-scheme metrics quantify the §4.2/§5 claim that routing every mark
// operation through a per-scheme module keeps dispatch cheap while letting
// modules vary: mark.dispatch.<scheme> counts module dispatches,
// mark.<op>.<scheme>.ns the end-to-end latency (module plus base
// application), and mark.<op>.<scheme>.errors the failures.
//
// Scheme names come from the module registry, so the metric-name space is
// bounded by the number of registered base applications; unknown-mark
// failures, where no scheme is knowable, land under the "unknown" scheme.
const unknownScheme = "unknown"

// markOpKey names one op of one scheme.
type markOpKey struct{ op, scheme string }

// markOpSeries are one (op, scheme) pair's slow-ring name and latency
// histogram, and its scheme's dispatch counter. The counter is resolved on
// the pair's first dispatch, so a scheme that never dispatches (an unknown
// mark's) stays out of the exported metrics.
type markOpSeries struct {
	slowOp       string // "mark.<op>"
	ns           *obs.Histogram
	scheme       string
	dispatchOnce sync.Once
	dispatch     *obs.Counter
}

// markOps maps each (op, scheme) pair seen to its series, so a mark op
// builds its metric names and looks them up once per pair, not per call.
// Readers load the map without a lock; a new pair copies it under
// markOpsMu and stores the copy.
var (
	markOps   atomic.Pointer[map[markOpKey]*markOpSeries]
	markOpsMu sync.Mutex
)

// opSeries returns the series of op on scheme's marks.
func opSeries(op, scheme string) *markOpSeries {
	k := markOpKey{op, scheme}
	if m := markOps.Load(); m != nil {
		if s, ok := (*m)[k]; ok {
			return s
		}
	}
	markOpsMu.Lock()
	defer markOpsMu.Unlock()
	old := markOps.Load()
	if old != nil {
		if s, ok := (*old)[k]; ok {
			return s
		}
	}
	next := make(map[markOpKey]*markOpSeries)
	if old != nil {
		maps.Copy(next, *old)
	}
	s := &markOpSeries{
		slowOp: "mark." + op,
		ns:     obs.H(fmt.Sprintf(obs.FmtMarkOpNS, op, scheme)),
		scheme: scheme,
	}
	next[k] = s
	markOps.Store(&next)
	return s
}

// markDispatch counts one module dispatch of op on scheme's marks.
func markDispatch(op, scheme string) {
	s := opSeries(op, scheme)
	s.dispatchOnce.Do(func() { s.dispatch = obs.C(fmt.Sprintf(obs.FmtMarkDispatch, s.scheme)) })
	s.dispatch.Inc()
}

// markOpDone records one mark-manager operation: latency always, the
// error counter when err is non-nil, and a slow-ring entry when the op
// met the slow-op threshold (a stalled base application is the classic
// slow op in this layer).
func markOpDone(op, scheme string, start time.Time, err error) {
	if scheme == "" {
		scheme = unknownScheme
	}
	d := time.Since(start)
	s := opSeries(op, scheme)
	s.ns.Observe(int64(d))
	obs.DefaultTracer.SlowOp(s.slowOp, d, err, func() string { return "scheme=" + scheme })
	if err != nil {
		obs.C(fmt.Sprintf(obs.FmtMarkOpErrors, op, scheme)).Inc()
		obs.Log().Warn("mark op failed", "op", op, "scheme", scheme, "err", err)
	}
}
