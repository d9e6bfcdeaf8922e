package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Instrumented locks: drop-in replacements for sync.Mutex and
// sync.RWMutex that record how long callers wait to acquire the lock and
// how long they hold it, into per-lock wait/hold histograms plus
// acquisition and contention counters in the Default registry. The wait
// histogram receives a 0 for every uncontended acquisition (detected with
// TryLock, so the fast path costs one CAS plus the histogram's atomics),
// which makes its sample count the acquisition count and keeps windowed
// p95s honest — a lock that is never waited on reports p95 wait = 0, not
// "no data".
//
// Every tracked lock also lands in the process-wide lock table, which
// backs /debug/contention, the obs.contention health check, and the
// per-lock stats trim.Stats() and the CLIs surface. Locks are identified
// by name (a Lock* constant from names.go); creating a second lock with
// the same name shares the first one's metrics, so the table aggregates
// across store instances the way the registry aggregates counters.

// lockModeMetrics is one mode's (read or write) metric handles.
type lockModeMetrics struct {
	wait      *Histogram
	hold      *Histogram
	total     *Counter
	contended *Counter
}

func newLockModeMetrics(name, mode string) lockModeMetrics {
	return lockModeMetrics{
		wait:      H(fmt.Sprintf(FmtLockWaitNS, name, mode)),
		hold:      H(fmt.Sprintf(FmtLockHoldNS, name, mode)),
		total:     C(fmt.Sprintf(FmtLockTotal, name, mode)),
		contended: C(fmt.Sprintf(FmtLockContended, name, mode)),
	}
}

// acquire records one acquisition whose wait started at startNS (0 for an
// uncontended fast-path acquisition).
func (lm *lockModeMetrics) acquired(waitNS int64) {
	lm.total.Inc()
	if waitNS > 0 {
		lm.contended.Inc()
	}
	lm.wait.Observe(waitNS)
}

// TrackedMutex is a sync.Mutex recording wait-time and hold-time
// histograms and contention counters under the given lock name. The zero
// value is not usable; call NewTrackedMutex.
type TrackedMutex struct {
	mu sync.Mutex
	w  lockModeMetrics
	// acquiredNS is the holder's acquisition timestamp; only the goroutine
	// holding mu touches it.
	acquiredNS int64
}

// NewTrackedMutex returns an unlocked tracked mutex registered in the
// process-wide lock table under name.
func NewTrackedMutex(name string) *TrackedMutex {
	m := &TrackedMutex{w: newLockModeMetrics(name, "w")}
	DefaultLocks.add(name, &m.w, nil)
	return m
}

// Lock acquires the mutex, recording the wait.
func (m *TrackedMutex) Lock() {
	if m.mu.TryLock() {
		m.w.acquired(0)
	} else {
		start := time.Now()
		m.mu.Lock()
		m.w.acquired(int64(time.Since(start)))
	}
	m.acquiredNS = time.Now().UnixNano()
}

// Unlock releases the mutex, recording the hold time.
func (m *TrackedMutex) Unlock() {
	m.w.hold.Observe(time.Now().UnixNano() - m.acquiredNS)
	m.mu.Unlock()
}

// TrackedRWMutex is a sync.RWMutex recording wait-time and hold-time
// histograms and contention counters, split by mode: "w" for the
// exclusive side, "r" for readers. Writer hold time is per-acquisition;
// reader hold time is per read *epoch* — the span from the first reader
// entering an idle lock to the last reader leaving — which is exactly the
// span writers are blocked for. The zero value is not usable; call
// NewTrackedRWMutex.
type TrackedRWMutex struct {
	mu sync.RWMutex
	w  lockModeMetrics
	r  lockModeMetrics
	// acquiredNS is the writer's acquisition timestamp; only the goroutine
	// holding the write lock touches it.
	acquiredNS int64
	// readers counts current read holders; readEpochNS is the timestamp at
	// which the current read epoch began (readers went 0 -> 1).
	readers     atomic.Int64
	readEpochNS atomic.Int64
}

// NewTrackedRWMutex returns an unlocked tracked RWMutex registered in the
// process-wide lock table under name.
func NewTrackedRWMutex(name string) *TrackedRWMutex {
	m := &TrackedRWMutex{
		w: newLockModeMetrics(name, "w"),
		r: newLockModeMetrics(name, "r"),
	}
	DefaultLocks.add(name, &m.w, &m.r)
	return m
}

// Lock acquires the write lock, recording the wait.
func (m *TrackedRWMutex) Lock() {
	if m.mu.TryLock() {
		m.w.acquired(0)
	} else {
		start := time.Now()
		m.mu.Lock()
		m.w.acquired(int64(time.Since(start)))
	}
	m.acquiredNS = time.Now().UnixNano()
}

// Unlock releases the write lock, recording the hold time.
func (m *TrackedRWMutex) Unlock() {
	m.w.hold.Observe(time.Now().UnixNano() - m.acquiredNS)
	m.mu.Unlock()
}

// readSpin is how long RLock retries TryRLock before it parks. Writers on
// the stores hold their lock for a few microseconds, far less than a
// parked reader takes to be woken, so a reader that finds a writer
// pending waits less by spinning past it.
const readSpin = 20 * time.Microsecond

// RLock acquires a read lock, recording the wait. A reader that finds the
// lock unavailable retries for readSpin before it parks; the recorded
// wait covers both.
func (m *TrackedRWMutex) RLock() {
	if m.mu.TryRLock() {
		m.r.acquired(0)
	} else {
		start := time.Now()
		for !m.mu.TryRLock() {
			if time.Since(start) >= readSpin {
				m.mu.RLock()
				break
			}
		}
		m.r.acquired(int64(time.Since(start)))
	}
	if m.readers.Add(1) == 1 {
		m.readEpochNS.Store(time.Now().UnixNano())
	}
}

// RUnlock releases a read lock. When the last reader leaves, the read
// epoch's duration is recorded as the read hold time.
func (m *TrackedRWMutex) RUnlock() {
	if m.readers.Add(-1) == 0 {
		m.r.hold.Observe(time.Now().UnixNano() - m.readEpochNS.Load())
	}
	m.mu.RUnlock()
}

// LockModeStats is one mode's (read or write) contention summary: the
// derived numbers for /debug/contention and trim.Stats(). The full
// distributions stay available as the lock_* histogram families on
// /metrics.
type LockModeStats struct {
	// Total counts acquisitions; Contended those that had to wait.
	Total     int64 `json:"total"`
	Contended int64 `json:"contended"`
	// Wait quantiles cover every acquisition (0 when the lock was free).
	WaitP50NS   int64   `json:"wait_p50_ns"`
	WaitP95NS   int64   `json:"wait_p95_ns"`
	WaitP99NS   int64   `json:"wait_p99_ns"`
	WaitMeanNS  float64 `json:"wait_mean_ns"`
	HoldP50NS   int64   `json:"hold_p50_ns"`
	HoldP95NS   int64   `json:"hold_p95_ns"`
	HoldP99NS   int64   `json:"hold_p99_ns"`
	HoldMeanNS  float64 `json:"hold_mean_ns"`
	WaitSamples int64   `json:"wait_samples"`
}

func (lm *lockModeMetrics) stats() LockModeStats {
	wait := lm.wait.Snapshot()
	hold := lm.hold.Snapshot()
	return LockModeStats{
		Total:       lm.total.Value(),
		Contended:   lm.contended.Value(),
		WaitP50NS:   wait.Quantile(0.5),
		WaitP95NS:   wait.Quantile(0.95),
		WaitP99NS:   wait.Quantile(0.99),
		WaitMeanNS:  wait.Mean(),
		HoldP50NS:   hold.Quantile(0.5),
		HoldP95NS:   hold.Quantile(0.95),
		HoldP99NS:   hold.Quantile(0.99),
		HoldMeanNS:  hold.Mean(),
		WaitSamples: wait.Count,
	}
}

// LockStats is one tracked lock's contention summary. Read is nil for
// plain mutexes.
type LockStats struct {
	Name  string         `json:"name"`
	Write LockModeStats  `json:"write"`
	Read  *LockModeStats `json:"read,omitempty"`
}

// lockEntry is one named lock's metric handles in the table.
type lockEntry struct {
	w *lockModeMetrics
	r *lockModeMetrics // nil for plain mutexes
}

// LockTable is the registry of tracked locks; it renders
// /debug/contention and feeds ContentionCheck. All methods are safe for
// concurrent use and nil-safe.
type LockTable struct {
	mu    sync.RWMutex
	locks map[string]*lockEntry // guarded by mu
}

// NewLockTable returns an empty lock table.
func NewLockTable() *LockTable {
	return &LockTable{locks: make(map[string]*lockEntry)}
}

// DefaultLocks is the process-wide lock table every tracked lock
// registers into.
var DefaultLocks = NewLockTable()

// add registers a lock's metric handles. Re-registering a name keeps the
// first entry: the handles resolve to the same registry metrics anyway,
// so later instances share the aggregate.
func (t *LockTable) add(name string, w, r *lockModeMetrics) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.locks[name]; ok {
		return
	}
	t.locks[name] = &lockEntry{w: w, r: r}
}

// Profiles returns every tracked lock's stats, sorted by name.
func (t *LockTable) Profiles() []LockStats {
	if t == nil {
		return nil
	}
	t.mu.RLock()
	names := make([]string, 0, len(t.locks))
	entries := make(map[string]*lockEntry, len(t.locks))
	for name, e := range t.locks {
		names = append(names, name)
		entries[name] = e
	}
	t.mu.RUnlock()
	sort.Strings(names)
	out := make([]LockStats, 0, len(names))
	for _, name := range names {
		out = append(out, entries[name].stats(name))
	}
	return out
}

// Profile returns one named lock's stats; ok is false when the name is
// not tracked (no tracked lock was constructed under it yet).
func (t *LockTable) Profile(name string) (LockStats, bool) {
	if t == nil {
		return LockStats{}, false
	}
	t.mu.RLock()
	e, ok := t.locks[name]
	t.mu.RUnlock()
	if !ok {
		return LockStats{}, false
	}
	return e.stats(name), true
}

func (e *lockEntry) stats(name string) LockStats {
	s := LockStats{Name: name, Write: e.w.stats()}
	if e.r != nil {
		r := e.r.stats()
		s.Read = &r
	}
	return s
}

// MarshalJSON renders the table for /debug/contention.
func (t *LockTable) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Locks []LockStats `json:"locks"`
	}{Locks: t.Profiles()})
}

// LockProfiles is shorthand for DefaultLocks.Profiles.
func LockProfiles() []LockStats { return DefaultLocks.Profiles() }

// LockProfile is shorthand for DefaultLocks.Profile.
func LockProfile(name string) (LockStats, bool) { return DefaultLocks.Profile(name) }

// DefaultContentionThreshold is the p95 lock-wait level past which
// ContentionCheck degrades /healthz. Because wait histograms record a 0
// for every uncontended acquisition, crossing it means more than 5% of
// all acquisitions waited that long — sustained contention, not a blip.
const DefaultContentionThreshold = 50 * time.Millisecond

// ContentionCheck returns a health check that fails when any tracked
// lock's p95 wait (read or write side) exceeds threshold (0 means
// DefaultContentionThreshold).
func ContentionCheck(t *LockTable, threshold time.Duration) HealthCheck {
	if threshold <= 0 {
		threshold = DefaultContentionThreshold
	}
	return func(ctx context.Context) error {
		_ = ctx
		for _, l := range t.Profiles() {
			worst := l.Write.WaitP95NS
			mode := "write"
			if l.Read != nil && l.Read.WaitP95NS > worst {
				worst, mode = l.Read.WaitP95NS, "read"
			}
			if worst > int64(threshold) {
				return fmt.Errorf("lock %s: p95 %s wait %s exceeds %s",
					l.Name, mode, time.Duration(worst).Round(time.Microsecond), threshold)
			}
		}
		return nil
	}
}
