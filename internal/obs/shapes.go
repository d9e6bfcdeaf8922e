package obs

import (
	"encoding/json"
	"sort"
	"sync"
	"sync/atomic"
)

// Heavy-hitter profiling: exact occurrence counts of query *shapes* (op
// kind, bound-position mask, index choice, predicate or mark scheme).
// Cumulative counters say how much work the store did; the shape counts
// say which queries caused it — the "which query is eating this store"
// answer a served SLIM needs. TRIM's select/view/path entry points and the
// Mark Manager's resilient resolve count into the process-wide
// DefaultTopQueries; /debug/top, `trimq top`, and `markctl top` rank it
// when they read it.
//
// Each shape is one ShapeCount: its key and an atomic counter. A caller
// looks the ShapeCount up once per key and keeps it beside the key it
// would otherwise build (TRIM keeps a select's in its shape-key cache), so
// counting an occurrence is one atomic add on the shape and one on
// obs.top.recorded, with no lock, no key built and no map lookup. The key
// set stays bounded because shapes exclude subject and object values: a
// select has one key per (mask, index, predicate), a resolve one per
// (scheme, resolver).

// ShapeCount is one query shape's exact occurrence count. Record is safe
// for concurrent use and nil-safe.
type ShapeCount struct {
	key string
	n   atomic.Int64
}

// mTopRecorded counts every recorded shape occurrence, across keys and
// resets: the table's own cost, one per Record.
var mTopRecorded = C(NameObsTopRecorded)

// Record counts one occurrence of the shape.
func (s *ShapeCount) Record() {
	if s == nil {
		return
	}
	s.n.Add(1)
	mTopRecorded.Inc()
}

// Key returns the shape's key.
func (s *ShapeCount) Key() string {
	if s == nil {
		return ""
	}
	return s.key
}

// TopEntry is one shape with its count.
type TopEntry struct {
	Key   string `json:"key"`
	Count int64  `json:"count"`
	// ErrBound is always 0: counts are exact. It stays in the document
	// for readers of the space-saving sketch the counts replaced.
	ErrBound int64 `json:"err_bound"`
}

// ShapeTable holds one ShapeCount per query shape. All methods are safe
// for concurrent use and nil-safe.
type ShapeTable struct {
	mu     sync.Mutex
	shapes map[string]*ShapeCount // guarded by mu
}

// NewShapeTable returns an empty table.
func NewShapeTable() *ShapeTable {
	return &ShapeTable{shapes: make(map[string]*ShapeCount)}
}

// DefaultTopQueries is the process-wide table every instrumented query
// path counts into.
var DefaultTopQueries = NewShapeTable()

// QueryShape returns the ShapeCount of key in DefaultTopQueries: the entry
// point the instrumented layers (TRIM queries, mark resolution) call, once
// per key where the key is cached.
func QueryShape(key string) *ShapeCount { return DefaultTopQueries.Shape(key) }

// Shape returns the ShapeCount of key, adding it on the key's first use.
// A nil table returns nil, whose Record does nothing.
func (t *ShapeTable) Shape(key string) *ShapeCount {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s, ok := t.shapes[key]
	if !ok {
		s = &ShapeCount{key: key}
		t.shapes[key] = s
	}
	return s
}

// Top returns the n highest-count shapes that occurred since the last
// Reset, count-descending with key ascending as the deterministic
// tie-break. n <= 0 returns every such shape.
func (t *ShapeTable) Top(n int) []TopEntry {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]TopEntry, 0, len(t.shapes))
	for key, s := range t.shapes {
		if c := s.n.Load(); c > 0 {
			out = append(out, TopEntry{Key: key, Count: c})
		}
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Key < out[j].Key
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// Len returns the number of shape keys the table holds, counted or not.
func (t *ShapeTable) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.shapes)
}

// Recorded returns the occurrences counted since the last Reset, across
// all keys.
func (t *ShapeTable) Recorded() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var n int64
	for _, s := range t.shapes {
		n += s.n.Load()
	}
	return n
}

// Reset zeroes every count. The keys stay, since callers hold their
// ShapeCounts; obs.top.recorded keeps counting.
func (t *ShapeTable) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.shapes {
		s.n.Store(0)
	}
}

// shapeTableJSON is the exported JSON shape of the table.
type shapeTableJSON struct {
	// Capacity is the number of keys the table holds: every key it has
	// seen, each counted exactly.
	Capacity int   `json:"capacity"`
	Recorded int64 `json:"recorded"`
	// Evicted is always 0: no key is ever dropped. It stays in the
	// document for readers of the space-saving sketch it replaced.
	Evicted int64      `json:"evicted"`
	Entries []TopEntry `json:"entries"`
}

// MarshalJSON renders the table for /debug/top: its key count, the
// occurrences since the last Reset, and every shape that occurred,
// count-descending. Entries is always an array, never null.
func (t *ShapeTable) MarshalJSON() ([]byte, error) {
	entries := t.Top(0)
	if entries == nil {
		entries = []TopEntry{}
	}
	return json.Marshal(shapeTableJSON{
		Capacity: t.Len(),
		Recorded: t.Recorded(),
		Entries:  entries,
	})
}
