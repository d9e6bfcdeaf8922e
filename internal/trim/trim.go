// Package trim implements TRIM, the Triple Manager of the SLIM architecture
// (paper §4.4): "To manage triples, we use the TRIM (Triple Manager)
// sub-component, which handles basic operations over the triple
// representation. Through TRIM, the DMI can create, remove, persist (through
// XML files), query, and create simple views over the underlying triples."
//
// The Manager is a concurrency-safe, fully indexed in-memory triple store.
// Selection queries (any subset of subject/predicate/object fixed) are served
// from hash indexes; views are reachability closures from a root resource.
package trim

import (
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/rdf"
)

// Manager is the TRIM triple manager. The zero value is not usable; call
// NewManager. All methods are safe for concurrent use.
type Manager struct {
	// mu is the store lock, instrumented: wait/hold histograms land in the
	// lock.trim.store.* metric families and /debug/contention — the
	// telemetry the ROADMAP item-2 sharding work is scored against.
	mu *obs.TrackedRWMutex
	// graph is the ground truth set of triples; guarded by mu.
	graph *rdf.Graph
	// Hash indexes, one per triple position. Values are sets of triples.
	bySubject   map[rdf.Term]map[rdf.Triple]struct{} // guarded by mu
	byPredicate map[rdf.Term]map[rdf.Triple]struct{} // guarded by mu
	byObject    map[rdf.Term]map[rdf.Triple]struct{} // guarded by mu
	// predCards tracks per-predicate cardinality (triples, distinct
	// subjects/objects), maintained by the mutation points so EXPLAIN's
	// selectivity estimates are always exact. Guarded by mu.
	predCards map[rdf.Term]*predCard
	// generation increments on every successful mutation; observers and
	// optimistic readers use it to detect change. Guarded by mu.
	generation uint64
	observers  map[int]Observer // guarded by mu
	// seqObservers receive the same events with their generation stamp;
	// the WAL backend uses the stamp to order captured ops exactly even
	// when concurrent mutators deliver out of order. Guarded by mu.
	seqObservers map[int]SeqObserver // guarded by mu
	nextObsID    int                 // guarded by mu
	// pending stages observer notifications while mu is held; the mutating
	// call drains and delivers them after unlocking. Guarded by mu.
	pending []obsEvent
}

// Observer receives change notifications. Added is true for insertions,
// false for removals. Observers run synchronously on the mutating
// goroutine after the store lock is released: within one mutating call
// events arrive in mutation order, between concurrent calls the order is
// unspecified. Because no lock is held, observers may call back into the
// Manager; a slow observer delays only its own mutating call, not readers.
type Observer func(t rdf.Triple, added bool)

// SeqObserver is an Observer that additionally receives the store
// generation at which the mutation committed. Generations are unique and
// strictly increasing per mutation, so a consumer that buffers events from
// concurrent mutators can sort by gen to recover the exact commit order —
// the property the WAL backend's replay correctness rests on.
type SeqObserver func(gen uint64, t rdf.Triple, added bool)

// obsEvent is one staged observer notification.
type obsEvent struct {
	gen   uint64
	t     rdf.Triple
	added bool
}

// NewManager returns an empty triple manager.
func NewManager() *Manager {
	return &Manager{
		mu:           obs.NewTrackedRWMutex(obs.LockTrimStore),
		graph:        rdf.NewGraph(),
		bySubject:    make(map[rdf.Term]map[rdf.Triple]struct{}),
		byPredicate:  make(map[rdf.Term]map[rdf.Triple]struct{}),
		byObject:     make(map[rdf.Term]map[rdf.Triple]struct{}),
		predCards:    make(map[rdf.Term]*predCard),
		observers:    make(map[int]Observer),
		seqObservers: make(map[int]SeqObserver),
	}
}

// Create inserts a triple. It reports whether the triple was new; inserting
// a triple already present is a no-op returning false, matching the set
// semantics of the underlying graph.
func (m *Manager) Create(t rdf.Triple) (bool, error) {
	start := time.Now()
	m.mu.Lock()
	added, err := m.createLocked(t)
	events, targets, seqTargets := m.drainLocked()
	m.mu.Unlock()
	m.deliver(targets, seqTargets, events)
	mCreateNS.ObserveSince(start)
	mCreateTotal.Inc()
	switch {
	case err != nil:
		mCreateErrors.Inc()
	case added:
		mCreateNew.Inc()
	}
	return added, err
}

func (m *Manager) createLocked(t rdf.Triple) (bool, error) {
	added, err := m.graph.Add(t)
	if err != nil {
		return false, fmt.Errorf("trim: create: %w", err)
	}
	if !added {
		return false, nil
	}
	indexAdd(m.bySubject, t.Subject, t)
	indexAdd(m.byPredicate, t.Predicate, t)
	indexAdd(m.byObject, t.Object, t)
	m.cardAddLocked(t)
	m.generation++
	m.queueNotifyLocked(t, true)
	return true, nil
}

// Remove deletes an exact triple, reporting whether it was present.
func (m *Manager) Remove(t rdf.Triple) bool {
	m.mu.Lock()
	removed := m.removeLocked(t)
	events, targets, seqTargets := m.drainLocked()
	m.mu.Unlock()
	m.deliver(targets, seqTargets, events)
	mRemoveTotal.Inc()
	if removed {
		mRemoveHit.Inc()
	}
	return removed
}

func (m *Manager) removeLocked(t rdf.Triple) bool {
	if !m.graph.Remove(t) {
		return false
	}
	indexRemove(m.bySubject, t.Subject, t)
	indexRemove(m.byPredicate, t.Predicate, t)
	indexRemove(m.byObject, t.Object, t)
	m.cardRemoveLocked(t)
	m.generation++
	m.queueNotifyLocked(t, false)
	return true
}

// RemoveMatching deletes every triple matching the pattern and returns how
// many were removed.
func (m *Manager) RemoveMatching(p rdf.Pattern) int {
	m.mu.Lock()
	matches := m.selectLocked(p)
	for _, t := range matches {
		m.removeLocked(t)
	}
	events, targets, seqTargets := m.drainLocked()
	m.mu.Unlock()
	m.deliver(targets, seqTargets, events)
	return len(matches)
}

// Has reports whether the exact triple is stored.
func (m *Manager) Has(t rdf.Triple) bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.graph.Has(t)
}

// Len returns the number of stored triples.
func (m *Manager) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.graph.Len()
}

// Generation returns the mutation counter; it increases on every successful
// create or remove.
func (m *Manager) Generation() uint64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.generation
}

// advanceGeneration raises the mutation counter to at least gen, so later
// mutations are stamped above it.
func (m *Manager) advanceGeneration(gen uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.generation < gen {
		m.generation = gen
	}
}

// Select returns all triples matching the pattern in deterministic order.
// The query planner uses the most selective available index: an exact
// subject, object, or predicate binding narrows the scan to that index
// bucket; a fully wild pattern scans the whole store.
func (m *Manager) Select(p rdf.Pattern) []rdf.Triple {
	start := time.Now()
	m.mu.RLock()
	out, e := m.selectExplainLocked(p)
	m.mu.RUnlock()
	d := time.Since(start)
	mSelectNS.Observe(int64(d))
	mSelectTotal.Inc()
	recordSelectShape(p, e.Index)
	if obs.DefaultSlowOps.Slow(d) {
		e.Query = p.String()
		e.WallNS = int64(d)
		e.journal(start)
	}
	return out
}

// selectLocked runs a selection under a held lock, discarding the explain.
func (m *Manager) selectLocked(p rdf.Pattern) []rdf.Triple {
	out, _ := m.selectExplainLocked(p)
	return out
}

// chooseIndexLocked picks the smallest applicable index bucket. The second
// result is indexNone when no position is bound (full scan needed).
func (m *Manager) chooseIndexLocked(p rdf.Pattern) (map[rdf.Triple]struct{}, indexChoice) {
	var best map[rdf.Triple]struct{}
	choice := indexNone
	consider := func(idx map[rdf.Term]map[rdf.Triple]struct{}, key rdf.Term, which indexChoice) {
		if key.IsZero() {
			return
		}
		bucket := idx[key] // nil bucket = empty result, still a valid choice
		if choice == indexNone || len(bucket) < len(best) {
			best, choice = bucket, which
		}
	}
	consider(m.bySubject, p.Subject, indexSubject)
	consider(m.byObject, p.Object, indexObject)
	consider(m.byPredicate, p.Predicate, indexPredicate)
	return best, choice
}

// Count returns the number of triples matching the pattern without
// materializing them in sorted order.
func (m *Manager) Count(p rdf.Pattern) int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	mCountTotal.Inc()
	bucket, choice := m.chooseIndexLocked(p)
	choice.count()
	if choice == indexNone {
		return m.graph.Len()
	}
	n := 0
	for t := range bucket {
		if p.Matches(t) {
			n++
		}
	}
	return n
}

// One returns the single triple matching the pattern. It returns an error
// when zero or more than one triple matches; callers use it to read
// single-valued properties.
func (m *Manager) One(p rdf.Pattern) (rdf.Triple, error) {
	matches := m.Select(p)
	switch len(matches) {
	case 0:
		return rdf.Triple{}, fmt.Errorf("trim: no triple matches %v", p)
	case 1:
		return matches[0], nil
	default:
		return rdf.Triple{}, fmt.Errorf("trim: %d triples match %v, want exactly 1", len(matches), p)
	}
}

// Objects returns the object terms of all triples with the given subject
// and predicate, in deterministic order.
func (m *Manager) Objects(subject, predicate rdf.Term) []rdf.Term {
	ts := m.Select(rdf.P(subject, predicate, rdf.Zero))
	out := make([]rdf.Term, len(ts))
	for i, t := range ts {
		out[i] = t.Object
	}
	return out
}

// Subjects returns the subject terms of all triples with the given
// predicate and object, in deterministic order.
func (m *Manager) Subjects(predicate, object rdf.Term) []rdf.Term {
	ts := m.Select(rdf.P(rdf.Zero, predicate, object))
	out := make([]rdf.Term, len(ts))
	for i, t := range ts {
		out[i] = t.Subject
	}
	return out
}

// SetUnique replaces all triples (subject, predicate, *) with the single
// triple (subject, predicate, object): the write primitive behind the DMI's
// Update_ operations.
func (m *Manager) SetUnique(subject, predicate, object rdf.Term) error {
	m.mu.Lock()
	for _, t := range m.selectLocked(rdf.P(subject, predicate, rdf.Zero)) {
		m.removeLocked(t)
	}
	_, err := m.createLocked(rdf.T(subject, predicate, object))
	events, targets, seqTargets := m.drainLocked()
	m.mu.Unlock()
	m.deliver(targets, seqTargets, events)
	return err
}

// Snapshot returns an independent copy of the entire graph.
func (m *Manager) Snapshot() *rdf.Graph {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.graph.Clone()
}

// Replace swaps the manager's contents for the given graph, rebuilding all
// indexes. It is the load primitive for persistence. Loaded triples count
// toward trim.create.total/new (they enter the store like any create) and
// additionally toward trim.load.triples, which tells bulk loads apart;
// trim.create.ns records only individual Create calls.
func (m *Manager) Replace(g *rdf.Graph) {
	start := time.Now()
	defer mLoadNS.ObserveSince(start)
	n := int64(g.Len())
	mLoadTriples.Add(n)
	mCreateTotal.Add(n)
	mCreateNew.Add(n)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.graph = g.Clone()
	m.bySubject = make(map[rdf.Term]map[rdf.Triple]struct{})
	m.byPredicate = make(map[rdf.Term]map[rdf.Triple]struct{})
	m.byObject = make(map[rdf.Term]map[rdf.Triple]struct{})
	m.predCards = make(map[rdf.Term]*predCard)
	m.graph.Each(func(t rdf.Triple) bool {
		indexAdd(m.bySubject, t.Subject, t)
		indexAdd(m.byPredicate, t.Predicate, t)
		indexAdd(m.byObject, t.Object, t)
		m.cardAddLocked(t)
		return true
	})
	m.generation++
}

// Clear removes every triple.
func (m *Manager) Clear() {
	m.Replace(rdf.NewGraph())
}

// Observe registers an observer and returns a handle for Unobserve.
func (m *Manager) Observe(obs Observer) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	id := m.nextObsID
	m.nextObsID++
	m.observers[id] = obs
	return id
}

// ObserveSeq registers a generation-stamped observer and returns a handle
// for Unobserve. Delivery rules match Observe: synchronously on the
// mutating goroutine, after the store lock is released.
func (m *Manager) ObserveSeq(obs SeqObserver) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	id := m.nextObsID
	m.nextObsID++
	m.seqObservers[id] = obs
	return id
}

// Unobserve removes a previously registered observer (plain or seq).
func (m *Manager) Unobserve(id int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.observers, id)
	delete(m.seqObservers, id)
}

// queueNotifyLocked stages one observer notification. Callbacks must not
// run here — the caller holds mu, and observer code is allowed to be slow
// and to call back into the Manager — so the event is queued and the
// mutating entry point delivers it after unlocking. The generation stamp
// is captured now, under the lock, where it is exact.
func (m *Manager) queueNotifyLocked(t rdf.Triple, added bool) {
	if len(m.observers) == 0 && len(m.seqObservers) == 0 {
		return
	}
	m.pending = append(m.pending, obsEvent{gen: m.generation, t: t, added: added})
}

// drainLocked takes the staged notifications and a snapshot of the current
// observers. It returns data, not a closure: delivery happens in the
// caller, demonstrably outside the lock.
func (m *Manager) drainLocked() ([]obsEvent, []Observer, []SeqObserver) {
	if len(m.pending) == 0 {
		return nil, nil, nil
	}
	events := m.pending
	m.pending = nil
	targets := make([]Observer, 0, len(m.observers))
	for _, o := range m.observers {
		targets = append(targets, o)
	}
	seqTargets := make([]SeqObserver, 0, len(m.seqObservers))
	for _, o := range m.seqObservers {
		seqTargets = append(seqTargets, o)
	}
	return events, targets, seqTargets
}

// deliver fans staged events out to the observer snapshots, in mutation
// order, with no lock held.
func (m *Manager) deliver(targets []Observer, seqTargets []SeqObserver, events []obsEvent) {
	if len(events) == 0 || (len(targets) == 0 && len(seqTargets) == 0) {
		return
	}
	mNotifyFanout.Add(int64(len(events)) * int64(len(targets)+len(seqTargets)))
	for _, ev := range events {
		for _, o := range targets {
			o(ev.t, ev.added)
		}
		for _, o := range seqTargets {
			o(ev.gen, ev.t, ev.added)
		}
	}
}

func indexAdd(idx map[rdf.Term]map[rdf.Triple]struct{}, key rdf.Term, t rdf.Triple) {
	set, ok := idx[key]
	if !ok {
		set = make(map[rdf.Triple]struct{})
		idx[key] = set
	}
	set[t] = struct{}{}
}

func indexRemove(idx map[rdf.Term]map[rdf.Triple]struct{}, key rdf.Term, t rdf.Triple) {
	set, ok := idx[key]
	if !ok {
		return
	}
	delete(set, t)
	if len(set) == 0 {
		delete(idx, key)
	}
}
