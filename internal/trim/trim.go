// Package trim implements TRIM, the Triple Manager of the SLIM architecture
// (paper §4.4): "To manage triples, we use the TRIM (Triple Manager)
// sub-component, which handles basic operations over the triple
// representation. Through TRIM, the DMI can create, remove, persist (through
// XML files), query, and create simple views over the underlying triples."
//
// The Manager is a concurrency-safe, fully indexed in-memory triple store
// over interned terms (store.go). Selection queries (any subset of
// subject/predicate/object fixed) are served from per-term posting lists;
// views are reachability closures from a root resource.
package trim

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/rdf"
)

// Manager is the TRIM triple manager. The zero value is not usable; call
// NewManager. All methods are safe for concurrent use.
type Manager struct {
	// mu is the store lock, instrumented: wait/hold histograms land in the
	// lock.trim.store.* metric families and /debug/contention.
	mu *obs.TrackedRWMutex
	// st holds the triples in the interned layout (store.go): the term
	// dictionary, the id triples, one posting list per term and position,
	// and the per-predicate cardinalities. Guarded by mu.
	st store
	// generation increments on every successful mutation; observers and
	// optimistic readers use it to detect change. Guarded by mu.
	generation uint64
	// seqObservers receive every mutation with its generation stamp; the
	// WAL backend uses the stamp to order captured ops exactly even when
	// concurrent mutators deliver out of order. Guarded by mu.
	seqObservers map[int]SeqObserver // guarded by mu
	nextObsID    int                 // guarded by mu
	// pending stages observer notifications while mu is held; the mutating
	// call drains and delivers them after unlocking. Guarded by mu.
	pending []obsEvent
}

// SeqObserver receives change notifications: added is true for
// insertions, false for removals, and gen is the store generation at
// which the mutation committed. Generations are unique and strictly
// increasing per mutation, so a consumer that buffers events from
// concurrent mutators can sort by gen to recover the exact commit order —
// the property the WAL backend's replay correctness rests on. Observers
// run synchronously on the mutating goroutine after the store lock is
// released: within one mutating call events arrive in mutation order,
// between concurrent calls the order is unspecified. Because no lock is
// held, observers may call back into the Manager; a slow observer delays
// only its own mutating call, not readers.
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
		st:           newStore(0),
		seqObservers: make(map[int]SeqObserver),
	}
}

// Create inserts a triple. It reports whether the triple was new; inserting
// a triple already present is a no-op returning false, matching the set
// semantics of the underlying graph.
func (m *Manager) Create(t rdf.Triple) (bool, error) {
	return m.create(nil, t, rdf.Triple{}, -1)
}

// ErrGuard fails a guarded write whose required triple was not stored when
// it committed. The write changed nothing.
var ErrGuard = errors.New("trim: required triple not stored")

// LimitError fails a guarded create whose subject already held Max or more
// values of its predicate. The create changed nothing.
type LimitError struct{ Have, Max int }

func (e *LimitError) Error() string {
	return fmt.Sprintf("trim: %d values stored, max %d", e.Have, e.Max)
}

// CreateGuardedCtx is CreateCtx for a write that must still hold when it
// commits. Unless requires is the zero triple, it must be stored, or the
// create fails with ErrGuard; unless max is negative, t's subject must hold
// fewer than max values of t's predicate, or the create fails with a
// *LimitError. Both are checked in the lock hold that stores t.
func (m *Manager) CreateGuardedCtx(ctx context.Context, t, requires rdf.Triple, max int) (bool, error) {
	_, sp := obs.StartCtx(ctx, "trim.create", "")
	return m.create(sp, t, requires, max)
}

// create is CreateGuardedCtx traced by sp (nil for none), which it
// finishes. The triple is validated before the lock is taken.
func (m *Manager) create(sp *obs.Span, t, requires rdf.Triple, max int) (added bool, err error) {
	start := sp.StartNS()
	var end int64
	if err = t.Validate(); err != nil {
		err = fmt.Errorf("trim: create: %w", err)
		end = obs.Nanotime()
	} else {
		m.mu.LockAt(start)
		if err = m.guardLocked(t, requires, max); err == nil {
			added = m.createLocked(t)
		}
		end = m.unlockDeliver()
	}
	d := time.Duration(end - start)
	mCreateNS.Observe(int64(d))
	mCreateTotal.Inc()
	switch {
	case err != nil:
		mCreateErrors.Inc()
	case added:
		mCreateNew.Inc()
	}
	sp.FinishDur(d, err)
	return added, err
}

// guardLocked checks a guarded write against the store under the held
// lock: requires, unless zero, is stored, and t's subject holds fewer than
// max values of t's predicate, unless max is negative.
func (m *Manager) guardLocked(t, requires rdf.Triple, max int) error {
	if requires != (rdf.Triple{}) {
		if _, _, ok := m.st.find(requires); !ok {
			return ErrGuard
		}
	}
	if max >= 0 {
		i, j := m.st.predRun(m.st.lookup(t.Subject), t.Predicate)
		if j-i >= max {
			return &LimitError{Have: j - i, Max: max}
		}
	}
	return nil
}

// createLocked stores a validated triple, reporting whether it was new.
func (m *Manager) createLocked(t rdf.Triple) bool {
	if !m.st.add(t) {
		return false
	}
	m.generation++
	m.queueNotifyLocked(t, true)
	return true
}

// setLocked applies a staged Set under the held lock: it checks the
// requirement, removes the subject's run of the predicate in list order,
// and stores the new triple where the run was. Each change goes on the
// undo log, which it returns; a failed requirement changes nothing. A
// removed triple's object is released at once, so the new value can take
// its slot, but the subject and predicate stay live across the swap,
// since the new triple carries both, and the predicate keeps its
// cardinality record.
func (m *Manager) setLocked(op setOp, log []undo) ([]undo, error) {
	if err := m.guardLocked(op.t, op.requires, -1); err != nil {
		return log, err
	}
	st := &m.st
	sid := st.lookup(op.t.Subject)
	i, j := st.predRun(sid, op.t.Predicate)
	for ; j > i; j-- {
		// The run's next entry closes up to index i.
		r := st.dict[sid].post[posS][i]
		gone := st.triple(r)
		if k := st.removeRow(r, i); k[posO] != k[posS] && k[posO] != k[posP] {
			st.release(k[posO])
		}
		m.generation++
		m.queueNotifyLocked(gone, false)
		log = append(log, undo{t: gone, readd: true})
	}
	// Index i still sorts the triple into its subject's list: everything
	// before it has a smaller predicate, everything after a larger one.
	st.place(idTriple{st.intern(op.t.Subject), st.intern(op.t.Predicate), st.intern(op.t.Object)}, i)
	m.generation++
	m.queueNotifyLocked(op.t, true)
	return append(log, undo{t: op.t}), nil
}

// Remove deletes an exact triple, reporting whether it was present.
func (m *Manager) Remove(t rdf.Triple) bool {
	m.mu.Lock()
	removed := m.removeLocked(t)
	events, targets := m.drainLocked()
	m.mu.Unlock()
	m.deliver(targets, events)
	mRemoveTotal.Inc()
	if removed {
		mRemoveHit.Inc()
	}
	return removed
}

func (m *Manager) removeLocked(t rdf.Triple) bool {
	if !m.st.remove(t) {
		return false
	}
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
	events, targets := m.drainLocked()
	m.mu.Unlock()
	m.deliver(targets, events)
	return len(matches)
}

// Has reports whether the exact triple is stored.
func (m *Manager) Has(t rdf.Triple) bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	_, _, ok := m.st.find(t)
	return ok
}

// Len returns the number of stored triples.
func (m *Manager) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.st.rows)
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
// subject, object, or predicate binding narrows the scan to that term's
// posting list; a fully wild pattern scans the whole store.
func (m *Manager) Select(p rdf.Pattern) []rdf.Triple {
	return m.SelectFiltered(p, nil)
}

// SelectFiltered is Select restricted to the matching triples keep
// accepts; a nil keep accepts every triple. keep sees each index candidate
// that matches the pattern before the result is sorted, so a selective
// filter saves the sort and the copy of everything it rejects. It counts,
// explains and journals as one select. keep runs under the store's read
// lock and must not call back into the Manager.
func (m *Manager) SelectFiltered(p rdf.Pattern, keep func(rdf.Triple) bool) []rdf.Triple {
	return m.selectQuery(nil, p, keep, nil, nil)
}

// selectQuery is every select entry point: the query under the read lock,
// its latency, count and shape, and its span (nil for none), which it
// finishes. The result uses buf's storage when it has room (buf is
// empty; nil for none). An explained query passes its empty report as
// explain, which comes back complete, its Query included.
func (m *Manager) selectQuery(sp *obs.Span, p rdf.Pattern, keep func(rdf.Triple) bool, explain *Explain, buf []rdf.Triple) []rdf.Triple {
	var report Explain
	e := explain
	if e == nil {
		e = &report
	}
	start := sp.StartNS()
	m.mu.RLockAt(start)
	out, shape := m.selectExplainLocked(e, p, keep, buf)
	end := obs.Nanotime()
	m.mu.RUnlockAt(end)
	d := time.Duration(end - start)
	mSelectNS.Observe(int64(d))
	mSelectTotal.Inc()
	shape.Record()
	e.WallNS = int64(d)
	finishQuery(sp, "trim.select", e, explain != nil, p.String)
	return out
}

// selectLocked runs a selection under a held lock, with no report.
func (m *Manager) selectLocked(p rdf.Pattern) []rdf.Triple {
	q, list, choice := m.st.plan(p)
	choice.count()
	return m.st.collect(q, list, choice, nil, nil)
}

// Count returns the number of triples matching the pattern without
// materializing them.
func (m *Manager) Count(p rdf.Pattern) int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	mCountTotal.Inc()
	q, list, choice := m.st.plan(p)
	choice.count()
	return m.st.count(q, list, choice)
}

// One returns the single triple matching the pattern. It returns an error
// when zero or more than one triple matches; callers use it to read
// single-valued properties. It counts, explains and journals as one
// select, and its result lives on the stack, so a single match allocates
// nothing.
func (m *Manager) One(p rdf.Pattern) (rdf.Triple, error) {
	var buf [2]rdf.Triple // room to tell one match from several
	matches := m.selectQuery(nil, p, nil, nil, buf[:0])
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
// triple (subject, predicate, object): a batch of one Set, with no
// requirement. The DMI's Update_ operations stage the same Set, requiring
// the instance's rdf:type triple.
func (m *Manager) SetUnique(subject, predicate, object rdf.Term) error {
	b := m.NewBatch()
	if err := b.Set(rdf.T(subject, predicate, object), rdf.Triple{}); err != nil {
		return err
	}
	return b.Apply()
}

// Snapshot returns an independent copy of the entire graph.
func (m *Manager) Snapshot() *rdf.Graph {
	m.mu.RLock()
	defer m.mu.RUnlock()
	g := rdf.NewGraph()
	for r := range m.st.rows {
		// Stored triples were validated on the way in.
		g.Add(m.st.triple(int32(r)))
	}
	return g
}

// Replace swaps the manager's contents for the given graph, building a
// fresh store outside the lock. It is the load primitive for persistence.
// Loaded triples count toward trim.create.total/new (they enter the store
// like any create) and additionally toward trim.load.triples, which tells
// bulk loads apart; trim.create.ns records only individual Create calls.
// Replace notifies no observer.
func (m *Manager) Replace(g *rdf.Graph) {
	start := time.Now()
	defer mLoadNS.ObserveSince(start)
	b := newBulk(g.Len())
	g.Each(func(t rdf.Triple) bool {
		// A graph holds only validated triples.
		b.add(idTriple{b.id(t.Subject), b.id(t.Predicate), b.id(t.Object)})
		return true
	})
	m.install(b.done())
}

// load swaps the manager's contents for a decoded store file's triples:
// the build step of a file load, timed and counted as Replace is.
func (m *Manager) load(d rdf.Interned) {
	start := time.Now()
	defer mLoadNS.ObserveSince(start)
	m.install(buildStore(d))
}

// install swaps in a freshly built store, counting its triples as loaded
// and created. It notifies no observer.
func (m *Manager) install(fresh store) {
	n := int64(len(fresh.rows))
	mLoadTriples.Add(n)
	mCreateTotal.Add(n)
	mCreateNew.Add(n)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.st = fresh
	m.generation++
}

// Clear removes every triple.
func (m *Manager) Clear() {
	m.Replace(rdf.NewGraph())
}

// ObserveSeq registers an observer and returns a handle for Unobserve.
func (m *Manager) ObserveSeq(obs SeqObserver) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	id := m.nextObsID
	m.nextObsID++
	m.seqObservers[id] = obs
	return id
}

// Unobserve removes a previously registered observer.
func (m *Manager) Unobserve(id int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.seqObservers, id)
}

// queueNotifyLocked stages one observer notification. Callbacks must not
// run here — the caller holds mu, and observer code is allowed to be slow
// and to call back into the Manager — so the event is queued and the
// mutating entry point delivers it after unlocking. The generation stamp
// is captured now, under the lock, where it is exact.
func (m *Manager) queueNotifyLocked(t rdf.Triple, added bool) {
	if len(m.seqObservers) == 0 {
		return
	}
	m.pending = append(m.pending, obsEvent{gen: m.generation, t: t, added: added})
}

// drainLocked takes the staged notifications and a snapshot of the current
// observers. It returns data, not a closure: delivery happens in the
// caller, demonstrably outside the lock.
func (m *Manager) drainLocked() ([]obsEvent, []SeqObserver) {
	if len(m.pending) == 0 {
		return nil, nil
	}
	events := m.pending
	m.pending = nil
	targets := make([]SeqObserver, 0, len(m.seqObservers))
	for _, o := range m.seqObservers {
		targets = append(targets, o)
	}
	return events, targets
}

// unlockDeliver releases the write lock an op took with LockAt and
// delivers the events it staged. It returns the clock reading the op ends
// on: the lock's release, read again after a delivery.
func (m *Manager) unlockDeliver() int64 {
	events, targets := m.drainLocked()
	end := obs.Nanotime()
	m.mu.UnlockAt(end)
	if len(events) > 0 && len(targets) > 0 {
		m.deliver(targets, events)
		end = obs.Nanotime()
	}
	return end
}

// deliver fans staged events out to the observer snapshot, in mutation
// order, with no lock held.
func (m *Manager) deliver(targets []SeqObserver, events []obsEvent) {
	if len(events) == 0 || len(targets) == 0 {
		return
	}
	mNotifyFanout.Add(int64(len(events)) * int64(len(targets)))
	for _, ev := range events {
		for _, o := range targets {
			o(ev.gen, ev.t, ev.added)
		}
	}
}
