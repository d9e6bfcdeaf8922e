package trim

import (
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/rdf"
)

// Batch stages a group of creates and removes to be applied atomically.
// DMI operations that touch several triples (Create_Bundle writes the name,
// position, size, and containment triples together) use a batch so readers
// never observe a half-created object.
//
// A Batch is single-use: after Apply or Discard it rejects further staging.
type Batch struct {
	m       *Manager
	creates []rdf.Triple
	removes []rdf.Triple
	// removePatterns are expanded at apply time under the lock, so the batch
	// removes exactly what exists at commit, not at staging.
	removePatterns []rdf.Pattern
	sets           []setOp
	done           bool
}

// setOp is a staged Set: the triple to store and the triple it requires
// (zero for none).
type setOp struct{ t, requires rdf.Triple }

// undo is one entry of an apply's undo log: the inverse of one change.
type undo struct {
	t     rdf.Triple
	readd bool // true: re-add removed triple; false: remove added triple
}

// NewBatch starts an empty batch against the manager.
func (m *Manager) NewBatch() *Batch {
	return &Batch{m: m}
}

// Create stages a triple insertion. Validation happens immediately so the
// caller learns about malformed triples at staging time.
//
// slimvet:noobs staging only; Apply is the commit point and records
// trim.batch.* for the whole batch.
func (b *Batch) Create(t rdf.Triple) error {
	if b.done {
		return fmt.Errorf("trim: batch already finished")
	}
	if err := t.Validate(); err != nil {
		return fmt.Errorf("trim: batch create: %w", err)
	}
	b.creates = append(b.creates, t)
	return nil
}

// Remove stages an exact-triple removal.
//
// slimvet:noobs staging only; Apply records trim.batch.*.
func (b *Batch) Remove(t rdf.Triple) error {
	if b.done {
		return fmt.Errorf("trim: batch already finished")
	}
	b.removes = append(b.removes, t)
	return nil
}

// RemoveMatching stages removal of all triples matching the pattern at
// apply time.
//
// slimvet:noobs staging only; Apply records trim.batch.*.
func (b *Batch) RemoveMatching(p rdf.Pattern) error {
	if b.done {
		return fmt.Errorf("trim: batch already finished")
	}
	b.removePatterns = append(b.removePatterns, p)
	return nil
}

// Set stages replacing every value of t's subject and predicate with t's
// object. At apply, the subject's triples with that predicate are removed
// in (predicate, object) order and t is created, so observers see those
// removes and then one create. Unless requires is the zero triple, it must
// be stored when the Set applies, or the apply fails with ErrGuard and the
// store is unchanged. t is validated here.
//
// slimvet:noobs staging only; Apply records trim.batch.*.
func (b *Batch) Set(t, requires rdf.Triple) error {
	if b.done {
		return fmt.Errorf("trim: batch already finished")
	}
	if err := t.Validate(); err != nil {
		return fmt.Errorf("trim: batch create: %w", err)
	}
	b.sets = append(b.sets, setOp{t: t, requires: requires})
	return nil
}

// Len returns the number of staged operations. A pattern counts as one, a
// Set as two: the remove and the create it stands for.
func (b *Batch) Len() int {
	return len(b.creates) + len(b.removes) + len(b.removePatterns) + 2*len(b.sets)
}

// Apply executes all staged operations under one lock acquisition: pattern
// removes, exact removes, creates, then Sets in staging order. Removes run
// before creates so a batch can replace a property value. On any error
// every already-applied operation is rolled back and the store is unchanged.
func (b *Batch) Apply() error {
	return b.apply(nil)
}

// apply is Apply traced by sp (nil for none), which it finishes.
func (b *Batch) apply(sp *obs.Span) error {
	if b.done {
		err := fmt.Errorf("trim: batch already finished")
		sp.FinishErr(err)
		return err
	}
	b.done = true
	start := sp.StartNS()
	m := b.m
	m.mu.LockAt(start)
	err := b.applyLocked(m)
	// Observer delivery happens after unlock; on rollback the staged
	// events include the inverse operations, so observers still see a
	// sequence that nets out to no change.
	d := time.Duration(m.unlockDeliver() - start)
	mBatchTotal.Inc()
	mBatchOps.Observe(int64(b.Len()))
	mBatchNS.Observe(int64(d))
	sp.FinishDur(d, err)
	return err
}

// applyLocked runs the staged operations under the caller-held store lock.
// Staging validated every triple, so only a Set's requirement can fail.
func (b *Batch) applyLocked(m *Manager) error {
	var buf [4]undo
	log := buf[:0]
	for _, p := range b.removePatterns {
		for _, t := range m.selectLocked(p) {
			if m.removeLocked(t) {
				log = append(log, undo{t: t, readd: true})
			}
		}
	}
	for _, t := range b.removes {
		if m.removeLocked(t) {
			log = append(log, undo{t: t, readd: true})
		}
	}
	for _, t := range b.creates {
		if m.createLocked(t) {
			log = append(log, undo{t: t})
		}
	}
	for _, op := range b.sets {
		var err error
		if log, err = m.setLocked(op, log); err != nil {
			m.rollbackLocked(log)
			return fmt.Errorf("trim: batch apply: %w", err)
		}
	}
	return nil
}

// rollbackLocked undoes an apply's changes, newest first, under the held
// store lock.
func (m *Manager) rollbackLocked(log []undo) {
	for i := len(log) - 1; i >= 0; i-- {
		if u := log[i]; u.readd {
			m.createLocked(u.t)
		} else {
			m.removeLocked(u.t)
		}
	}
}

// Discard abandons the batch without touching the store.
func (b *Batch) Discard() {
	b.done = true
	b.creates, b.removes, b.removePatterns, b.sets = nil, nil, nil, nil
}
