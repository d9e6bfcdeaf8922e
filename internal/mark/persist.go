package mark

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/base"
	"repro/internal/obs"
	"repro/internal/rdf"
	"repro/internal/trim"
)

// Marks persist in the same triple store as the superimposed information:
// each mark becomes a resource typed mark:Mark plus a per-scheme subclass
// (mark:SpreadsheetMark, mark:XmlMark, ...), mirroring the "one subclass of
// Mark for each type of base information" design of Fig. 3.

// Vocabulary for mark triples.
var (
	ClassMark   = rdf.IRI(rdf.NSMark + "Mark")
	PropScheme  = rdf.IRI(rdf.NSMark + "scheme")
	PropFile    = rdf.IRI(rdf.NSMark + "file")
	PropPath    = rdf.IRI(rdf.NSMark + "path")
	PropExcerpt = rdf.IRI(rdf.NSMark + "excerpt")
)

// MarkIRI returns the resource IRI used to store the mark with the given id.
func MarkIRI(id string) rdf.Term { return rdf.IRI(rdf.NSMark + "id/" + id) }

// SchemeClass returns the per-scheme mark subclass IRI, e.g.
// mark:SpreadsheetMark for scheme "spreadsheet".
func SchemeClass(scheme string) rdf.Term {
	if scheme == "" {
		return ClassMark
	}
	return rdf.IRI(rdf.NSMark + strings.ToUpper(scheme[:1]) + scheme[1:] + "Mark")
}

// SaveTo writes the marks into the triple store, each as the triples
// markTriples lists. Only the marks written since the manager last synced
// with store (by LoadFrom or a successful SaveTo) are staged: a created or
// changed mark is re-written and a removed mark's triples are deleted, so
// a save costs O(changed marks), not O(marks). A save to any other store
// reconciles in full: it re-writes every mark and deletes the stored marks
// the manager no longer holds. The changes are applied as one batch; when
// it fails the store is unchanged and the next save stages them again.
// The record assumes the manager is the only writer of mark triples in the
// store it synced with, and that a store whose contents are replaced is
// read back with LoadFrom, as the load paths of this repository do.
func (mm *Manager) SaveTo(store *trim.Manager) error {
	obs.C(obs.NameMarkPersistSaveTotal).Inc()
	mm.syncMu.Lock()
	defer mm.syncMu.Unlock()

	mm.mu.Lock()
	full := mm.synced != store
	changed := mm.changed
	mm.changed = make(map[string]bool)
	var write []Mark
	var drop []rdf.Term
	if full {
		write = make([]Mark, 0, len(mm.marks))
		for _, m := range mm.marks {
			write = append(write, m)
		}
	} else {
		for id := range changed {
			if m, ok := mm.marks[id]; ok {
				write = append(write, m)
			} else {
				drop = append(drop, MarkIRI(id))
			}
		}
	}
	mm.mu.Unlock()

	if full {
		live := make(map[rdf.Term]bool, len(write))
		for _, m := range write {
			live[MarkIRI(m.ID)] = true
		}
		for _, subj := range store.Subjects(rdf.RDFType, ClassMark) {
			if !live[subj] {
				drop = append(drop, subj)
			}
		}
	}
	err := applyMarks(store, write, drop)

	mm.mu.Lock()
	defer mm.mu.Unlock()
	if err != nil {
		// The store is unchanged, so what it held when each id first
		// changed still holds, whatever was written since.
		for id, stored := range changed {
			mm.changed[id] = stored
		}
		return err
	}
	mm.synced = store
	return nil
}

// applyMarks stages, in id order, the deletion of every mark resource in
// drop and the re-writing of every mark in write, and applies them as one
// batch.
func applyMarks(store *trim.Manager, write []Mark, drop []rdf.Term) error {
	if len(write) == 0 && len(drop) == 0 {
		return nil
	}
	sort.Slice(write, func(i, j int) bool { return write[i].ID < write[j].ID })
	sort.Slice(drop, func(i, j int) bool { return drop[i].Value() < drop[j].Value() })
	b := store.NewBatch()
	for _, iri := range drop {
		if err := b.RemoveMatching(rdf.P(iri, rdf.Zero, rdf.Zero)); err != nil {
			return err
		}
	}
	for _, m := range write {
		if err := b.RemoveMatching(rdf.P(MarkIRI(m.ID), rdf.Zero, rdf.Zero)); err != nil {
			return err
		}
		for _, t := range markTriples(m) {
			if err := b.Create(t); err != nil {
				return fmt.Errorf("mark: saving %s: %w", m.ID, err)
			}
		}
	}
	return b.Apply()
}

// markTriples returns the triples that store m: its mark:Mark and
// per-scheme typing, its address, and its excerpt when it has one.
func markTriples(m Mark) []rdf.Triple {
	iri := MarkIRI(m.ID)
	ts := []rdf.Triple{
		rdf.T(iri, rdf.RDFType, ClassMark),
		rdf.T(iri, rdf.RDFType, SchemeClass(m.Scheme())),
		rdf.T(iri, PropScheme, rdf.String(m.Address.Scheme)),
		rdf.T(iri, PropFile, rdf.String(m.Address.File)),
		rdf.T(iri, PropPath, rdf.String(m.Address.Path)),
	}
	if m.Excerpt != "" {
		ts = append(ts, rdf.T(iri, PropExcerpt, rdf.String(m.Excerpt)))
	}
	return ts
}

// SaveFile persists the mark set to path by writing the marks into the
// triple store and saving it through trim's shared crash-safe write path
// (atomic temp file + fsync + .bak + rename via internal/durable). Every
// binary that persists marks goes through here so the mark store gets the
// same durability ladder as the superimposed-information store.
func (mm *Manager) SaveFile(store *trim.Manager, path string) error {
	if err := mm.SaveTo(store); err != nil {
		return fmt.Errorf("mark: save %s: %w", path, err)
	}
	return store.SaveFile(path)
}

// LoadFile loads the mark set from path through the triple store,
// inheriting trim's corruption detection and .bak fallback. A missing file
// loads as an empty mark set so first runs need no setup.
func (mm *Manager) LoadFile(store *trim.Manager, path string) error {
	if err := store.LoadFile(path); err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil
		}
		return err
	}
	return mm.LoadFrom(store)
}

// LoadFrom reads every mark:Mark resource from the triple store into the
// manager, replacing its current contents, and marks the manager synced
// with store, so the next SaveTo to it writes only later changes. When it
// fails the marks are left as they were and the manager is synced with no
// store, so the next save reconciles in full. The sequence counter
// advances past any loaded ids of the standard "mark-NNNNNN" form, so new
// marks never collide with loaded ones.
func (mm *Manager) LoadFrom(store *trim.Manager) error {
	obs.C(obs.NameMarkPersistLoadTotal).Inc()
	mm.syncMu.Lock()
	defer mm.syncMu.Unlock()
	loaded, maxSeq, err := readMarks(store)
	mm.mu.Lock()
	defer mm.mu.Unlock()
	if err != nil {
		mm.synced = nil
		return err
	}
	for id := range mm.marks {
		if _, ok := loaded[id]; !ok {
			mm.writeLocked(id, Mark{}, false)
		}
	}
	for id, m := range loaded {
		mm.writeLocked(id, m, true)
	}
	mm.changed = make(map[string]bool)
	mm.synced = store
	if maxSeq > mm.nextSeq {
		mm.nextSeq = maxSeq
	}
	return nil
}

// readMarks decodes every mark:Mark resource in store, returning the marks
// by id and the highest "mark-NNNNNN" sequence number among them.
func readMarks(store *trim.Manager) (map[string]Mark, int, error) {
	loaded := make(map[string]Mark)
	maxSeq := 0
	for _, subj := range store.Subjects(rdf.RDFType, ClassMark) {
		iri := subj.Value()
		if !strings.HasPrefix(iri, rdf.NSMark+"id/") {
			return nil, 0, fmt.Errorf("mark: stored mark %s has unexpected IRI form", iri)
		}
		id := strings.TrimPrefix(iri, rdf.NSMark+"id/")
		m := Mark{ID: id}
		scheme, err := store.One(rdf.P(subj, PropScheme, rdf.Zero))
		if err != nil {
			return nil, 0, fmt.Errorf("mark: loading %s: %w", id, err)
		}
		file, err := store.One(rdf.P(subj, PropFile, rdf.Zero))
		if err != nil {
			return nil, 0, fmt.Errorf("mark: loading %s: %w", id, err)
		}
		path, err := store.One(rdf.P(subj, PropPath, rdf.Zero))
		if err != nil {
			return nil, 0, fmt.Errorf("mark: loading %s: %w", id, err)
		}
		m.Address = base.Address{
			Scheme: scheme.Object.Value(),
			File:   file.Object.Value(),
			Path:   path.Object.Value(),
		}
		if t, err := store.One(rdf.P(subj, PropExcerpt, rdf.Zero)); err == nil {
			m.Excerpt = t.Object.Value()
		}
		loaded[id] = m
		var seq int
		if n, _ := fmt.Sscanf(id, "mark-%d", &seq); n == 1 && seq > maxSeq {
			maxSeq = seq
		}
	}
	return loaded, maxSeq, nil
}
