package trim

import (
	"fmt"
	"testing"

	"repro/internal/rdf"
)

// checkLayout verifies the interned layout's internal invariants: the
// dictionary holds exactly the terms some triple carries, free slots are
// empty, every row is findable, every subject list names only its own
// triples, strictly in (predicate, object) term order and each at the
// slot a search finds for it, and every predicate and object entry and
// its row's offset point at each other.
func checkLayout(t *testing.T, m *Manager) {
	t.Helper()
	m.mu.RLock()
	defer m.mu.RUnlock()
	st := &m.st
	if len(st.dict) != len(st.ids)+len(st.free) {
		t.Fatalf("dictionary spans %d ids: %d live + %d free", len(st.dict), len(st.ids), len(st.free))
	}
	for term, id := range st.ids {
		e := st.dict[id]
		if e.term != term || len(e.post[posS])+len(e.post[posP])+len(e.post[posO]) == 0 {
			t.Fatalf("id %d: term %v with %d/%d/%d postings, dictionary says %v",
				id, e.term, len(e.post[posS]), len(e.post[posP]), len(e.post[posO]), term)
		}
	}
	for _, id := range st.free {
		if e := st.dict[id]; !e.term.IsZero() || e.post[posS] != nil || e.post[posP] != nil || e.post[posO] != nil {
			t.Fatalf("free id %d holds %v", id, e.term)
		}
	}
	if len(st.where) != len(st.rows) {
		t.Fatalf("%d rows, %d in the triple map", len(st.rows), len(st.where))
	}
	for id, e := range st.dict {
		list := e.post[posS]
		for i, r := range list {
			if int(r) >= len(st.rows) || st.rows[r].ids[posS] != int32(id) {
				t.Fatalf("subject %d: entry %d names row %d, not one of its triples", id, i, r)
			}
			if i == 0 {
				continue
			}
			prev, next := st.triple(list[i-1]), st.triple(r)
			if c := prev.Predicate.Compare(next.Predicate); c > 0 || c == 0 && prev.Object.Compare(next.Object) >= 0 {
				t.Fatalf("subject %d: entry %d %v is not before entry %d %v", id, i-1, prev, i, next)
			}
		}
	}
	for r, rw := range st.rows {
		if got, ok := st.where[rw.ids]; !ok || got != int32(r) {
			t.Fatalf("row %d: triple map says %d, %v", r, got, ok)
		}
		if i, ok := st.subjectSlot(rw.ids); !ok || st.dict[rw.ids[posS]].post[posS][i] != int32(r) {
			t.Fatalf("row %d: subject search finds slot %d, %v", r, i, ok)
		}
		for pos := posP; pos <= posO; pos++ {
			at := rw.at[pos-posP]
			if list := st.dict[rw.ids[pos]].post[pos]; int(at) >= len(list) || list[at] != int32(r) {
				t.Fatalf("row %d position %d: offset %d does not point back", r, pos, at)
			}
		}
	}
	var entries [3]int
	for _, e := range st.dict {
		for pos, list := range e.post {
			entries[pos] += len(list)
		}
	}
	if entries != [3]int{len(st.rows), len(st.rows), len(st.rows)} {
		t.Fatalf("posting entries %v for %d rows", entries, len(st.rows))
	}
}

// TestSetUniqueKeepsDictionaryBounded: SetUnique through 10,000 distinct
// literals on one subject and predicate frees each replaced literal's id
// and reuses it, so neither the live term count nor the id range grows.
func TestSetUniqueKeepsDictionaryBounded(t *testing.T) {
	m := NewManager()
	s, p := rdf.IRI("http://t/s"), rdf.IRI("http://t/counter")
	if err := m.SetUnique(s, p, rdf.String("start")); err != nil {
		t.Fatal(err)
	}
	m.mu.RLock()
	live, span := len(m.st.ids), len(m.st.dict)
	m.mu.RUnlock()
	for i := 0; i < 10000; i++ {
		if err := m.SetUnique(s, p, rdf.String(fmt.Sprintf("value %d", i))); err != nil {
			t.Fatal(err)
		}
	}
	m.mu.RLock()
	gotLive, gotSpan := len(m.st.ids), len(m.st.dict)
	m.mu.RUnlock()
	if gotLive != live || gotSpan != span {
		t.Fatalf("dictionary grew from %d live terms over %d ids to %d over %d", live, span, gotLive, gotSpan)
	}
	checkLayout(t, m)
	if objs := m.Objects(s, p); len(objs) != 1 || objs[0] != rdf.String("value 9999") {
		t.Fatalf("Objects = %v", objs)
	}
}
