package trim

import (
	"fmt"
	"maps"
	"strings"
	"testing"

	"repro/internal/rdf"
)

// checkLayout verifies the interned layout's internal invariants: the
// dictionary holds exactly the terms some triple carries, free slots hold
// the zero term and empty lists, every subject list names only its own
// triples, strictly in (predicate, object) term order, find finds every
// row at its own slot and no triple that is not stored, every predicate
// and object entry and its row's offset point at each other, and every
// cardinality record belongs to a live id, matches a recount from the
// rows, and caches only its own predicate's shape keys.
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
		if e := st.dict[id]; !e.term.IsZero() || len(e.post[posS])+len(e.post[posP])+len(e.post[posO]) != 0 {
			t.Fatalf("free id %d holds %v with %d/%d/%d postings", id, e.term, len(e.post[posS]), len(e.post[posP]), len(e.post[posO]))
		}
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
	stored := make(map[idTriple]bool, len(st.rows))
	for _, rw := range st.rows {
		stored[rw.ids] = true
	}
	absent := rdf.IRI("http://t/layout-absent")
	if st.lookup(absent) != noID {
		t.Fatalf("the store holds %v", absent)
	}
	for r, rw := range st.rows {
		x := st.triple(int32(r))
		if got, i, ok := st.find(x); !ok || got != int32(r) || st.dict[rw.ids[posS]].post[posS][i] != int32(r) {
			t.Fatalf("row %d %v: find says row %d at slot %d, %v", r, x, got, i, ok)
		}
		for pos := posP; pos <= posO; pos++ {
			at := rw.at[pos-posP]
			if list := st.dict[rw.ids[pos]].post[pos]; int(at) >= len(list) || list[at] != int32(r) {
				t.Fatalf("row %d position %d: offset %d does not point back", r, pos, at)
			}
		}
		// Not stored: an absent term in each position, and this row's
		// terms with one taken from the next row.
		misses := []rdf.Triple{
			rdf.T(absent, x.Predicate, x.Object), rdf.T(x.Subject, absent, x.Object), rdf.T(x.Subject, x.Predicate, absent),
		}
		next := st.rows[(r+1)%len(st.rows)].ids
		for pos := range next {
			k := rw.ids
			if k[pos] = next[pos]; !stored[k] {
				misses = append(misses, rdf.T(st.term(k[posS]), st.term(k[posP]), st.term(k[posO])))
			}
		}
		for _, y := range misses {
			if got, i, ok := st.find(y); ok {
				t.Fatalf("find(%v), not stored, says row %d at slot %d", y, got, i)
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
	checkCards(t, st)
}

// checkCards recounts each predicate's triples, distinct subjects and
// object refcounts from the rows and compares them with the store's
// records. A record with no triples is kept only while its id is live.
func checkCards(t *testing.T, st *store) {
	t.Helper()
	type recount struct {
		triples  int
		subjects map[int32]bool
		objects  map[int32]int32
	}
	want := map[int32]*recount{}
	for _, rw := range st.rows {
		p := rw.ids[posP]
		c := want[p]
		if c == nil {
			c = &recount{subjects: map[int32]bool{}, objects: map[int32]int32{}}
			want[p] = c
		}
		c.triples++
		c.subjects[rw.ids[posS]] = true
		c.objects[rw.ids[posO]]++
	}
	for p, c := range want {
		if pc := st.predCards[p]; pc == nil || pc.triples != c.triples || pc.subjects != len(c.subjects) || !maps.Equal(pc.objects, c.objects) {
			t.Fatalf("predicate %v: record %+v, recount %d triples, %d subjects, objects %v",
				st.term(p), pc, c.triples, len(c.subjects), c.objects)
		}
	}
	for p, pc := range st.predCards {
		if int(p) >= len(st.dict) || st.dict[p].term.IsZero() {
			t.Fatalf("cardinality record for free id %d", p)
		}
		if want[p] == nil && (pc.triples != 0 || pc.subjects != 0 || len(pc.objects) != 0) {
			t.Fatalf("predicate %v holds no triple, record %+v", st.term(p), pc)
		}
		if table := pc.shapes.Load(); table != nil {
			for i := range table {
				if shape := table[i].Load(); shape != nil && !strings.HasSuffix(shape.Key(), " pred="+st.term(p).Value()) {
					t.Fatalf("record of %v caches shape key %q", st.term(p), shape.Key())
				}
			}
		}
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
