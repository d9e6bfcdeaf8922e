package trim

import (
	"strings"
	"testing"

	"repro/internal/rdf"
)

// TestCardinalityCreateRemove: the stats stay exact through interleaved
// creates, duplicate creates, and removes down to empty.
func TestCardinalityCreateRemove(t *testing.T) {
	m := NewManager()
	triples := []rdf.Triple{
		tr("s1", "p1", "a"),
		tr("s1", "p1", "b"),
		tr("s2", "p1", "a"),
		tr("s1", "p2", "a"),
		link("s2", "p2", "s1"),
	}
	for _, x := range triples {
		if _, err := m.Create(x); err != nil {
			t.Fatal(err)
		}
	}
	m.Create(triples[0]) // duplicate: must not double-count
	checkLayout(t, m)

	m.mu.RLock()
	pc := m.st.predCards[m.st.lookup(rdf.IRI("http://t/p1"))]
	if pc.triples != 3 || pc.subjects != 2 || len(pc.objects) != 2 {
		m.mu.RUnlock()
		t.Fatalf("p1 card = triples=%d subjects=%d objects=%d, want 3/2/2", pc.triples, pc.subjects, len(pc.objects))
	}
	m.mu.RUnlock()

	m.Remove(triples[1])
	m.Remove(triples[1]) // absent remove: must not decrement
	checkLayout(t, m)
	for _, x := range triples {
		m.Remove(x)
	}
	checkLayout(t, m)
	m.mu.RLock()
	if len(m.st.predCards) != 0 {
		t.Fatalf("empty store still tracks %d predicates", len(m.st.predCards))
	}
	m.mu.RUnlock()
}

// TestCardinalityBatchAndSetUnique: batch applies and SetUnique go through
// the same mutation points, so the stats stay exact there too.
func TestCardinalityBatchAndSetUnique(t *testing.T) {
	m := NewManager()
	b := m.NewBatch()
	for i := 0; i < 4; i++ {
		if err := b.Create(tr("s", "p", string(rune('a'+i)))); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Apply(); err != nil {
		t.Fatal(err)
	}
	checkLayout(t, m)

	b = m.NewBatch()
	if err := b.Remove(tr("s", "p", "a")); err != nil {
		t.Fatal(err)
	}
	if err := b.Create(tr("s2", "q", "x")); err != nil {
		t.Fatal(err)
	}
	if err := b.Apply(); err != nil {
		t.Fatal(err)
	}
	checkLayout(t, m)

	if err := m.SetUnique(rdf.IRI("http://t/s"), rdf.IRI("http://t/p"), rdf.String("only")); err != nil {
		t.Fatal(err)
	}
	checkLayout(t, m)
}

// TestCardinalityReplace: Replace rebuilds the stats from the new graph;
// RemoveMatching keeps them exact.
func TestCardinalityReplace(t *testing.T) {
	m := NewManager()
	populate(m, 40)
	checkLayout(t, m)

	g := rdf.NewGraph()
	g.Add(tr("x", "p9", "1"))
	g.Add(tr("y", "p9", "1"))
	m.Replace(g)
	checkLayout(t, m)

	m.RemoveMatching(rdf.P(rdf.Zero, rdf.IRI("http://t/p9"), rdf.Zero))
	checkLayout(t, m)
	m.Clear()
	checkLayout(t, m)
}

// TestStatsPredicates: Stats reports the per-predicate table sorted by
// predicate with store-relative selectivity.
func TestStatsPredicates(t *testing.T) {
	m := NewManager()
	m.Create(tr("s1", "b", "v1"))
	m.Create(tr("s2", "b", "v2"))
	m.Create(tr("s2", "b", "v1"))
	m.Create(tr("s1", "a", "v1"))

	s := m.Stats()
	if len(s.Predicates) != 2 {
		t.Fatalf("Predicates = %+v, want 2 entries", s.Predicates)
	}
	if s.Predicates[0].Predicate != "http://t/a" || s.Predicates[1].Predicate != "http://t/b" {
		t.Fatalf("predicates not sorted: %+v", s.Predicates)
	}
	pb := s.Predicates[1]
	if pb.Triples != 3 || pb.DistinctSubjects != 2 || pb.DistinctObjects != 2 {
		t.Fatalf("b stats = %+v", pb)
	}
	if pb.Selectivity != 0.75 {
		t.Fatalf("b selectivity = %v, want 0.75", pb.Selectivity)
	}
}

// TestExplainSelectivity: SelectExplain carries the planner's estimate —
// exact for predicate-only patterns, scaled for compound ones, zero for
// unknown predicates and empty stores.
func TestExplainSelectivity(t *testing.T) {
	m := NewManager()

	_, e := m.SelectExplain(rdf.P(rdf.Zero, rdf.IRI("http://t/p"), rdf.Zero))
	if e.EstRows != 0 || e.EstSelectivity != 0 {
		t.Fatalf("empty-store estimate = %d/%v", e.EstRows, e.EstSelectivity)
	}

	for i := 0; i < 8; i++ {
		m.Create(tr("s"+string(rune('a'+i%4)), "p", string(rune('0'+i))))
	}
	m.Create(tr("s", "q", "x"))
	m.Create(tr("s", "q", "y"))

	// Predicate-only: exact per-predicate count.
	_, e = m.SelectExplain(rdf.P(rdf.Zero, rdf.IRI("http://t/p"), rdf.Zero))
	if e.EstRows != 8 || e.Matched != 8 {
		t.Fatalf("?p? estimate = %d (matched %d), want 8", e.EstRows, e.Matched)
	}
	if want := 0.8; e.EstSelectivity != want {
		t.Fatalf("?p? selectivity = %v, want %v", e.EstSelectivity, want)
	}

	// Subject+predicate: mean triples per subject for that predicate (8/4).
	_, e = m.SelectExplain(rdf.P(rdf.IRI("http://t/sa"), rdf.IRI("http://t/p"), rdf.Zero))
	if e.EstRows != 2 || e.Matched != 2 {
		t.Fatalf("sp? estimate = %d (matched %d), want 2", e.EstRows, e.Matched)
	}

	// Unknown predicate: zero rows.
	_, e = m.SelectExplain(rdf.P(rdf.Zero, rdf.IRI("http://t/nope"), rdf.Zero))
	if e.EstRows != 0 || e.EstSelectivity != 0 {
		t.Fatalf("unknown-predicate estimate = %d/%v", e.EstRows, e.EstSelectivity)
	}

	// Unbound predicate: exact subject index bucket.
	_, e = m.SelectExplain(rdf.P(rdf.IRI("http://t/s"), rdf.Zero, rdf.Zero))
	if e.EstRows != 2 || e.Matched != 2 {
		t.Fatalf("s?? estimate = %d (matched %d), want 2", e.EstRows, e.Matched)
	}

	// Full scan: the whole store.
	_, e = m.SelectExplain(rdf.P(rdf.Zero, rdf.Zero, rdf.Zero))
	if e.EstRows != 10 || e.EstSelectivity != 1 {
		t.Fatalf("??? estimate = %d/%v, want 10/1", e.EstRows, e.EstSelectivity)
	}

	// The EXPLAIN line includes the estimate fields.
	got := e.String()
	if !strings.Contains(got, "est_rows=10") || !strings.Contains(got, "est_selectivity=1.0000") {
		t.Fatalf("String() missing estimate fields: %s", got)
	}
}
