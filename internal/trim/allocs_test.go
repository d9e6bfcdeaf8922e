package trim

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/obs"
	"repro/internal/rdf"
)

// TestSelectAllocations guards the read path's allocations: a select
// allocates its result and nothing else — no shape key, no span detail, no
// growth of the result — a traced select adds only its span, and One's
// single match stays on the stack.
func TestSelectAllocations(t *testing.T) {
	m := NewManager()
	p := rdf.IRI("http://t/p")
	one, seven := rdf.IRI("http://t/one"), rdf.IRI("http://t/seven")
	if _, err := m.Create(rdf.T(one, p, rdf.Integer(1))); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		if _, err := m.Create(rdf.T(seven, rdf.IRI(fmt.Sprintf("http://t/p%d", i)), rdf.Integer(int64(i)))); err != nil {
			t.Fatal(err)
		}
	}
	ctx, parent := obs.StartCtx(context.Background(), "test.parent", "")
	defer parent.Finish()
	if obs.SpanFromContext(ctx) == nil {
		t.Skip("tracing is off; a traced select has no span to allocate")
	}

	cases := []struct {
		name string
		run  func()
		want int
	}{
		{"Select 1-triple subject", func() { m.Select(rdf.P(one, rdf.Zero, rdf.Zero)) }, 1},
		{"Select 7-triple subject", func() { m.Select(rdf.P(seven, rdf.Zero, rdf.Zero)) }, 1},
		{"One", func() {
			if _, err := m.One(rdf.P(one, p, rdf.Zero)); err != nil {
				t.Fatal(err)
			}
		}, 0},
		{"SelectCtx under a span", func() { m.SelectCtx(ctx, rdf.P(seven, rdf.Zero, rdf.Zero)) }, 2},
	}
	for _, c := range cases {
		if got := testing.AllocsPerRun(100, c.run); got > float64(c.want) {
			t.Errorf("%s allocates %v times, want %d", c.name, got, c.want)
		}
	}
}

// TestSelectShapeKeys pins the cached shape keys to the text every select
// recorded when it built its key per call: "select <mask> index=<index>",
// plus " pred=<predicate>" when the predicate is bound, for every mask and
// index choice, from a predicate's table or without one.
func TestSelectShapeKeys(t *testing.T) {
	m := NewManager()
	pred := rdf.IRI("http://t/pred")
	if _, err := m.Create(rdf.T(rdf.IRI("http://t/s"), pred, rdf.String("o"))); err != nil {
		t.Fatal(err)
	}
	pc := m.st.predCards[m.st.lookup(pred)]
	s, o := rdf.IRI("http://t/s"), rdf.String("o")
	for mask := 0; mask < 8; mask++ {
		p := rdf.Pattern{}
		shape := []byte("???")
		if mask&maskS != 0 {
			p.Subject, shape[0] = s, 's'
		}
		if mask&maskP != 0 {
			p.Predicate, shape[1] = pred, 'p'
		}
		if mask&maskO != 0 {
			p.Object, shape[2] = o, 'o'
		}
		for _, choice := range []indexChoice{indexNone, indexSubject, indexPredicate, indexObject} {
			if mask&maskP != 0 && choice == indexNone {
				continue // a bound predicate always has an index
			}
			want := "select " + string(shape) + " index=" + choice.String()
			if mask&maskP != 0 {
				want += " pred=" + pred.Value()
			}
			cards := []*predCard{nil}
			if mask&maskP != 0 {
				cards = append(cards, pc, pc) // the second read comes from the table
			}
			for _, card := range cards {
				if got := selectShape(p, choice, card).Key(); got != want {
					t.Errorf("mask %03b %s (table %v): key %q, want %q", mask, choice, card != nil, got, want)
				}
			}
		}
	}
}

// TestReusedPredicateIDShapeKey: a predicate's cardinality record, with
// the shape keys it caches, goes when the predicate's id is freed, so a
// different predicate that takes the id records its own key.
func TestReusedPredicateIDShapeKey(t *testing.T) {
	m := NewManager()
	old, next := rdf.IRI("http://t/old"), rdf.IRI("http://t/next")
	x := rdf.T(rdf.IRI("http://t/s"), old, rdf.String("o"))
	if _, err := m.Create(x); err != nil {
		t.Fatal(err)
	}
	m.Select(rdf.P(rdf.Zero, old, rdf.Zero)) // caches old's key
	id := m.st.lookup(old)
	m.Remove(x)
	if _, err := m.Create(rdf.T(rdf.IRI("http://t/s2"), next, rdf.String("o2"))); err != nil {
		t.Fatal(err)
	}
	if got := m.st.lookup(next); got != id {
		t.Fatalf("the new predicate took id %d, not the freed %d", got, id)
	}
	m.mu.RLock()
	var e Explain
	_, shape := m.selectExplainLocked(&e, rdf.P(rdf.Zero, next, rdf.Zero), nil, nil)
	m.mu.RUnlock()
	if want := "select ?p? index=predicate pred=http://t/next"; shape.Key() != want {
		t.Fatalf("shape key %q, want %q", shape.Key(), want)
	}
}
