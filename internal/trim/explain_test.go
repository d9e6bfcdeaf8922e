package trim

import (
	"context"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/rdf"
)

func TestSelectExplainIndexChoice(t *testing.T) {
	m := NewManager()
	populate(m, 100) // subjects s0..s9 (10 each), predicates p0..p4 (20 each)

	cases := []struct {
		name       string
		pat        rdf.Pattern
		index      string
		candidates int
		matched    int
	}{
		{"unbound is a full scan", rdf.P(rdf.Zero, rdf.Zero, rdf.Zero), "scan", 100, 100},
		{"subject bound", rdf.P(rdf.IRI("http://t/s3"), rdf.Zero, rdf.Zero), "subject", 10, 10},
		{"predicate bound", rdf.P(rdf.Zero, rdf.IRI("http://t/p2"), rdf.Zero), "predicate", 20, 20},
		{"object bound", rdf.P(rdf.Zero, rdf.Zero, rdf.String("v7")), "object", 1, 1},
		// Subject (10) beats predicate (20): planner takes the smaller bucket.
		{"smallest bucket wins", rdf.P(rdf.IRI("http://t/s7"), rdf.IRI("http://t/p2"), rdf.Zero), "subject", 10, 10},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out, e := m.SelectExplain(tc.pat)
			if e.Op != "select" {
				t.Errorf("Op = %q", e.Op)
			}
			if e.Index != tc.index {
				t.Errorf("Index = %q, want %q", e.Index, tc.index)
			}
			if e.Candidates != tc.candidates {
				t.Errorf("Candidates = %d, want %d", e.Candidates, tc.candidates)
			}
			if e.Matched != tc.matched || len(out) != tc.matched {
				t.Errorf("Matched = %d (len %d), want %d", e.Matched, len(out), tc.matched)
			}
			if e.StoreSize != 100 {
				t.Errorf("StoreSize = %d", e.StoreSize)
			}
			if e.Query != tc.pat.String() {
				t.Errorf("Query = %q, want %q", e.Query, tc.pat.String())
			}
			// SelectExplain must return exactly what Select returns.
			plain := m.Select(tc.pat)
			if len(plain) != len(out) {
				t.Errorf("Select len %d != SelectExplain len %d", len(plain), len(out))
			}
			for i := range plain {
				if plain[i] != out[i] {
					t.Fatalf("result %d differs: %v vs %v", i, plain[i], out[i])
				}
			}
		})
	}
}

func TestExplainString(t *testing.T) {
	m := NewManager()
	populate(m, 20)
	_, e := m.SelectExplain(rdf.P(rdf.IRI("http://t/s1"), rdf.Zero, rdf.Zero))
	s := e.String()
	for _, want := range []string{"op=select", "index=subject", "candidates=2", "matched=2", "store=20", "wall="} {
		if !strings.Contains(s, want) {
			t.Errorf("Explain.String() missing %q: %s", want, s)
		}
	}
}

func TestViewExplain(t *testing.T) {
	m := NewManager()
	// root -> a -> b, plus an unreachable island.
	for _, x := range []rdf.Triple{
		link("root", "has", "a"),
		link("a", "has", "b"),
		tr("b", "label", "leaf"),
		tr("island", "label", "alone"),
	} {
		if _, err := m.Create(x); err != nil {
			t.Fatal(err)
		}
	}
	g, e := m.ViewExplain(rdf.IRI("http://t/root"))
	if e.Op != "view" || e.Index != "subject" {
		t.Fatalf("Op=%q Index=%q", e.Op, e.Index)
	}
	if g.Len() != 3 || e.Matched != 3 {
		t.Fatalf("view Len=%d Matched=%d, want 3 (island excluded)", g.Len(), e.Matched)
	}
	if e.Candidates < e.Matched {
		t.Fatalf("Candidates=%d < Matched=%d: walk must examine every included edge", e.Candidates, e.Matched)
	}
	if e.StoreSize != 4 {
		t.Fatalf("StoreSize = %d", e.StoreSize)
	}
	plain := m.View(rdf.IRI("http://t/root"))
	if plain.Len() != g.Len() {
		t.Fatalf("View len %d != ViewExplain len %d", plain.Len(), g.Len())
	}
}

func TestPathExplain(t *testing.T) {
	m := NewManager()
	for _, x := range []rdf.Triple{
		link("root", "has", "a"),
		link("root", "has", "b"),
		link("a", "next", "c"),
		link("b", "next", "c"),
		link("b", "other", "d"),
	} {
		if _, err := m.Create(x); err != nil {
			t.Fatal(err)
		}
	}
	out, e := m.PathExplain(
		[]rdf.Term{rdf.IRI("http://t/root")},
		rdf.IRI("http://t/has"), rdf.IRI("http://t/next"),
	)
	if e.Op != "path" {
		t.Fatalf("Op = %q", e.Op)
	}
	if len(out) != 1 || e.Matched != 1 {
		t.Fatalf("path result %v Matched=%d, want the single term c", out, e.Matched)
	}
	// Hop 1 examines root's 2 edges; hop 2 examines a's 1 + b's 2.
	if e.Candidates != 5 {
		t.Fatalf("Candidates = %d, want 5", e.Candidates)
	}
	if !strings.Contains(e.Query, "/") {
		t.Fatalf("path Query %q should join predicates with /", e.Query)
	}
	plain := m.Path([]rdf.Term{rdf.IRI("http://t/root")}, rdf.IRI("http://t/has"), rdf.IRI("http://t/next"))
	if len(plain) != len(out) {
		t.Fatalf("Path len %d != PathExplain len %d", len(plain), len(out))
	}
}

// TestExplainJournalsSlowQueries pins the EXPLAIN -> slow ring wiring:
// with the threshold floored, every query lands in the default tracer's
// slow ring with its EXPLAIN line as the detail, an untraced one too.
func TestExplainJournalsSlowQueries(t *testing.T) {
	floorSlowThreshold(t)

	m := NewManager()
	populate(m, 50)
	m.Select(rdf.P(rdf.Zero, rdf.Zero, rdf.Zero)) // plain Select journals too

	recs := obs.DefaultTracer.SlowOps()
	if len(recs) == 0 {
		t.Fatal("no slow ops journaled")
	}
	last := recs[len(recs)-1]
	if last.Op != "trim.select" {
		t.Fatalf("journaled op = %q", last.Op)
	}
	for _, want := range []string{"op=select", "index=scan", "candidates=50", "matched=50"} {
		if !strings.Contains(last.Detail, want) {
			t.Errorf("journal detail missing %q: %s", want, last.Detail)
		}
	}
}

// floorSlowThreshold makes every op slow for the rest of the test and
// empties the default tracer's rings, restoring the threshold after.
func floorSlowThreshold(t *testing.T) {
	t.Helper()
	prev := obs.DefaultTracer.SlowThreshold()
	obs.DefaultTracer.SetSlowThreshold(time.Nanosecond)
	obs.DefaultTracer.Reset()
	t.Cleanup(func() {
		obs.DefaultTracer.SetSlowThreshold(prev)
		obs.DefaultTracer.Reset()
	})
}

// TestExplainCountsWALObserver: a WAL-backed store's capture observer sees
// every mutation, so every EXPLAIN reports it in its notification
// fan-out.
func TestExplainCountsWALObserver(t *testing.T) {
	m := NewManager()
	ws, err := OpenWAL(m, filepath.Join(t.TempDir(), "store.wal"), WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Close()
	root := rdf.IRI("http://t/root")
	for _, x := range []rdf.Triple{link("root", "has", "a"), tr("a", "label", "leaf")} {
		if _, err := m.Create(x); err != nil {
			t.Fatal(err)
		}
	}
	if _, e := m.SelectExplain(rdf.P(root, rdf.Zero, rdf.Zero)); e.Observers != 1 {
		t.Errorf("SelectExplain Observers = %d, want 1", e.Observers)
	}
	if _, e := m.ViewExplain(root); e.Observers != 1 {
		t.Errorf("ViewExplain Observers = %d, want 1", e.Observers)
	}
	if _, e := m.PathExplain([]rdf.Term{root}, rdf.IRI("http://t/has")); e.Observers != 1 {
		t.Errorf("PathExplain Observers = %d, want 1", e.Observers)
	}
}

// TestCtxQueriesJournalOnce: a slow query through a Ctx entry point makes
// one slow-ring entry, its span's, carrying its EXPLAIN line. With the
// tracer off the query has no span and publishes the entry itself.
func TestCtxQueriesJournalOnce(t *testing.T) {
	floorSlowThreshold(t)

	m := NewManager()
	populate(m, 50)
	for _, x := range []rdf.Triple{link("root", "has", "a"), link("a", "next", "b")} {
		if _, err := m.Create(x); err != nil {
			t.Fatal(err)
		}
	}
	root := rdf.IRI("http://t/root")
	ctx, parent := obs.StartCtx(context.Background(), "test.parent", "")
	defer parent.Finish()

	cases := []struct {
		name, op, explain string
		run               func()
	}{
		{"SelectCtx", "trim.select", "op=select", func() { m.SelectCtx(ctx, rdf.P(root, rdf.Zero, rdf.Zero)) }},
		{"SelectExplainCtx", "trim.select", "op=select", func() { m.SelectExplainCtx(ctx, rdf.P(root, rdf.Zero, rdf.Zero)) }},
		{"ViewCtx", "trim.view", "op=view", func() { m.ViewCtx(ctx, root) }},
		{"ViewExplainCtx", "trim.view", "op=view", func() { m.ViewExplainCtx(ctx, root) }},
		{"PathExplainCtx", "trim.path", "op=path", func() {
			m.PathExplainCtx(ctx, []rdf.Term{root}, rdf.IRI("http://t/has"), rdf.IRI("http://t/next"))
		}},
		{"SelectCtx untraced", "trim.select", "op=select", func() {
			obs.DefaultTracer.SetEnabled(false)
			defer obs.DefaultTracer.SetEnabled(true)
			m.SelectCtx(ctx, rdf.P(root, rdf.Zero, rdf.Zero))
		}},
	}
	for _, c := range cases {
		obs.DefaultTracer.Reset()
		c.run()
		recs := obs.DefaultTracer.SlowOps()
		if len(recs) != 1 {
			t.Errorf("%s journaled %d entries, want 1: %+v", c.name, len(recs), recs)
			continue
		}
		if recs[0].Op != c.op || !strings.HasPrefix(recs[0].Detail, c.explain+" ") {
			t.Errorf("%s journaled %s %q, want %s with its EXPLAIN line", c.name, recs[0].Op, recs[0].Detail, c.op)
		}
		// A traced query's entry is its span, a child of the test's span.
		if traced := !strings.HasSuffix(c.name, "untraced"); traced != (recs[0].Parent == parent.SpanID()) {
			t.Errorf("%s: slow entry's parent is %s, traced %v", c.name, recs[0].Parent, traced)
		}
	}
}
