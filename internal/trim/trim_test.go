package trim

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/rdf"
)

func tr(s, p, o string) rdf.Triple {
	return rdf.T(rdf.IRI("http://t/"+s), rdf.IRI("http://t/"+p), rdf.String(o))
}

func link(s, p, o string) rdf.Triple {
	return rdf.T(rdf.IRI("http://t/"+s), rdf.IRI("http://t/"+p), rdf.IRI("http://t/"+o))
}

func TestCreateRemoveHas(t *testing.T) {
	m := NewManager()
	x := tr("s", "p", "v")
	added, err := m.Create(x)
	if err != nil || !added {
		t.Fatalf("Create = %v, %v", added, err)
	}
	if !m.Has(x) || m.Len() != 1 {
		t.Fatal("triple not stored")
	}
	added, err = m.Create(x)
	if err != nil || added {
		t.Fatalf("duplicate Create = %v, %v", added, err)
	}
	if !m.Remove(x) {
		t.Fatal("Remove = false")
	}
	if m.Has(x) || m.Len() != 0 {
		t.Fatal("triple still present after Remove")
	}
	if m.Remove(x) {
		t.Fatal("second Remove = true")
	}
}

func TestCreateInvalid(t *testing.T) {
	m := NewManager()
	if _, err := m.Create(rdf.T(rdf.String("s"), rdf.IRI("p"), rdf.String("o"))); err == nil {
		t.Fatal("invalid triple accepted")
	}
	if m.Len() != 0 {
		t.Fatal("invalid triple stored")
	}
}

func populate(m *Manager, n int) {
	for i := 0; i < n; i++ {
		m.Create(rdf.T(
			rdf.IRI(fmt.Sprintf("http://t/s%d", i%10)),
			rdf.IRI(fmt.Sprintf("http://t/p%d", i%5)),
			rdf.String(fmt.Sprintf("v%d", i)),
		))
	}
}

func TestSelectUsesAllBindingShapes(t *testing.T) {
	m := NewManager()
	populate(m, 100)
	// All 8 binding shapes of a selection query.
	shapes := []struct {
		pat  rdf.Pattern
		want int
	}{
		{rdf.P(rdf.Zero, rdf.Zero, rdf.Zero), 100},
		{rdf.P(rdf.IRI("http://t/s3"), rdf.Zero, rdf.Zero), 10},
		{rdf.P(rdf.Zero, rdf.IRI("http://t/p2"), rdf.Zero), 20},
		{rdf.P(rdf.Zero, rdf.Zero, rdf.String("v7")), 1},
		{rdf.P(rdf.IRI("http://t/s7"), rdf.IRI("http://t/p2"), rdf.Zero), 10},
		{rdf.P(rdf.IRI("http://t/s7"), rdf.Zero, rdf.String("v7")), 1},
		{rdf.P(rdf.Zero, rdf.IRI("http://t/p2"), rdf.String("v7")), 1},
		{rdf.P(rdf.IRI("http://t/s7"), rdf.IRI("http://t/p2"), rdf.String("v7")), 1},
	}
	for _, s := range shapes {
		got := m.Select(s.pat)
		if len(got) != s.want {
			t.Errorf("Select(%v) = %d results, want %d", s.pat, len(got), s.want)
		}
		if m.Count(s.pat) != s.want {
			t.Errorf("Count(%v) = %d, want %d", s.pat, m.Count(s.pat), s.want)
		}
		for _, x := range got {
			if !s.pat.Matches(x) {
				t.Errorf("Select(%v) returned non-matching %v", s.pat, x)
			}
		}
	}
}

func TestSelectAbsentKey(t *testing.T) {
	m := NewManager()
	populate(m, 10)
	if got := m.Select(rdf.P(rdf.IRI("http://t/absent"), rdf.Zero, rdf.Zero)); len(got) != 0 {
		t.Fatalf("Select absent subject = %d results", len(got))
	}
	if got := m.Count(rdf.P(rdf.Zero, rdf.Zero, rdf.String("nope"))); got != 0 {
		t.Fatalf("Count absent object = %d", got)
	}
}

func TestRemoveMatching(t *testing.T) {
	m := NewManager()
	populate(m, 100)
	n := m.RemoveMatching(rdf.P(rdf.IRI("http://t/s3"), rdf.Zero, rdf.Zero))
	if n != 10 {
		t.Fatalf("RemoveMatching = %d, want 10", n)
	}
	if m.Len() != 90 {
		t.Fatalf("Len = %d, want 90", m.Len())
	}
	if m.Count(rdf.P(rdf.IRI("http://t/s3"), rdf.Zero, rdf.Zero)) != 0 {
		t.Fatal("matching triples remain")
	}
}

func TestOne(t *testing.T) {
	m := NewManager()
	m.Create(tr("s", "name", "Ada"))
	got, err := m.One(rdf.P(rdf.IRI("http://t/s"), rdf.IRI("http://t/name"), rdf.Zero))
	if err != nil {
		t.Fatal(err)
	}
	if got.Object.Value() != "Ada" {
		t.Fatalf("One = %v", got)
	}
	if _, err := m.One(rdf.P(rdf.IRI("http://t/absent"), rdf.Zero, rdf.Zero)); err == nil {
		t.Fatal("One with zero matches should error")
	}
	m.Create(tr("s", "name", "Grace"))
	if _, err := m.One(rdf.P(rdf.IRI("http://t/s"), rdf.IRI("http://t/name"), rdf.Zero)); err == nil {
		t.Fatal("One with two matches should error")
	}
}

func TestSetUnique(t *testing.T) {
	m := NewManager()
	s, p := rdf.IRI("http://t/s"), rdf.IRI("http://t/name")
	if err := m.SetUnique(s, p, rdf.String("Ada")); err != nil {
		t.Fatal(err)
	}
	if err := m.SetUnique(s, p, rdf.String("Grace")); err != nil {
		t.Fatal(err)
	}
	objs := m.Objects(s, p)
	if len(objs) != 1 || objs[0].Value() != "Grace" {
		t.Fatalf("after SetUnique: %v", objs)
	}
}

func TestObjectsSubjects(t *testing.T) {
	m := NewManager()
	m.Create(link("a", "child", "b"))
	m.Create(link("a", "child", "c"))
	m.Create(link("d", "child", "b"))
	objs := m.Objects(rdf.IRI("http://t/a"), rdf.IRI("http://t/child"))
	if len(objs) != 2 {
		t.Fatalf("Objects = %v", objs)
	}
	subs := m.Subjects(rdf.IRI("http://t/child"), rdf.IRI("http://t/b"))
	if len(subs) != 2 {
		t.Fatalf("Subjects = %v", subs)
	}
}

func TestGenerationAdvances(t *testing.T) {
	m := NewManager()
	g0 := m.Generation()
	m.Create(tr("s", "p", "v"))
	g1 := m.Generation()
	if g1 <= g0 {
		t.Fatal("generation did not advance on create")
	}
	m.Remove(tr("s", "p", "v"))
	if m.Generation() <= g1 {
		t.Fatal("generation did not advance on remove")
	}
	// Failed duplicate create leaves generation unchanged.
	m.Create(tr("x", "p", "v"))
	g2 := m.Generation()
	m.Create(tr("x", "p", "v"))
	if m.Generation() != g2 {
		t.Fatal("no-op create advanced generation")
	}
}

func TestObservers(t *testing.T) {
	m := NewManager()
	var events []string
	id := m.ObserveSeq(func(_ uint64, x rdf.Triple, added bool) {
		events = append(events, fmt.Sprintf("%v:%v", added, x.Object.Value()))
	})
	m.Create(tr("s", "p", "1"))
	m.Remove(tr("s", "p", "1"))
	m.Unobserve(id)
	m.Create(tr("s", "p", "2"))
	if len(events) != 2 || events[0] != "true:1" || events[1] != "false:1" {
		t.Fatalf("events = %v", events)
	}
}

func TestSnapshotIsolation(t *testing.T) {
	m := NewManager()
	populate(m, 5)
	snap := m.Snapshot()
	m.Create(tr("new", "p", "v"))
	if snap.Len() != 5 {
		t.Fatal("snapshot changed after mutation")
	}
}

func TestReplaceRebuildsIndexes(t *testing.T) {
	m := NewManager()
	populate(m, 50)
	g := rdf.NewGraph()
	g.Add(tr("only", "p", "v"))
	m.Replace(g)
	if m.Len() != 1 {
		t.Fatalf("Len after Replace = %d", m.Len())
	}
	got := m.Select(rdf.P(rdf.IRI("http://t/only"), rdf.Zero, rdf.Zero))
	if len(got) != 1 {
		t.Fatal("index not rebuilt for new content")
	}
	if n := m.Count(rdf.P(rdf.IRI("http://t/s1"), rdf.Zero, rdf.Zero)); n != 0 {
		t.Fatalf("stale index entries: %d", n)
	}
}

func TestClear(t *testing.T) {
	m := NewManager()
	populate(m, 10)
	m.Clear()
	if m.Len() != 0 {
		t.Fatal("Clear left triples")
	}
}

func TestConcurrentAccess(t *testing.T) {
	m := NewManager()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				x := rdf.T(
					rdf.IRI(fmt.Sprintf("http://t/w%d", w)),
					rdf.IRI("http://t/p"),
					rdf.Integer(int64(i)),
				)
				m.Create(x)
				m.Select(rdf.P(rdf.IRI(fmt.Sprintf("http://t/w%d", w)), rdf.Zero, rdf.Zero))
				if i%3 == 0 {
					m.Remove(x)
				}
			}
		}(w)
	}
	wg.Wait()
	// Each worker keeps i where i%3 != 0: 133 of 200.
	want := 8 * 133
	if m.Len() != want {
		t.Fatalf("Len = %d, want %d", m.Len(), want)
	}
}

// Property: the indexed Select agrees with a brute-force scan for random
// data and random patterns.
func TestSelectAgreesWithScanProperty(t *testing.T) {
	f := func(seeds []uint16, sPick, pPick, oPick uint8, useS, useP, useO bool) bool {
		m := NewManager()
		for _, s := range seeds {
			m.Create(rdf.T(
				rdf.IRI(fmt.Sprintf("http://t/s%d", s%11)),
				rdf.IRI(fmt.Sprintf("http://t/p%d", s%7)),
				rdf.Integer(int64(s%13)),
			))
		}
		pat := rdf.Pattern{}
		if useS {
			pat.Subject = rdf.IRI(fmt.Sprintf("http://t/s%d", sPick%11))
		}
		if useP {
			pat.Predicate = rdf.IRI(fmt.Sprintf("http://t/p%d", pPick%7))
		}
		if useO {
			pat.Object = rdf.Integer(int64(oPick % 13))
		}
		indexed := m.Select(pat)
		scanned := m.Snapshot().Select(pat)
		if len(indexed) != len(scanned) {
			return false
		}
		for i := range indexed {
			if indexed[i] != scanned[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestSelectFilteredMatchesSelect checks, for every bound mask, that a nil
// filter answers exactly as Select and that a filter answers as Select
// filtered afterwards, in the same order. Each call counts once in
// trim.select.total, as Select does.
func TestSelectFilteredMatchesSelect(t *testing.T) {
	m := NewManager()
	populate(m, 100)
	s, p, o := rdf.IRI("http://t/s7"), rdf.IRI("http://t/p2"), rdf.String("v7")
	keep := func(x rdf.Triple) bool { return len(x.Object.Value())%2 == 0 }
	for mask := 0; mask < 8; mask++ {
		var pat rdf.Pattern
		if mask&1 != 0 {
			pat.Subject = s
		}
		if mask&2 != 0 {
			pat.Predicate = p
		}
		if mask&4 != 0 {
			pat.Object = o
		}
		want := m.Select(pat)
		sel0 := mSelectTotal.Value()
		if got := m.SelectFiltered(pat, nil); !sameTriples(got, want) {
			t.Errorf("SelectFiltered(%v, nil) = %v, want %v", pat, got, want)
		}
		var wantKept []rdf.Triple
		for _, x := range want {
			if keep(x) {
				wantKept = append(wantKept, x)
			}
		}
		if got := m.SelectFiltered(pat, keep); !sameTriples(got, wantKept) {
			t.Errorf("SelectFiltered(%v, keep) = %v, want %v", pat, got, wantKept)
		}
		if got := mSelectTotal.Value() - sel0; got != 2 {
			t.Errorf("mask %03b: trim.select.total delta = %d over two SelectFiltered calls, want 2", mask, got)
		}
	}
}

// TestSelectFilteredExplainCountsKept pins that a filtered select is one
// query to EXPLAIN: the candidates are the index bucket and Matched counts
// only the triples the filter kept.
func TestSelectFilteredExplainCountsKept(t *testing.T) {
	m := NewManager()
	populate(m, 100)
	pat := rdf.P(rdf.Zero, rdf.IRI("http://t/p2"), rdf.Zero)
	keep := func(x rdf.Triple) bool { return x.Object == rdf.String("v7") }
	m.mu.RLock()
	var e Explain
	out, _ := m.selectExplainLocked(&e, pat, keep, nil)
	m.mu.RUnlock()
	if len(out) != 1 || e.Matched != 1 || e.Candidates != 20 || e.Index != "predicate" {
		t.Errorf("filtered explain = %d triples, %+v; want 1 matched of 20 predicate candidates", len(out), e)
	}
}

func sameTriples(a, b []rdf.Triple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
