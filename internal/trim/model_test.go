package trim

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/rdf"
)

// The reference-model test: a generated op sequence drives a Manager
// beside a plain set of triples, and after every op each read the Manager
// offers is checked against a brute-force answer computed from the set.
// The op sequence is a byte tape, so the same checker is the
// FuzzManagerOps target; its committed corpus under testdata/fuzz is
// replayed by every go test run.

// model is the reference store: the set of triples the Manager must hold.
type model map[rdf.Triple]struct{}

// The op universe is small so that generated ops collide: creates hit
// duplicates, removes hit, patterns match, and resource objects link the
// subjects into cyclic graphs for View and Path to walk. One IRI serves
// as both predicate and object, and two literals share a lexical form
// under different datatypes.
var (
	modelSubjects = []rdf.Term{
		rdf.IRI("http://t/s0"), rdf.IRI("http://t/s1"), rdf.IRI("http://t/s2"),
		rdf.IRI("http://t/s3"), rdf.IRI("http://t/s4"), rdf.Blank("b0"),
	}
	modelPredicates = []rdf.Term{
		rdf.IRI("http://t/p0"), rdf.IRI("http://t/p1"), rdf.IRI("http://t/p2"), rdf.IRI("http://t/p3"),
	}
	modelObjects = append([]rdf.Term{
		rdf.String("v0"), rdf.String("v1"), rdf.String(""),
		rdf.Integer(7), rdf.TypedLiteral("7", "http://t/dt"),
		rdf.IRI("http://t/p0"),
	}, modelSubjects...)
	// modelInvalid are triples Create must reject: a literal subject, a
	// blank predicate, a zero object, a literal holding a control
	// character XML cannot carry.
	modelInvalid = []rdf.Triple{
		rdf.T(rdf.String("lit"), rdf.IRI("http://t/p0"), rdf.String("v0")),
		rdf.T(rdf.IRI("http://t/s0"), rdf.Blank("bp"), rdf.String("v0")),
		rdf.T(rdf.IRI("http://t/s0"), rdf.IRI("http://t/p0"), rdf.Zero),
		rdf.T(rdf.IRI("http://t/s0"), rdf.IRI("http://t/p0"), rdf.String("a\x01b")),
	}
	// modelAbsent never enters the store.
	modelAbsent = rdf.IRI("http://t/absent")
)

// opTape decodes op choices from a byte string; past its end it reads
// zeros, so every tape decodes to a finite, valid op sequence.
type opTape struct {
	b []byte
	i int
}

func (tp *opTape) more() bool { return tp.i < len(tp.b) }

func (tp *opTape) next(n int) int {
	if tp.i >= len(tp.b) {
		return 0
	}
	v := int(tp.b[tp.i])
	tp.i++
	return v % n
}

func (tp *opTape) term(from []rdf.Term) rdf.Term { return from[tp.next(len(from))] }

func (tp *opTape) triple() rdf.Triple {
	return rdf.T(tp.term(modelSubjects), tp.term(modelPredicates), tp.term(modelObjects))
}

func (tp *opTape) pattern() rdf.Pattern {
	mask := tp.next(8)
	var p rdf.Pattern
	if mask&1 != 0 {
		p.Subject = tp.term(modelSubjects)
	}
	if mask&2 != 0 {
		p.Predicate = tp.term(modelPredicates)
	}
	if mask&4 != 0 {
		p.Object = tp.term(modelObjects)
	}
	return p
}

// decoded decodes a store file's triples as the file reader hands them
// to a load: each distinct term once, and one triple repeated at a
// tape-chosen place, as a hand-written file may repeat it.
func (tp *opTape) decoded() rdf.Interned {
	var d rdf.Interned
	ids := map[rdf.Term]int32{}
	id := func(x rdf.Term) int32 {
		i, ok := ids[x]
		if !ok {
			i = int32(len(d.Terms))
			ids[x] = i
			d.Terms = append(d.Terms, x)
		}
		return i
	}
	for k := tp.next(16); k > 0; k-- {
		x := tp.triple()
		d.Triples = append(d.Triples, [3]int32{id(x.Subject), id(x.Predicate), id(x.Object)})
	}
	if n := len(d.Triples); n > 0 {
		repeat := d.Triples[tp.next(n)]
		d.Triples = slices.Insert(d.Triples, tp.next(n+1), repeat)
	}
	return d
}

// seqEvent is one delivered SeqObserver notification.
type seqEvent struct {
	gen   uint64
	t     rdf.Triple
	added bool
}

// modelRun is one Manager driven beside its model.
type modelRun struct {
	t      *testing.T
	m      *Manager
	want   model
	events []seqEvent // delivered during the current op
	// replica is rebuilt from the observer stream alone; Replace and
	// Clear notify no one, so after one it restarts from the model.
	replica model
}

func newModelRun(t *testing.T) *modelRun {
	r := &modelRun{t: t, m: NewManager(), want: model{}, replica: model{}}
	r.m.ObserveSeq(func(gen uint64, x rdf.Triple, added bool) {
		r.events = append(r.events, seqEvent{gen, x, added})
	})
	return r
}

// runModel decodes the tape into ops, applies each to the Manager and the
// model, and checks the Manager against the model after every op. It
// returns the ops' names.
func runModel(t *testing.T, tape []byte) []string {
	t.Helper()
	r := newModelRun(t)
	r.check("initial")
	tp := &opTape{b: tape}
	var names []string
	for n := 0; tp.more(); n++ {
		gen := r.m.Generation()
		r.events = r.events[:0]
		name, bulk := r.step(tp)
		step := fmt.Sprintf("op %d (%s)", n, name)
		r.checkGeneration(step, gen, bulk)
		r.check(step)
		names = append(names, name)
	}
	return names
}

// step applies one decoded op to both stores and names it. bulk marks the
// ops that notify no observer (Replace, Clear, a load).
func (r *modelRun) step(tp *opTape) (name string, bulk bool) {
	m, want := r.m, r.want
	// No committed tape holds an op byte above 16, so each op code added
	// last (16 the guarded create, 17 the load) leaves their ops as they
	// were; TestCorpusTapesDecode pins them.
	switch tp.next(18) {
	case 0, 1, 2, 3, 4, 5, 6, 7:
		x := tp.triple()
		_, had := want[x]
		added, err := m.Create(x)
		if err != nil || added == had {
			r.t.Fatalf("Create(%v) = %v, %v; model had it: %v", x, added, err, had)
		}
		want[x] = struct{}{}
		return "create " + x.String(), false
	case 8:
		x := modelInvalid[tp.next(len(modelInvalid))]
		if added, err := m.Create(x); err == nil || added {
			r.t.Fatalf("Create(invalid %v) = %v, %v", x, added, err)
		}
		return "create invalid", false
	case 9:
		x := tp.triple()
		_, had := want[x]
		if got := m.Remove(x); got != had {
			r.t.Fatalf("Remove(%v) = %v, model had it: %v", x, got, had)
		}
		delete(want, x)
		return "remove " + x.String(), false
	case 10:
		all := sortedModel(want)
		if len(all) == 0 {
			return "remove hit (empty)", false
		}
		x := all[tp.next(len(all))]
		if !m.Remove(x) {
			r.t.Fatalf("Remove(%v) of a stored triple = false", x)
		}
		delete(want, x)
		return "remove hit " + x.String(), false
	case 11:
		p := tp.pattern()
		hits := modelSelect(want, p)
		if got := m.RemoveMatching(p); got != len(hits) {
			r.t.Fatalf("RemoveMatching(%v) = %d, model matches %d", p, got, len(hits))
		}
		for _, x := range hits {
			delete(want, x)
		}
		return "remove matching " + p.String(), false
	case 12, 13:
		s, p, o := tp.term(modelSubjects), tp.term(modelPredicates), tp.term(modelObjects)
		if err := m.SetUnique(s, p, o); err != nil {
			r.t.Fatalf("SetUnique(%v, %v, %v): %v", s, p, o, err)
		}
		for _, x := range modelSelect(want, rdf.P(s, p, rdf.Zero)) {
			delete(want, x)
		}
		want[rdf.T(s, p, o)] = struct{}{}
		return fmt.Sprintf("set unique %v %v %v", s, p, o), false
	case 14:
		return r.batch(tp), false
	case 16:
		x, req, max := tp.triple(), r.requirement(tp), tp.next(4)-1
		_, had := want[x]
		_, met := want[req]
		n := len(modelSelect(want, rdf.P(x.Subject, x.Predicate, rdf.Zero)))
		added, err := m.CreateGuardedCtx(context.Background(), x, req, max)
		var full *LimitError
		switch {
		case req != (rdf.Triple{}) && !met:
			if added || !errors.Is(err, ErrGuard) {
				r.t.Fatalf("CreateGuarded(%v) requiring absent %v = %v, %v", x, req, added, err)
			}
		case max >= 0 && n >= max:
			if added || !errors.As(err, &full) || *full != (LimitError{Have: n, Max: max}) {
				r.t.Fatalf("CreateGuarded(%v) over %d values, max %d = %v, %v", x, n, max, added, err)
			}
		default:
			if err != nil || added == had {
				r.t.Fatalf("CreateGuarded(%v) = %v, %v; model had it: %v", x, added, err, had)
			}
			want[x] = struct{}{}
		}
		return fmt.Sprintf("guarded create %v requiring %v max %d", x, req, max), false
	case 17:
		d := tp.decoded()
		m.load(d)
		r.want = model{}
		for _, k := range d.Triples {
			r.want[rdf.T(d.Terms[k[posS]], d.Terms[k[posP]], d.Terms[k[posO]])] = struct{}{}
		}
		return fmt.Sprintf("load (%d rows)", len(d.Triples)), true
	default:
		if tp.next(4) == 0 {
			m.Clear()
			r.want = model{}
			return "clear", true
		}
		g := rdf.NewGraph()
		for k := tp.next(16); k > 0; k-- {
			g.Add(tp.triple())
		}
		m.Replace(g)
		r.want = model{}
		g.Each(func(x rdf.Triple) bool { r.want[x] = struct{}{}; return true })
		return fmt.Sprintf("replace (%d)", g.Len()), true
	}
}

// batch stages a few creates (some invalid), removes, pattern removes and
// Sets, then applies or discards them.
func (r *modelRun) batch(tp *opTape) string {
	b := r.m.NewBatch()
	var creates, removes []rdf.Triple
	var patterns []rdf.Pattern
	var sets []setOp
	for k := tp.next(5); k > 0; k-- {
		switch tp.next(5) {
		case 0:
			x := tp.triple()
			if err := b.Create(x); err != nil {
				r.t.Fatalf("batch Create(%v): %v", x, err)
			}
			creates = append(creates, x)
		case 1:
			if err := b.Create(modelInvalid[tp.next(len(modelInvalid))]); err == nil {
				r.t.Fatal("batch staged an invalid triple")
			}
		case 2:
			x := tp.triple()
			if err := b.Remove(x); err != nil {
				r.t.Fatalf("batch Remove(%v): %v", x, err)
			}
			removes = append(removes, x)
		case 3:
			p := tp.pattern()
			if err := b.RemoveMatching(p); err != nil {
				r.t.Fatalf("batch RemoveMatching(%v): %v", p, err)
			}
			patterns = append(patterns, p)
		default:
			op := setOp{t: tp.triple(), requires: r.requirement(tp)}
			if err := b.Set(op.t, op.requires); err != nil {
				r.t.Fatalf("batch Set(%v): %v", op.t, err)
			}
			sets = append(sets, op)
		}
	}
	staged := len(creates) + len(removes) + len(patterns) + 2*len(sets)
	if b.Len() != staged {
		r.t.Fatalf("batch Len = %d, staged %d", b.Len(), staged)
	}
	if tp.next(4) == 0 {
		b.Discard()
		return "batch discard"
	}
	// Apply order: pattern removes, exact removes, creates, then Sets; a
	// Set whose requirement is absent by then fails the whole batch.
	next := cloneModel(r.want)
	for _, p := range patterns {
		for _, x := range modelSelect(next, p) {
			delete(next, x)
		}
	}
	for _, x := range removes {
		delete(next, x)
	}
	for _, x := range creates {
		next[x] = struct{}{}
	}
	refused := false
	for _, op := range sets {
		if _, met := next[op.requires]; op.requires != (rdf.Triple{}) && !met {
			refused = true
			break
		}
		for _, x := range modelSelect(next, rdf.P(op.t.Subject, op.t.Predicate, rdf.Zero)) {
			delete(next, x)
		}
		next[op.t] = struct{}{}
	}
	err := b.Apply()
	if refused {
		if !errors.Is(err, ErrGuard) {
			r.t.Fatalf("batch Apply with an absent requirement: %v", err)
		}
		return fmt.Sprintf("batch refused (%d)", staged)
	}
	if err != nil {
		r.t.Fatalf("batch Apply: %v", err)
	}
	r.want = next
	return fmt.Sprintf("batch apply (%d)", staged)
}

// requirement decodes a guarded write's required triple: none, a stored
// triple (met unless an earlier op of its batch removes it), or any triple
// of the universe (mostly absent).
func (r *modelRun) requirement(tp *opTape) rdf.Triple {
	switch tp.next(3) {
	case 0:
		return rdf.Triple{}
	case 1:
		if all := sortedModel(r.want); len(all) > 0 {
			return all[tp.next(len(all))]
		}
	}
	return tp.triple()
}

// checkGeneration pins the generation contract: an op that touched no
// triple holds the generation, one that did raises it by exactly the
// events it delivered, stamped in order; a bulk op raises it and
// notifies no one. The observer stream, applied in generation order,
// keeps the replica equal to the model.
func (r *modelRun) checkGeneration(step string, before uint64, bulk bool) {
	after := r.m.Generation()
	if bulk {
		if after <= before || len(r.events) != 0 {
			r.t.Fatalf("%s: generation %d -> %d with %d events, want a rise and no events", step, before, after, len(r.events))
		}
		r.replica = cloneModel(r.want)
		return
	}
	if after != before+uint64(len(r.events)) {
		r.t.Fatalf("%s: generation %d -> %d over %d events", step, before, after, len(r.events))
	}
	events := append([]seqEvent(nil), r.events...)
	sort.SliceStable(events, func(i, j int) bool { return events[i].gen < events[j].gen })
	for i, ev := range events {
		if ev.gen != before+uint64(i)+1 {
			r.t.Fatalf("%s: event %d stamped %d, want %d", step, i, ev.gen, before+uint64(i)+1)
		}
		if ev.added {
			r.replica[ev.t] = struct{}{}
		} else {
			delete(r.replica, ev.t)
		}
	}
	if !sameModel(r.replica, r.want) {
		r.t.Fatalf("%s: observer replay holds %d triples, model %d", step, len(r.replica), len(r.want))
	}
}

// check compares every read against the model.
func (r *modelRun) check(step string) {
	t, m, want := r.t, r.m, r.want
	t.Helper()
	if m.Len() != len(want) {
		t.Fatalf("%s: Len = %d, model %d", step, m.Len(), len(want))
	}
	all := sortedModel(want)
	if got := m.Snapshot().All(); !sameTriples(got, all) {
		t.Fatalf("%s: Snapshot = %v, model %v", step, got, all)
	}
	for _, x := range all {
		if !m.Has(x) {
			t.Fatalf("%s: Has(%v) = false", step, x)
		}
	}
	for _, x := range []rdf.Triple{
		rdf.T(modelAbsent, modelPredicates[0], modelObjects[0]),
		rdf.T(modelSubjects[0], modelPredicates[0], modelAbsent),
	} {
		if m.Has(x) {
			t.Fatalf("%s: Has(%v) = true", step, x)
		}
	}
	r.checkSelect(step, all)
	r.checkWalks(step)
	r.checkStats(step, all)
	checkLayout(t, m)
}

// checkSelect runs Select and Count for all 8 bound masks over every
// combination of the model's terms plus one absent term (and Has for the
// fully bound ones), and checks that an index-served select scans
// exactly the model's bucket.
func (r *modelRun) checkSelect(step string, all []rdf.Triple) {
	t, m := r.t, r.m
	subjects, predicates, objects := positionTerms(all)
	wild := []rdf.Term{rdf.Zero}
	for mask := 0; mask < 8; mask++ {
		ss, ps, os := wild, wild, wild
		if mask&1 != 0 {
			ss = subjects
		}
		if mask&2 != 0 {
			ps = predicates
		}
		if mask&4 != 0 {
			os = objects
		}
		for _, s := range ss {
			for _, p := range ps {
				for _, o := range os {
					pat := rdf.P(s, p, o)
					want := modelSelect(r.want, pat)
					if got := m.Select(pat); !sameTriples(got, want) {
						t.Fatalf("%s: Select(%v) = %v, model %v", step, pat, got, want)
					}
					if got := m.Count(pat); got != len(want) {
						t.Fatalf("%s: Count(%v) = %d, model %d", step, pat, got, len(want))
					}
					if x := rdf.T(s, p, o); mask == 7 && m.Has(x) != (len(want) == 1) {
						t.Fatalf("%s: Has(%v) = %v, model %d matches", step, x, !(len(want) == 1), len(want))
					}
				}
			}
		}
	}
	// A single bound position is served from that position's index, whose
	// bucket must hold exactly the model's triples with the term there.
	for i, terms := range [3][]rdf.Term{subjects, predicates, objects} {
		for _, term := range terms {
			var pat rdf.Pattern
			switch i {
			case 0:
				pat.Subject = term
			case 1:
				pat.Predicate = term
			default:
				pat.Object = term
			}
			want := modelSelect(r.want, pat)
			got, e := m.SelectExplain(pat)
			if !sameTriples(got, want) || e.Candidates != len(want) || e.Matched != len(want) {
				t.Fatalf("%s: SelectExplain(%v) = %d triples, %+v; model %d", step, pat, len(got), e, len(want))
			}
		}
	}
}

// checkWalks compares View, ReachesFrom, Path, PathInverse and
// PathExplain with walks over the model.
func (r *modelRun) checkWalks(step string) {
	t, m := r.t, r.m
	roots := append(append([]rdf.Term(nil), modelSubjects...), modelAbsent, rdf.String("v0"))
	for _, root := range roots {
		want := modelView(r.want, root)
		if got := m.View(root).All(); !sameTriples(got, want) {
			t.Fatalf("%s: View(%v) = %v, model %v", step, root, got, want)
		}
		if g, e := m.ViewExplain(root); !sameTriples(g.All(), want) || e.Matched != len(want) {
			t.Fatalf("%s: ViewExplain(%v) = %d triples, %+v; model %d", step, root, g.Len(), e, len(want))
		}
		for _, target := range modelSubjects {
			if got, want := m.ReachesFrom(root, target), modelReaches(r.want, root, target); got != want {
				t.Fatalf("%s: ReachesFrom(%v, %v) = %v, model %v", step, root, target, got, want)
			}
		}
		if got, want := m.Reachable(root), modelReachable(want, root); !sameTerms(got, want) {
			t.Fatalf("%s: Reachable(%v) = %v, model %v", step, root, got, want)
		}
	}
	starts := [][]rdf.Term{
		{modelSubjects[0], modelSubjects[1], rdf.String("v0")},
		{modelAbsent},
		{rdf.String("v0"), rdf.Integer(7)},
		{},
	}
	for _, s := range modelSubjects {
		starts = append(starts, []rdf.Term{s})
	}
	hops := [][]rdf.Term{{}}
	for i, p := range modelPredicates {
		hops = append(hops, []rdf.Term{p}, []rdf.Term{p, modelPredicates[(i+1)%len(modelPredicates)]})
	}
	hops = append(hops, []rdf.Term{modelPredicates[0], modelAbsent, modelPredicates[1]})
	for _, start := range starts {
		for _, preds := range hops {
			want := modelPath(r.want, start, preds, false)
			if got := m.Path(start, preds...); !sameTerms(got, want) {
				t.Fatalf("%s: Path(%v, %v) = %v, model %v", step, start, preds, got, want)
			}
			if got, e := m.PathExplain(start, preds...); !sameTerms(got, want) || e.Matched != len(want) {
				t.Fatalf("%s: PathExplain(%v, %v) = %v, %+v; model %v", step, start, preds, got, e, want)
			}
			want = modelPath(r.want, start, preds, true)
			if got := m.PathInverse(start, preds...); !sameTerms(got, want) {
				t.Fatalf("%s: PathInverse(%v, %v) = %v, model %v", step, start, preds, got, want)
			}
		}
	}
}

// checkStats compares Stats, including the per-predicate cardinality
// table, with a recount over the model.
func (r *modelRun) checkStats(step string, all []rdf.Triple) {
	t := r.t
	st := r.m.Stats()
	subjects, predicates, objects := positionTerms(all)
	literals := 0
	for _, x := range all {
		if x.Object.IsLiteral() {
			literals++
		}
	}
	n := len(all)
	if st.Triples != n || st.IndexSPO != n || st.IndexPOS != n || st.IndexOSP != n ||
		st.DistinctSubjects != len(subjects)-1 || st.DistinctPredicates != len(predicates)-1 ||
		st.DistinctObjects != len(objects)-1 || st.LiteralObjects != literals || st.ResourceObjects != n-literals {
		t.Fatalf("%s: Stats = %s; model %d triples, %d/%d/%d distinct, %d literal objects",
			step, st, n, len(subjects)-1, len(predicates)-1, len(objects)-1, literals)
	}
	var want []PredicateStats
	for _, p := range predicates[:len(predicates)-1] {
		hits := modelSelect(r.want, rdf.P(rdf.Zero, p, rdf.Zero))
		ss, _, os := positionTerms(hits)
		want = append(want, PredicateStats{
			Predicate:        p.Value(),
			Triples:          len(hits),
			DistinctSubjects: len(ss) - 1,
			DistinctObjects:  len(os) - 1,
			Selectivity:      float64(len(hits)) / float64(n),
		})
	}
	sort.Slice(want, func(i, j int) bool { return want[i].Predicate < want[j].Predicate })
	if fmt.Sprint(st.Predicates) != fmt.Sprint(want) {
		t.Fatalf("%s: Stats().Predicates = %+v, recount %+v", step, st.Predicates, want)
	}
	terms := map[rdf.Term]struct{}{}
	for _, x := range all {
		terms[x.Subject], terms[x.Predicate], terms[x.Object] = struct{}{}, struct{}{}, struct{}{}
	}
	if st.Space.UniqueTerms != len(terms) {
		t.Fatalf("%s: Space.UniqueTerms = %d, model holds %d distinct terms", step, st.Space.UniqueTerms, len(terms))
	}
}

// positionTerms lists the distinct subjects, predicates and objects of
// the triples, sorted, each followed by the absent term.
func positionTerms(ts []rdf.Triple) (subjects, predicates, objects []rdf.Term) {
	var seen [3]map[rdf.Term]struct{}
	var out [3][]rdf.Term
	for i := range seen {
		seen[i] = map[rdf.Term]struct{}{}
	}
	for _, x := range ts {
		for i, term := range [3]rdf.Term{x.Subject, x.Predicate, x.Object} {
			if _, ok := seen[i][term]; !ok {
				seen[i][term] = struct{}{}
				out[i] = append(out[i], term)
			}
		}
	}
	for i := range out {
		sortTerms(out[i])
		out[i] = append(out[i], modelAbsent)
	}
	return out[0], out[1], out[2]
}

func modelSelect(want model, p rdf.Pattern) []rdf.Triple {
	var out []rdf.Triple
	for x := range want {
		if p.Matches(x) {
			out = append(out, x)
		}
	}
	rdf.SortTriples(out)
	return out
}

func sortedModel(want model) []rdf.Triple { return modelSelect(want, rdf.Pattern{}) }

// modelView is the reachability closure of §4.4 over the model: every
// triple whose subject is reachable from root along resource objects.
func modelView(want model, root rdf.Term) []rdf.Triple {
	if !root.IsResource() {
		return nil
	}
	reached := map[rdf.Term]bool{root: true}
	for grew := true; grew; {
		grew = false
		for x := range want {
			if reached[x.Subject] && x.Object.IsResource() && !reached[x.Object] {
				reached[x.Object] = true
				grew = true
			}
		}
	}
	var out []rdf.Triple
	for x := range want {
		if reached[x.Subject] {
			out = append(out, x)
		}
	}
	rdf.SortTriples(out)
	return out
}

// modelReachable lists root, when it is a resource, with the subjects
// and resource objects of its view, sorted.
func modelReachable(view []rdf.Triple, root rdf.Term) []rdf.Term {
	seen := map[rdf.Term]struct{}{}
	if root.IsResource() {
		seen[root] = struct{}{}
	}
	for _, x := range view {
		seen[x.Subject] = struct{}{}
		if x.Object.IsResource() {
			seen[x.Object] = struct{}{}
		}
	}
	out := make([]rdf.Term, 0, len(seen))
	for term := range seen {
		out = append(out, term)
	}
	sortTerms(out)
	return out
}

// modelReaches reports whether target is the object of a triple in
// root's view, or root itself when root is a resource.
func modelReaches(want model, root, target rdf.Term) bool {
	if root == target {
		return root.IsResource()
	}
	for _, x := range modelView(want, root) {
		if x.Object == target {
			return true
		}
	}
	return false
}

// modelPath follows the predicates from the start terms, subject to
// object, or object to subject when inverse; a forward walk starts only
// from resources.
func modelPath(want model, start, preds []rdf.Term, inverse bool) []rdf.Term {
	frontier := map[rdf.Term]struct{}{}
	for _, s := range start {
		if inverse || s.IsResource() {
			frontier[s] = struct{}{}
		}
	}
	for _, p := range preds {
		next := map[rdf.Term]struct{}{}
		for x := range want {
			from, to := x.Subject, x.Object
			if inverse {
				from, to = to, from
			}
			if _, ok := frontier[from]; ok && x.Predicate == p {
				next[to] = struct{}{}
			}
		}
		frontier = next
	}
	out := make([]rdf.Term, 0, len(frontier))
	for term := range frontier {
		out = append(out, term)
	}
	sortTerms(out)
	return out
}

func cloneModel(want model) model {
	out := make(model, len(want))
	for x := range want {
		out[x] = struct{}{}
	}
	return out
}

func sameModel(a, b model) bool {
	if len(a) != len(b) {
		return false
	}
	for x := range a {
		if _, ok := b[x]; !ok {
			return false
		}
	}
	return true
}

func sameTerms(a, b []rdf.Term) bool {
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

// modelTape generates a random op tape of n ops' worth of bytes.
func modelTape(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	tape := make([]byte, 5*n)
	rng.Read(tape)
	return tape
}

// TestManagerMatchesModel drives seeded random op sequences through the
// model checker.
func TestManagerMatchesModel(t *testing.T) {
	seeds, ops := int64(8), 60
	if testing.Short() {
		seeds = 3
	}
	for seed := int64(1); seed <= seeds; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runModel(t, modelTape(seed, ops))
		})
	}
}

// FuzzManagerOps is the model checker as a fuzz target: any byte string
// decodes to an op sequence. Tapes are capped so one input stays cheap.
func FuzzManagerOps(f *testing.F) {
	f.Add([]byte{})
	f.Add(modelTape(101, 20))
	f.Fuzz(func(t *testing.T, tape []byte) {
		if len(tape) > 1024 {
			tape = tape[:1024]
		}
		runModel(t, tape)
	})
}

// opKinds summarizes op names as each kind's count, kinds sorted: a
// kind is a name's leading words, up to its first triple, pattern or
// count.
func opKinds(names []string) string {
	counts := map[string]int{}
	for _, name := range names {
		var kind []string
		for _, w := range strings.Fields(name) {
			if strings.Trim(w, "abcdefghijklmnopqrstuvwxyz") != "" {
				break
			}
			kind = append(kind, w)
		}
		counts[strings.Join(kind, " ")]++
	}
	kinds := make([]string, 0, len(counts))
	for kind, n := range counts {
		kinds = append(kinds, fmt.Sprintf("%s:%d", kind, n))
	}
	sort.Strings(kinds)
	return strings.Join(kinds, ", ")
}

// TestCorpusTapesDecode: each committed FuzzManagerOps tape still decodes
// to the ops it was written for, counted by kind, so a new op code cannot
// quietly turn a tape into other ops.
func TestCorpusTapesDecode(t *testing.T) {
	want := map[string]string{
		"batch-mixed":     "batch apply:2, create:14",
		"load-repeat":     "create:1, load:3, remove hit:1, remove matching:1, remove:1, set unique:1",
		"pred-id-reuse":   "create:2, remove:1, set unique:4",
		"replace-clear":   "clear:1, create:4, remove hit:1, remove matching:1, remove:3, replace:2, set unique:1",
		"set-guarded":     "batch apply:3, batch refused:1, create:4, guarded create:3, set unique:1",
		"setunique-churn": "create:12, remove matching:1, set unique:36",
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzManagerOps")
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(want) {
		t.Errorf("%d committed tapes, %d pinned", len(files), len(want))
	}
	for _, f := range files {
		tape := readCorpusTape(t, filepath.Join(dir, f.Name()))
		if got := opKinds(runModel(t, tape)); got != want[f.Name()] {
			t.Errorf("%s decodes to %q, want %q", f.Name(), got, want[f.Name()])
		}
	}
}

// readCorpusTape reads the byte string of a committed fuzz corpus entry.
func readCorpusTape(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, entry, ok := strings.Cut(strings.TrimSpace(string(data)), "\n")
	if !ok || !strings.HasPrefix(entry, "[]byte(") || !strings.HasSuffix(entry, ")") {
		t.Fatalf("%s: not a one-value corpus entry: %q", path, data)
	}
	tape, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(entry, "[]byte("), ")"))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return []byte(tape)
}
