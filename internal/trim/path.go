package trim

import (
	"slices"

	"repro/internal/rdf"
)

// Path evaluates a predicate path: starting from the given resources, it
// follows each predicate in sequence (subject -> object) and returns the
// terms reached at the end, deduplicated and sorted. It is the small
// navigational query facility of §6's "query capabilities, in addition to
// the current navigational access" — e.g.
//
//	m.Path([]rdf.Term{pad}, rootBundle, bundleContent, scrapMark)
//
// yields every mark handle reachable from a pad.
func (m *Manager) Path(start []rdf.Term, predicates ...rdf.Term) []rdf.Term {
	recordPathShape(predicates, false)
	m.mu.RLock()
	defer m.mu.RUnlock()
	out, _ := m.pathLocked(start, predicates, false)
	return out
}

// PathInverse follows predicates backwards (object -> subject): "which
// scraps hold this mark handle" style questions.
func (m *Manager) PathInverse(start []rdf.Term, predicates ...rdf.Term) []rdf.Term {
	recordPathShape(predicates, true)
	m.mu.RLock()
	defer m.mu.RUnlock()
	out, _ := m.pathLocked(start, predicates, true)
	return out
}

// pathLocked is the one walk behind Path, PathInverse and PathExplain. A
// forward walk starts from the resources among start and steps subject to
// object along the subject index; an inverse walk starts from every start
// term and steps object to subject along the object index. The report
// counts the edges examined across every hop; its Query is the caller's.
func (m *Manager) pathLocked(start, predicates []rdf.Term, inverse bool) ([]rdf.Term, Explain) {
	from, to, index := posS, posO, indexSubject
	if inverse {
		from, to, index = posO, posS, indexObject
	}
	var e Explain
	m.explainLocked(&e, "path", index)
	if len(predicates) == 0 {
		out := make([]rdf.Term, 0, len(start))
		for _, s := range start {
			if inverse || s.IsResource() {
				out = append(out, s)
			}
		}
		sortTerms(out)
		out = slices.Compact(out)
		e.Matched = len(out)
		return out, e
	}
	frontier := make(map[int32]struct{}, len(start))
	for _, s := range start {
		if id := m.st.lookup(s); id != noID && (inverse || s.IsResource()) {
			frontier[id] = struct{}{}
		}
	}
	for _, pred := range predicates {
		want := m.st.lookup(pred)
		next := make(map[int32]struct{})
		for node := range frontier {
			list := m.st.dict[node].post[from]
			e.Candidates += len(list)
			for _, r := range list {
				if k := m.st.rows[r].ids; k[posP] == want {
					next[k[to]] = struct{}{}
				}
			}
		}
		frontier = next
		if len(frontier) == 0 {
			break
		}
	}
	out := make([]rdf.Term, 0, len(frontier))
	for id := range frontier {
		out = append(out, m.st.term(id))
	}
	sortTerms(out)
	e.Matched = len(out)
	return out, e
}
